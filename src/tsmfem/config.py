"""Run configuration: a single YAML file (CLI flags override file values),
strict key validation, and the built-in benchmark presets.

Two preset families exist for each geometry:

* ``double_notch`` / ``plate_hole`` keep the full-scale reference parameter set
  (lam=1 GPa, mu=0.8 GPa, rho=1000 kg/m^3, eta=1 / 5 GPa*s, ramps to
  0.01 m / 1 mm at 1 s).  At these viscosities and meter-per-second wave
  speeds a full run needs ~7e5 explicit steps and accumulates essentially
  no damage at the default geometry scale; they are faithful references,
  not desk workloads.
* ``*_desk`` variants share the meshes and loading pattern but shorten the
  horizon and lower the viscosity so a complete damage evolution plays out
  in ~1e4 steps; these drive the qualitative studies and the test suite.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import yaml

from .material import MaterialParams
from .mesh import (
    DirichletRamp,
    LoadCase,
    generate_double_notch,
    generate_plate_with_hole,
    load_mesh,
)
from .montecarlo import XiDistribution
from .solver import stable_timestep
from .tsm import Problem, TsmConfig


def _dns_pattern(amplitude, ramp_end):
    return [
        {"set": "bottom", "axis": 0, "amplitude": 0.0, "ramp_end": ramp_end},
        {"set": "bottom", "axis": 1, "amplitude": 0.0, "ramp_end": ramp_end},
        {"set": "bottom", "axis": 2, "amplitude": 0.0, "ramp_end": ramp_end},
        {"set": "top", "axis": 1, "amplitude": amplitude, "ramp_end": ramp_end},
    ]


def _plate_pattern(amplitude, ramp_end):
    return [
        {"set": "symmetry_x", "axis": 0, "amplitude": 0.0, "ramp_end": ramp_end},
        {"set": "symmetry_y", "axis": 1, "amplitude": 0.0, "ramp_end": ramp_end},
        {"set": "front", "axis": 2, "amplitude": 0.0, "ramp_end": ramp_end},
        {"set": "top", "axis": 1, "amplitude": amplitude, "ramp_end": ramp_end},
    ]


def _preset(generator, material, dirichlet, total_time, snapshots=8):
    return {
        "problem": {"preset": None},  # filled by caller
        "generator": generator,
        "material": material,
        "load": {"dirichlet": dirichlet, "total_time": total_time,
                 "body_force": [0.0, 0.0, 0.0]},
        "timestep": {"dt": None, "cfl_safety": 0.5, "mass_damping": 0.0},
        "tsm": {"exchange_interval": 1000, "exchange_mode": "in_memory",
                "xi_second_moment": None},
        "mc": {"n": 500, "kind": "normal", "std": 0.1, "truncation": 0.9,
               "seed": 20241, "workers": 1, "force_stride": 1},
        "output": {"dir": "out", "snapshot_times": None, "n_snapshots": snapshots},
    }


_REFERENCE_MATERIAL = {"lam": 1.0e9, "mu": 0.8e9, "rho": 1000.0}

PRESETS: dict[str, dict] = {
    # full-scale reference parameter sets (~7e5 explicit steps per run)
    "double_notch": _preset(
        {"kind": "double_notch"},
        dict(_REFERENCE_MATERIAL, eta=1.0e9),
        _dns_pattern(0.01, 1.0), total_time=1.0),
    "plate_hole": _preset(
        {"kind": "plate_hole"},
        dict(_REFERENCE_MATERIAL, eta=5.0e9),
        _plate_pattern(0.001, 1.0), total_time=1.0),
    # desk-scale variants: same meshes, shortened horizon, reduced viscosity,
    # and the mass-proportional transient damping explicit runs need for
    # clean reaction output
    "double_notch_desk": _preset(
        {"kind": "double_notch"},
        dict(_REFERENCE_MATERIAL, eta=2.0e4),
        _dns_pattern(0.01, 0.012), total_time=0.012),
    "plate_hole_desk": _preset(
        {"kind": "plate_hole"},
        dict(_REFERENCE_MATERIAL, eta=1.2e4),
        _plate_pattern(0.01, 0.008), total_time=0.008),
    # 44-element plate for fast studies and oracle comparisons
    "plate_coarse_desk": _preset(
        {"kind": "plate_hole",
         "width": 0.1, "height": 0.075, "thickness": 0.0125,
         "hole_radius": 0.03125, "nx": 8, "ny": 6},
        dict(_REFERENCE_MATERIAL, eta=8.0e3),
        _plate_pattern(0.005, 0.008), total_time=0.008),
}
for _name in ("double_notch_desk", "plate_hole_desk", "plate_coarse_desk"):
    PRESETS[_name]["timestep"]["mass_damping"] = 3.0e4

_GENERATORS = {"double_notch": generate_double_notch,
               "plate_hole": generate_plate_with_hole}


class ConfigError(ValueError):
    """Invalid or unknown configuration content, naming the offending key."""


def _check_keys(d: dict, allowed, path: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s) {sorted(unknown)} under '{path}'")


def _count(value, key: str) -> int:
    """A config value that must be an integer >= 1; 2.5 is rejected, not
    truncated."""
    try:
        n = int(value)
        if n != float(value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    if n < 1:
        raise ConfigError(f"{key} must be >= 1, got {n}")
    return n


@dataclass
class RunConfig:
    """Fully resolved configuration plus the constructed problem objects."""

    raw: dict
    problem: Problem
    dt: float
    snapshot_times: np.ndarray
    tsm: TsmConfig
    xi_dist: XiDistribution
    mc_n: int
    mc_workers: int
    force_stride: int
    output_dir: str

    def as_dict(self) -> dict:
        return copy.deepcopy(self.raw)


def _merge(base: dict, override: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v, f"{path}{k}.")
        else:
            out[k] = v
    return out


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Resolve a YAML file and/or override dict into a RunConfig.

    The file may name a preset (``problem.preset``) whose values act as the
    base layer, or a mesh file (``problem.mesh_file``) with an explicit
    Dirichlet table.  Exactly one of the two must be given.  Unknown keys
    anywhere are rejected.
    """
    user: dict = {}
    if path is not None:
        with open(path) as fh:
            user = yaml.safe_load(fh) or {}
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
    if overrides:
        user = _merge(user, overrides)

    _check_keys(user, ["problem", "generator", "material", "load", "timestep",
                       "tsm", "mc", "output"], "<root>")
    prob_spec = user.get("problem", {})
    _check_keys(prob_spec, ["preset", "mesh_file"], "problem")
    preset_name = prob_spec.get("preset")
    mesh_file = prob_spec.get("mesh_file")
    if (preset_name is None) == (mesh_file is None):
        raise ConfigError("exactly one of problem.preset / problem.mesh_file is required")

    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset '{preset_name}' (have {sorted(PRESETS)})")
        cfg = _merge(PRESETS[preset_name], user)
        cfg["problem"] = {"preset": preset_name}
    else:
        cfg = _merge(_preset({}, {}, [], 0.0), user)
        cfg["problem"] = {"mesh_file": mesh_file}

    _check_keys(cfg["generator"], ["kind", "width", "height", "thickness",
                                   "notch_depth", "notch_height", "hole_radius",
                                   "nx", "ny"], "generator")
    _check_keys(cfg["material"], ["lam", "mu", "rho", "eta"], "material")
    _check_keys(cfg["load"], ["dirichlet", "total_time", "body_force",
                              "amplitude", "ramp_end"], "load")
    _check_keys(cfg["timestep"], ["dt", "cfl_safety", "mass_damping"], "timestep")
    _check_keys(cfg["tsm"], ["exchange_interval", "exchange_mode",
                             "xi_second_moment"], "tsm")
    _check_keys(cfg["mc"], ["n", "kind", "std", "truncation", "seed",
                            "workers", "force_stride"], "mc")
    _check_keys(cfg["output"], ["dir", "snapshot_times", "n_snapshots"], "output")

    # mesh
    if mesh_file is not None:
        mesh = load_mesh(mesh_file)
    else:
        gen = dict(cfg["generator"])
        kind = gen.pop("kind")
        mesh = _GENERATORS[kind](**gen)

    # material
    mat = cfg["material"]
    try:
        params = MaterialParams(lam=float(mat["lam"]), mu=float(mat["mu"]),
                                rho=float(mat["rho"]), eta=float(mat["eta"]))
    except KeyError as exc:
        raise ConfigError(f"material.{exc.args[0]} is required") from exc

    # loading
    ld = cfg["load"]
    total_time = float(ld["total_time"])
    table = ld.get("dirichlet")
    if not table:
        raise ConfigError("load.dirichlet is required (presets provide one)")
    if ld.get("amplitude") is not None or ld.get("ramp_end") is not None:
        # convenience override: retarget every nonzero ramp
        amp, end = ld.get("amplitude"), ld.get("ramp_end")
        for row in table:
            if end is not None:
                row["ramp_end"] = float(end)
            if amp is not None and row["amplitude"] != 0.0:
                row["amplitude"] = float(amp)
    ramps = []
    for row in table:
        _check_keys(row, ["set", "axis", "amplitude", "ramp_end"], "load.dirichlet[]")
        ramps.append(DirichletRamp(row["set"], int(row["axis"]),
                                   float(row["amplitude"]), float(row["ramp_end"])))
    loads = LoadCase(dirichlet=tuple(ramps), total_time=total_time,
                     body_force=tuple(float(v) for v in ld["body_force"]))
    ts = cfg["timestep"]
    problem = Problem(mesh=mesh, loads=loads, params=params,
                      mass_damping=float(ts.get("mass_damping") or 0.0))
    dt = float(ts["dt"]) if ts.get("dt") else stable_timestep(
        mesh, params, float(ts.get("cfl_safety", 0.5)))

    # snapshots
    out = cfg["output"]
    if out.get("snapshot_times"):
        snaps = np.asarray([float(t) for t in out["snapshot_times"]])
    else:
        n = _count(out["n_snapshots"], "output.n_snapshots")
        snaps = np.linspace(total_time / n, total_time, n)

    mc = cfg["mc"]
    mc_n = _count(mc["n"], "mc.n")
    if mc_n < 2:
        raise ConfigError(f"mc.n must be >= 2 (statistics need two samples), got {mc_n}")
    xi2 = cfg["tsm"]["xi_second_moment"]
    tsm_cfg = TsmConfig(
        exchange_interval=_count(cfg["tsm"]["exchange_interval"], "tsm.exchange_interval"),
        exchange_mode=cfg["tsm"]["exchange_mode"],
        xi_second_moment=float(mc["std"]) ** 2 if xi2 is None else float(xi2),
    )
    xi_dist = XiDistribution(kind=mc["kind"], std=float(mc["std"]),
                             truncation=float(mc["truncation"]), seed=int(mc["seed"]))
    return RunConfig(
        raw=cfg, problem=problem, dt=dt, snapshot_times=snaps, tsm=tsm_cfg,
        xi_dist=xi_dist, mc_n=mc_n, mc_workers=int(mc["workers"]),
        force_stride=_count(mc["force_stride"], "mc.force_stride"),
        output_dir=str(out["dir"]),
    )
