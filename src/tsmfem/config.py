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
import inspect
import os
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
    validate_load_case,
)
from .montecarlo import XiDistribution
from .solver import stable_timestep
from .tsm import K_MAX, Problem, TsmConfig


def _load_table(fixed, amplitude, ramp_end):
    """Dirichlet rows: each fixed (set, axis) held at 0, then "top" pulled
    along y to ``amplitude``, all ramped over ``ramp_end``."""
    rows = [*((name, axis, 0.0) for name, axis in fixed), ("top", 1, amplitude)]
    return [{"set": name, "axis": axis, "amplitude": amp, "ramp_end": ramp_end}
            for name, axis, amp in rows]


# the supports: the double notch clamps its bottom, the quarter plate holds
# its two symmetry planes and its front face
_DNS_FIXED = (("bottom", 0), ("bottom", 1), ("bottom", 2))
_PLATE_FIXED = (("symmetry_x", 0), ("symmetry_y", 1), ("front", 2))


def _preset(generator, material, dirichlet, total_time, mass_damping=0.0):
    return {
        "problem": {"preset": None},  # filled by caller
        "generator": generator,
        "material": material,
        "load": {"dirichlet": dirichlet, "total_time": total_time,
                 "body_force": [0.0, 0.0, 0.0]},
        "timestep": {"dt": None, "cfl_safety": 0.5, "mass_damping": mass_damping},
        "tsm": {"exchange_interval": 1000, "exchange_mode": "in_memory",
                "xi_second_moment": None},
        "mc": {"n": 500, "kind": "normal", "std": 0.1, "truncation": 0.9,
               "seed": 20241, "workers": 1, "force_stride": 1},
        "output": {"dir": "out", "snapshot_times": None, "n_snapshots": 8},
    }


# the key layout every config is checked against (root and fixed sections)
_TEMPLATE = _preset({}, {}, [], 0.0)

_REFERENCE_MATERIAL = {"lam": 1.0e9, "mu": 0.8e9, "rho": 1000.0}

PRESETS: dict[str, dict] = {
    # full-scale reference parameter sets (~7e5 explicit steps per run)
    "double_notch": _preset(
        {"kind": "double_notch"},
        dict(_REFERENCE_MATERIAL, eta=1.0e9),
        _load_table(_DNS_FIXED, 0.01, 1.0), total_time=1.0),
    "plate_hole": _preset(
        {"kind": "plate_hole"},
        dict(_REFERENCE_MATERIAL, eta=5.0e9),
        _load_table(_PLATE_FIXED, 0.001, 1.0), total_time=1.0),
    # desk-scale variants: same meshes, shortened horizon, reduced viscosity,
    # and the mass-proportional transient damping explicit runs need for
    # clean reaction output
    "double_notch_desk": _preset(
        {"kind": "double_notch"},
        dict(_REFERENCE_MATERIAL, eta=2.0e4),
        _load_table(_DNS_FIXED, 0.01, 0.012), total_time=0.012, mass_damping=3.0e4),
    "plate_hole_desk": _preset(
        {"kind": "plate_hole"},
        dict(_REFERENCE_MATERIAL, eta=1.2e4),
        _load_table(_PLATE_FIXED, 0.01, 0.008), total_time=0.008, mass_damping=3.0e4),
    # 44-element plate for fast studies and oracle comparisons
    "plate_coarse_desk": _preset(
        {"kind": "plate_hole",
         "width": 0.1, "height": 0.075, "thickness": 0.0125,
         "hole_radius": 0.03125, "nx": 8, "ny": 6},
        dict(_REFERENCE_MATERIAL, eta=8.0e3),
        _load_table(_PLATE_FIXED, 0.005, 0.008), total_time=0.008, mass_damping=3.0e4),
}

_GENERATORS = {"double_notch": generate_double_notch,
               "plate_hole": generate_plate_with_hole}
# each generator kind's settings, from its signature: True for a count (an int
# default), else a length; width, height and thickness > 0, the others >= 0
_SETTINGS = {kind: {k: isinstance(p.default, int)
                    for k, p in inspect.signature(gen).parameters.items()}
             for kind, gen in _GENERATORS.items()}


class ConfigError(ValueError):
    """Invalid or unknown configuration content, naming the offending key."""


def _check_keys(d: dict, allowed, path: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s) {sorted(unknown)} under '{path}'")


def _count(value, key: str, minimum: int = 1, maximum: float = np.inf) -> int:
    """A config value that must be an integer in [minimum, maximum]; 2.5 is
    rejected, not truncated."""
    try:
        n = int(value)
        if not isinstance(value, int) and n != float(value):  # float() rounds past 2**53
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    if not minimum <= n <= maximum:
        bound = f">= {minimum}" if maximum == np.inf else f"in [{minimum}, {maximum}]"
        raise ConfigError(f"{key} must be {bound}, got {n}")
    return n


def _number(value, key: str) -> float:
    """A config value that must be a finite number; nan and inf are rejected."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if not np.isfinite(x):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return x


def _real(value, key: str, *, positive: bool) -> float:
    """A finite config value (``_number``), > 0 when ``positive``, else >= 0."""
    x = _number(value, key)
    if x < 0.0 or (positive and x == 0.0):
        raise ConfigError(f"{key} must be {'> 0' if positive else '>= 0'}, got {value!r}")
    return x


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


def _merge_into(out: dict, override: dict) -> dict:
    """Merge ``override`` into ``out`` in place, section by section, and
    return ``out``; values are copied from ``override``, never shared."""
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            _merge_into(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
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
        user = _merge_into(user, overrides)

    _check_keys(user, _TEMPLATE, "<root>")
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
        cfg = _merge_into(copy.deepcopy(PRESETS[preset_name]), user)
        cfg["problem"] = {"preset": preset_name}
    else:
        cfg = _merge_into(copy.deepcopy(_TEMPLATE), user)
        cfg["problem"] = {"mesh_file": mesh_file}

    _check_keys(cfg["generator"], ["kind", *set().union(*_SETTINGS.values())], "generator")
    _check_keys(cfg["material"], ["lam", "mu", "rho", "eta"], "material")
    _check_keys(cfg["load"], [*_TEMPLATE["load"], "amplitude", "ramp_end"], "load")
    for section in ("timestep", "tsm", "mc", "output"):
        _check_keys(cfg[section], _TEMPLATE[section], section)

    # mesh
    if mesh_file is not None:
        mesh = load_mesh(mesh_file)
    else:
        gen = dict(cfg["generator"])
        kind = gen.pop("kind", None)
        if not isinstance(kind, str) or kind not in _GENERATORS:
            raise ConfigError(f"generator.kind must be one of {sorted(_GENERATORS)}, "
                              f"got {kind!r}")
        _check_keys(gen, _SETTINGS[kind], f"generator (kind {kind})")
        mesh = _GENERATORS[kind](**{
            k: (_count(v, f"generator.{k}") if _SETTINGS[kind][k] else
                _real(v, f"generator.{k}", positive=k in ("width", "height", "thickness")))
            for k, v in gen.items()})

    # material
    mat = cfg["material"]
    try:
        params = MaterialParams(**{k: _real(mat[k], f"material.{k}", positive=True)
                                   for k in ("lam", "mu", "rho", "eta")})
    except KeyError as exc:
        raise ConfigError(f"material.{exc.args[0]} is required") from exc

    # loading
    ld = cfg["load"]
    total_time = _real(ld["total_time"], "load.total_time", positive=True)
    table = ld.get("dirichlet")
    if not table:
        raise ConfigError("load.dirichlet is required (presets provide one)")
    # convenience overrides: retarget every ramp's end and every nonzero amplitude
    amp = None if ld.get("amplitude") is None else _number(ld["amplitude"], "load.amplitude")
    end = (None if ld.get("ramp_end") is None
           else _real(ld["ramp_end"], "load.ramp_end", positive=True))
    ramps = []
    for i, row in enumerate(table):
        key = f"load.dirichlet[{i}]"
        _check_keys(row, ["set", "axis", "amplitude", "ramp_end"], key)
        if end is not None:
            row["ramp_end"] = end
        for name in ("set", "axis", "amplitude", "ramp_end"):
            if name not in row:
                raise ConfigError(f"{key}.{name} is required")
        axis = _count(row["axis"], f"{key}.axis", minimum=0, maximum=2)
        a = _number(row["amplitude"], f"{key}.amplitude")
        if amp is not None and a != 0.0:
            row["amplitude"] = a = amp
        ramps.append(DirichletRamp(row["set"], axis, a,
                                   _real(row["ramp_end"], f"{key}.ramp_end", positive=True)))
    body = ld["body_force"]
    if not isinstance(body, (list, tuple)) or len(body) != 3:
        raise ConfigError(f"load.body_force must be 3 numbers, got {body!r}")
    loads = LoadCase(dirichlet=tuple(ramps), total_time=total_time,
                     body_force=tuple(_number(v, "load.body_force") for v in body))
    try:  # the mesh itself is validated by load_mesh or ElementQuadrature.build
        validate_load_case(loads, mesh)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    ts = cfg["timestep"]
    problem = Problem(mesh=mesh, loads=loads, params=params,
                      mass_damping=_real(ts["mass_damping"], "timestep.mass_damping",
                                         positive=False))
    cfl_safety = _real(ts["cfl_safety"], "timestep.cfl_safety", positive=True)
    dt = (stable_timestep(mesh, params, cfl_safety) if ts["dt"] is None
          else _real(ts["dt"], "timestep.dt", positive=True))
    if not problem.mass_damping * dt < 2.0:  # else |1 - mass_damping * dt| >= 1
        raise ConfigError(f"timestep.mass_damping * timestep.dt must be < 2, got "
                          f"timestep.mass_damping={problem.mass_damping!r} and "
                          f"timestep.dt={dt!r}")

    # snapshots
    out = cfg["output"]
    times = out.get("snapshot_times")
    if times is not None and not isinstance(times, (list, tuple)):
        raise ConfigError(f"output.snapshot_times must be a list of times, got {times!r}")
    if times:
        snaps = np.asarray([_real(t, "output.snapshot_times", positive=False) for t in times])
        if snaps.max() > total_time:
            raise ConfigError(f"output.snapshot_times must lie in [0, load.total_time = "
                              f"{total_time!r}], got {float(snaps.max())!r}")
    else:
        n = _count(out["n_snapshots"], "output.n_snapshots")
        snaps = np.linspace(total_time / n, total_time, n)

    mc = cfg["mc"]
    mc_n = _count(mc["n"], "mc.n", minimum=2)  # statistics need two samples
    std = _real(mc["std"], "mc.std", positive=True)
    xi2 = cfg["tsm"]["xi_second_moment"]
    tsm_cfg = TsmConfig(
        exchange_interval=_count(cfg["tsm"]["exchange_interval"], "tsm.exchange_interval",
                                 maximum=K_MAX),
        exchange_mode=cfg["tsm"]["exchange_mode"],
        xi_second_moment=(std**2 if xi2 is None
                          else _real(xi2, "tsm.xi_second_moment", positive=False)),
    )
    xi_dist = XiDistribution(kind=mc["kind"], std=std,
                             truncation=_real(mc["truncation"], "mc.truncation",
                                              positive=True),
                             seed=_count(mc["seed"], "mc.seed", minimum=0))
    return RunConfig(
        raw=cfg, problem=problem, dt=dt, snapshot_times=snaps, tsm=tsm_cfg,
        xi_dist=xi_dist, mc_n=mc_n,
        # one process per core at most: a pool starts all its processes at once
        mc_workers=_count(mc["workers"], "mc.workers", maximum=os.cpu_count() or 1),
        force_stride=_count(mc["force_stride"], "mc.force_stride"),
        output_dir=str(out["dir"]),
    )
