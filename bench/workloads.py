"""The benchmark's three workloads.

Every workload drives tsmfem only through its public API or its CLI
(``tsmfem.cli.main``, called in process).  The seed only generates the
inputs (``draw_inputs``); the program never sees it.

* ``coarse_campaign`` -- the plate study on the 44-element plate: one
  deterministic run and a TSM pair (K=1, in memory, force_stride=1) three
  times over, then a seeded Monte Carlo ensemble at force_stride=8,
  its statistics, the TSM-vs-MC comparison and their export.  Per-step
  Python overhead, reaction recording, the in-memory exchange hold and the
  montecarlo layer dominate; sparse products are cheap.
* ``plate_tsm_file`` -- ``tsmfem run-tsm`` on the 594-element plate with a
  file exchange stream at K=4: sparse products dominate, the exchange file
  is written, CRC-verified and read back, and export runs on the timed
  path.
* ``dns_det`` -- ``tsmfem run-det`` on the 646-element double-notch
  specimen at one seeded xi: order 0 only, so tsm and montecarlo are
  bypassed and a change to them must leave this workload flat.
"""

from __future__ import annotations

import contextlib
import glob
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import yaml

from tsmfem import cli, config, export, montecarlo, solver, tsm

import checks
from pacer import clock


@dataclass
class Unit:
    """One timed pass of a workload (set-up excluded)."""

    wall_s: float = 0.0
    ref_s: float = 0.0  # wall_s at the reference speed (see pacer.py)
    cpu_s: float = 0.0  # process CPU time of the pass, the kernel's left out
    times: dict = field(default_factory=dict)  # name -> list of seconds
    sims_planned: int = 0
    sims_done: int = 0
    n_steps: int = 0  # explicit steps of one simulation
    steps: int = 0  # explicit steps over all simulations
    exchange_records: int = 0
    exchange_bytes: int = 0
    export_bytes: int = 0
    error: str | None = None
    out: dict = field(default_factory=dict)  # outputs the checks read

    def timed(self, name: str, t0: float):
        self.times.setdefault(name, []).append(clock() - t0)

    def simulated(self, n_sims: int, n_steps: int):
        self.sims_done += n_sims
        self.n_steps = n_steps
        self.steps += n_sims * n_steps


def dir_bytes(path: str, skip=()) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for f in files:
            if f not in skip:
                total += os.path.getsize(os.path.join(base, f))
    return total


def manifest_steps(outdir: str) -> int:
    """``n_steps`` from a CLI manifest, read without tsmfem so that the
    benchmark's own reading never counts as export time."""
    with open(os.path.join(outdir, "manifest.yaml")) as fh:
        return int(yaml.safe_load(fh)["n_steps"])


def quiet_cli(argv) -> None:
    """``tsmfem.cli.main`` with its progress lines sent to stderr, so the
    benchmark's result stays the last line of stdout."""
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tsmfem {argv[0]} exited with code {code}")


class Workload:
    name = ""
    preset = ""
    sims = 0  # simulations per pass
    check_sims = 0  # simulations the checks run
    check_names: tuple = ()
    kernel = (0, 0)  # reference kernel: (elements, iterations); see pacer.py

    def __init__(self, inputs: dict, workdir: str):
        self.inputs = inputs
        self.workdir = workdir  # relative to the checkout root

    @classmethod
    def draw_inputs(cls, rng: np.random.Generator) -> dict:
        return {}

    def overrides(self) -> dict:
        """The config the workload runs, as ``load_config`` overrides."""
        return {"problem": {"preset": self.preset},
                "mc": {"workers": 1},
                "output": {"dir": self.workdir}}

    def setup(self):
        """Resolve the config (mesh and dt included), build the quadrature
        and the lumped mass: the set-up every run of the workload pays."""
        cfg = config.load_config(overrides=self.overrides())
        quad = solver.ElementQuadrature.build(cfg.problem.mesh)
        solver.lumped_mass(cfg.problem.mesh, cfg.problem.params.rho, quad)
        return cfg, quad

    def run(self, cfg, quad, pacer=None) -> Unit:
        """One pass; with a pacer, also its reference-speed time."""
        unit = Unit(sims_planned=self.sims)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        t0, p0, c0 = clock(), time.perf_counter(), time.process_time()
        try:
            with pacer.window() if pacer else contextlib.nullcontext({}) as win:
                self._run(cfg, quad, unit)
            unit.wall_s = clock() - t0
            unit.ref_s = win.get("ref_s", unit.wall_s)
            kernel_s = time.perf_counter() - p0 - unit.wall_s
            unit.cpu_s = time.process_time() - c0 - kernel_s
            self._account(cfg, quad, unit)  # reads outputs; not timed
        except Exception:  # a failed simulation is counted, not fatal
            unit.wall_s = unit.wall_s or clock() - t0
            unit.error = traceback.format_exc()
            print(unit.error, file=sys.stderr)
        return unit

    def _account(self, cfg, quad, unit):
        """Counts and output locations of a finished pass."""

    def check(self, cfg, quad, unit: Unit) -> tuple[list[checks.Check], int]:
        """Output checks, outside the timed window, and the number of the
        checks' own simulations that failed.  A pass that failed, or checks
        that raise, fail every check."""
        failed = [checks.Check(n, float("inf"), 0.0) for n in self.check_names]
        if unit.error is not None:
            return failed, self.check_sims
        try:
            out = self._check(cfg, quad, unit)
        except Exception:
            print(traceback.format_exc(), file=sys.stderr)
            return failed, self.check_sims
        if [c.name for c in out] != list(self.check_names):
            return failed, 0
        return out, 0

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def reference_name(self) -> str:
        return self.name


class CoarseCampaign(Workload):
    name = "coarse_campaign"
    preset = "plate_coarse_desk"
    REPEATS = 3  # det and TSM passes; their medians give det_s and tsm_s
    MC_N = 40  # tail percentile p75 keeps 10 samples beyond it
    sims = REPEATS * 3 + MC_N
    check_sims = 2  # the finite-difference oracle's two runs
    kernel = (44, 200)
    check_names = ("fd.u1", "fd.d1", "fd.sigma1", "fd.F1",
                   "no_healing.det", "no_healing.order0")

    @classmethod
    def draw_inputs(cls, rng):
        return {"mc_seed": int(rng.integers(1, 2**31 - 1))}

    def overrides(self):
        o = super().overrides()
        o["timestep"] = {"cfl_safety": 0.45}
        o["tsm"] = {"exchange_interval": 1, "exchange_mode": "in_memory"}
        o["mc"].update(n=self.MC_N, seed=self.inputs["mc_seed"], force_stride=8)
        return o

    def _run(self, cfg, quad, unit):
        p, dt, snaps = cfg.problem, cfg.dt, cfg.snapshot_times
        for _ in range(self.REPEATS):
            t0 = clock()
            det = solver.run_deterministic(p.mesh, p.loads, p.params, 0.0, dt, snaps,
                                           quad=quad, mass_damping=p.mass_damping)
            unit.timed("det_s", t0)
            unit.simulated(1, det.n_steps)
            t0 = clock()
            sol = tsm.run_tsm(p, cfg.tsm, dt, snaps, quad=quad)
            uq = tsm.uq_summary(sol)
            unit.timed("tsm_s", t0)
            unit.simulated(2, sol.history0.n_steps)
        unit.exchange_records = sol.history0.n_steps // cfg.tsm.exchange_interval + 1
        unit.exchange_bytes = unit.exchange_records * quad.n_gauss * 7 * 8

        # per-realization times on the benchmark's clock, which leaves out
        # the reference kernel (McEnsemble.wall_times would include it)
        walls = []
        run_det = montecarlo.run_deterministic

        def timed_sample(*args, **kwargs):
            t = clock()
            hist = run_det(*args, **kwargs)
            walls.append(clock() - t)
            return hist

        t0 = clock()
        xis = montecarlo.sample_xi(cfg.xi_dist, cfg.mc_n)
        montecarlo.run_deterministic = timed_sample
        try:
            ens = montecarlo.run_mc(p, xis, dt, snaps, workers=cfg.mc_workers,
                                    force_stride=cfg.force_stride, quad=quad)
        finally:
            montecarlo.run_deterministic = run_det
        unit.timed("mc_campaign_s", t0)
        unit.simulated(ens.n, ens.histories[0].n_steps)
        unit.times["mc_sample_s"] = walls

        t0 = clock()
        mc_uq = montecarlo.mc_statistics(ens)
        report = montecarlo.compare(uq, mc_uq)
        export.save_summary(os.path.join(self.workdir, "tsm_uq_summary.npz"), uq)
        export.save_summary(os.path.join(self.workdir, "mc_uq_summary.npz"), mc_uq)
        export.write_comparison_csv(os.path.join(self.workdir, "compare"), report)
        unit.timed("post_s", t0)
        unit.out = {"det": det, "sol": sol}

    def _account(self, cfg, quad, unit):
        unit.export_bytes = dir_bytes(self.workdir)

    def _check(self, cfg, quad, unit):
        p = cfg.problem
        h1 = unit.out["sol"].history1
        fd = montecarlo.fd_oracle(p, checks.FD_STEP, cfg.dt, cfg.snapshot_times, quad=quad)
        name = tsm.loaded_set_name(unit.out["sol"].history0)
        return [
            checks.Check("fd.u1", checks.rel_gap(h1.u, fd.u), checks.FD_BOUND),
            checks.Check("fd.d1", checks.rel_gap(h1.d, fd.d), checks.FD_BOUND),
            checks.Check("fd.sigma1", checks.rel_gap(h1.sigma, fd.sigma), checks.FD_BOUND),
            checks.Check("fd.F1", checks.rel_gap(h1.forces[name], fd.forces[name]),
                         checks.FD_BOUND),
            checks.no_healing("no_healing.det", unit.out["det"].d),
            checks.no_healing("no_healing.order0", unit.out["sol"].history0.d),
        ]


class PlateTsmFile(Workload):
    name = "plate_tsm_file"
    preset = "plate_hole_desk"
    K = 4
    sims = 2
    kernel = (594, 13)
    check_names = ("ref.d_mean", "ref.d_std_per_std", "ref.force_mean",
                   "ref.force_std_per_std", "ref.snorm_mean", "ref.snorm_std_per_std",
                   "no_healing.d_mean", "exchange.crc_and_records")

    @classmethod
    def draw_inputs(cls, rng):
        # the stiffness std only scales the moments, never the run itself
        return {"xi_std": round(float(rng.uniform(0.05, 0.15)), 4)}

    def overrides(self):
        o = super().overrides()
        o["tsm"] = {"exchange_mode": "file", "exchange_interval": self.K}
        o["mc"]["std"] = self.inputs["xi_std"]
        return o

    def argv(self):
        return ["run-tsm", "--preset", self.preset, "--out", self.workdir,
                "--set", "tsm.exchange_mode=file",
                "--set", f"tsm.exchange_interval={self.K}",
                "--set", f"mc.std={self.inputs['xi_std']}",
                "--set", "mc.workers=1"]

    def _run(self, cfg, quad, unit):
        t0 = clock()
        quiet_cli(self.argv())
        unit.timed("tsm_s", t0)

    def _account(self, cfg, quad, unit):
        out = os.path.join(self.workdir, "tsm")
        unit.simulated(2, manifest_steps(out))
        xpath = os.path.join(out, "exchange.tsmx")
        unit.exchange_bytes = os.path.getsize(xpath)
        unit.export_bytes = dir_bytes(self.workdir, skip=("exchange.tsmx",))
        unit.out = {"dir": out, "exchange": xpath}

    def fields(self, unit):
        uq = export.load_summary(os.path.join(unit.out["dir"], "uq_summary.npz"))
        s = self.inputs["xi_std"]
        ea, sn = checks.element_average, checks.stress_norm
        return {"d_mean": ea(uq.d_mean), "d_std_per_std": ea(uq.d_std) / s,
                "snorm_mean": ea(sn(uq.sigma_mean)),
                "snorm_std_per_std": ea(sn(uq.sigma_std)) / s,
                "force_mean": checks.thin(uq.force_mean),
                "force_std_per_std": checks.thin(uq.force_std) / s}

    def _check(self, cfg, quad, unit):
        out = self.fields(unit)
        found = checks.against_reference("ref", out, checks.load_reference(self.name))
        uq = export.load_summary(os.path.join(unit.out["dir"], "uq_summary.npz"))
        found.append(checks.no_healing("no_healing.d_mean", uq.d_mean))
        try:
            reader = tsm.ExchangeFileReader(unit.out["exchange"])
            missing = abs(reader.n_records - (unit.n_steps // self.K + 1))
        except tsm.ExchangeFormatError:
            missing = float("inf")
        else:
            unit.exchange_records = reader.n_records
        found.append(checks.Check("exchange.crc_and_records", missing, 0.0))
        return found


class DnsDet(Workload):
    name = "dns_det"
    preset = "double_notch_desk"
    XI_GRID = (-0.1, -0.05, 0.0, 0.05, 0.1)  # references exist for each
    sims = 1
    kernel = (646, 12)
    check_names = ("ref.d_elem", "ref.force_bottom", "ref.force_top",
                   "no_healing.d_elem")

    @classmethod
    def draw_inputs(cls, rng):
        return {"xi": cls.XI_GRID[int(rng.integers(len(cls.XI_GRID)))]}

    def argv(self):
        return ["run-det", "--preset", self.preset, "--out", self.workdir,
                "--xi", repr(self.inputs["xi"]), "--set", "mc.workers=1"]

    def _run(self, cfg, quad, unit):
        t0 = clock()
        quiet_cli(self.argv())
        unit.timed("det_s", t0)

    def _account(self, cfg, quad, unit):
        (out,) = glob.glob(os.path.join(self.workdir, "det_xi*"))
        unit.simulated(1, manifest_steps(out))
        unit.export_bytes = dir_bytes(self.workdir)
        unit.out = {"dir": out, "n_elements": cfg.problem.mesh.n_elements}

    def reference_name(self):
        return f"{self.name}_xi{self.inputs['xi']:+.3f}"

    def fields(self, unit):
        out, ne = unit.out["dir"], unit.out["n_elements"]
        snaps = sorted(glob.glob(os.path.join(out, "snapshot_*.vtk")))
        d = np.stack([checks.read_vtk_cell_scalar(p, "damage", ne) for p in snaps])
        return {"d_elem": d,
                "force_bottom": checks.thin(checks.read_force_csv(
                    os.path.join(out, "forces_bottom.csv"))),
                "force_top": checks.thin(checks.read_force_csv(
                    os.path.join(out, "forces_top.csv")))}

    def _check(self, cfg, quad, unit):
        out = self.fields(unit)
        found = checks.against_reference("ref", out,
                                         checks.load_reference(self.reference_name()))
        found.append(checks.no_healing("no_healing.d_elem", out["d_elem"]))
        return found


WORKLOADS = {w.name: w for w in (CoarseCampaign, PlateTsmFile, DnsDet)}


def operator_counts(quad) -> dict:
    """Exact-repeat counts of the two sparse operators, computed from the
    assembled CSR matrices.  One explicit step applies each operator once;
    a CSR product does one multiply-add per stored entry and moves the
    values, column indices, row pointers, the input and the output once."""
    out = {}
    flops = moved = 0
    for name, op in (("strain_op", quad.strain_op), ("force_op", quad.force_op)):
        stored, nnz = int(op.nnz), int(op.count_nonzero())
        out[f"solver.{name}_stored"] = stored
        out[f"solver.{name}_nnz"] = nnz
        flops += 2 * stored
        moved += (stored * (op.data.itemsize + op.indices.itemsize)
                  + op.indptr.size * op.indptr.itemsize
                  + (op.shape[0] + op.shape[1]) * 8)
    out["solver.strain_op_fill"] = (out["solver.strain_op_nnz"]
                                    / out["solver.strain_op_stored"])
    out["solver.spmv_flops_per_step"] = flops
    out["solver.spmv_bytes_per_step"] = moved
    return out


def run_identity(wl: Workload, cfg, quad, unit: Unit) -> dict:
    return {"workload": wl.name, "inputs": wl.inputs, "preset": wl.preset,
            "dt": cfg.dt, "n_steps": unit.n_steps,
            "n_elements": cfg.problem.mesh.n_elements, "n_gauss": quad.n_gauss,
            "config_hash": export.config_hash(cfg.as_dict())}
