#!/usr/bin/env python3
"""Benchmark of tsmfem: end-to-end times with tracing off, per-layer costs
from a separate traced run.

Run from the root of a checkout (tsmfem is imported from ``src/``)::

    python3 bench/run.py --workload dns_det --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload plate_tsm_file --seed 1 --trace 1
    python3 bench/run.py --workload all --seed 1 --out BENCH_x.json

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it print every metric of the workload by name and unit,
the checks, and a ``report:`` line holding all of it, with the environment
and run identity.  The gated times are scaled to the speed of a fixed
reference kernel that runs between chunks of the work (pacer.py), because
the speed of a shared host drifts.  See bench/README.md.
"""

import os

# The program is single-threaded by design: pin every BLAS/OpenMP pool to one
# thread before numpy loads, so the numbers measure tsmfem, not the scheduler.
THREAD_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_POOLS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from pacer import Pacer, ReferenceKernel, clock  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"  # relative to ROOT; listed in .gitignore
WORKLOAD_NAMES = ("coarse_campaign", "plate_tsm_file", "dns_det")

# Set-up is timed in two windows, before and after the passes, each rep
# between two runs of the reference kernel (pacer.py).
SETUP_REPS = 10  # per window
MC_TAIL_BEYOND = 10  # samples beyond the reported tail percentile


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import tsmfem from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tsmfem", "__init__.py")):
        raise ProgramMissing(f"no tsmfem sources under {SRC}")
    sys.path.insert(0, SRC)
    import tsmfem

    if os.path.dirname(os.path.dirname(os.path.abspath(tsmfem.__file__))) != SRC:
        raise ProgramMissing(f"tsmfem imported from {tsmfem.__file__}, not {SRC}")
    return tsmfem


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment and run identity
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_hash() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tsmfem")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "thread_pools": {v: os.environ.get(v) for v in THREAD_POOLS},
        "mc_workers": 1,
        "git_commit": git_commit(),
        "src_sha256": source_hash(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Ops:
    """Operations attempted and failed: simulations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list = []

    def add_unit(self, wl, unit, found, check_sims_failed):
        self.attempted += unit.sims_planned + wl.check_sims + len(found)
        self.failed += (unit.sims_planned - unit.sims_done + check_sims_failed
                        + sum(not c.ok for c in found))
        self.checks.extend(found)

    def add_checks(self, found):
        self.attempted += len(found)
        self.failed += sum(not c.ok for c in found)
        self.checks.extend(found)


def median(values):
    return statistics.median(values) if values else None


def mc_sample_metrics(walls) -> dict:
    """Median and tail of per-realization wall times.  The tail is the
    highest percentile with MC_TAIL_BEYOND samples beyond it."""
    walls = sorted(walls)
    n = len(walls)
    out = {"mc_sample_s_p50": statistics.median(walls), "mc_samples": n}
    if n > MC_TAIL_BEYOND:
        rank = n - MC_TAIL_BEYOND  # 1-based order statistic
        out.update(mc_sample_s_tail=walls[rank - 1], mc_tail_rank=rank,
                   mc_tail_percentile=100.0 * rank / n)
    return out


def timed_setups(wl, pacer):
    """SETUP_REPS set-ups, each in its own pacer window."""
    times = []
    for _ in range(SETUP_REPS):
        with pacer.window() as win:
            cfg, quad = wl.setup()
        times.append(win)
    return times, cfg, quad


def end_to_end(units, setups, ngp, peak_rss_kb, pacer) -> dict:
    """The gated times are at the reference speed (pacer.py); the ``_raw``
    ones are the clock's."""
    pooled = {}
    for u in units:
        for k, v in u.times.items():
            pooled.setdefault(k, []).extend(v)
    m = {
        "setup_s": median([w["ref_s"] for w in setups]),
        "wall_s": median([u.ref_s for u in units]),
        "gp_steps_per_s": median([u.steps * ngp / u.ref_s for u in units]),
        "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
        "setup_raw_s": median([w["raw_s"] for w in setups]),
        "wall_raw_s": median([u.wall_s for u in units]),
        "gp_steps_per_s_raw": median([u.steps * ngp / u.wall_s for u in units]),
        "cpu_raw_s": median([u.cpu_s for u in units]),
        "host.speed": pacer.speed(),
        "host.kernel_runs": len(pacer.kernel_times),
    }
    if "tsm_s" in pooled:
        m["tsm_s"] = median(pooled["tsm_s"])
    if "det_s" in pooled:
        m["det_s"] = median(pooled["det_s"])
    if "mc_sample_s" in pooled:
        per_unit = [mc_sample_metrics(u.times["mc_sample_s"])
                    for u in units if "mc_sample_s" in u.times]
        for key in per_unit[0]:
            m[key] = median([p[key] for p in per_unit])
        m["mc_campaign_s"] = median(pooled["mc_campaign_s"])
    return m


def paper_ratios(m: dict) -> dict:
    """Not gated: a faster MC engine lowers the second one by design."""
    out = {}
    if "tsm_s" in m and "det_s" in m:
        out["tsm_over_det"] = m["tsm_s"] / m["det_s"]
    if "tsm_s" in m and "mc_campaign_s" in m:
        out["mc500_over_tsm"] = m["mc_campaign_s"] / m["mc_samples"] * 500 / m["tsm_s"]
    return out


def unit_counts(unit, ngp) -> dict:
    return {"solver.steps": unit.steps, "gp_steps": unit.steps * ngp,
            "tsm.exchange_records": unit.exchange_records,
            "tsm.exchange_bytes": unit.exchange_bytes,
            "export.bytes_written": unit.export_bytes,
            "montecarlo.samples": len(unit.times.get("mc_sample_s", []))}


def per_layer(tracer, streams, unit, traced_s, untraced_s) -> dict:
    """Per-layer metrics of the traced pass (run id 0)."""
    st = tracer.stats(run=0)
    layers = tracer.layer_self(run=0)
    steps = st["solver.advance"]["calls"]

    def calls(label):
        return st[label]["calls"] if label in st else 0

    def incl(label):
        return st[label]["incl_s"] if label in st else 0.0

    def self_(label):
        return st[label]["self_s"] if label in st else 0.0

    m = {"trace.overhead_ratio": traced_s / untraced_s, "trace.wall_s": traced_s,
         "solver.steps": steps}
    for key, label, how in (
            ("config.load_s", "config.load_config", "incl"),
            ("solver.quad_build_s", "solver.quad_build", "incl"),
            ("solver.strains_us", "solver.strains", "self_us"),
            ("solver.evaluate_self_us", "solver.evaluate", "self_us"),
            ("solver.advance_self_us", "solver.advance", "self_us"),
            ("material.stress0_us", "material.stress0", "self_us"),
            ("material.damage0_us", "material.damage0", "self_us"),
            ("material.stress1_us", "material.stress1", "self_us"),
            ("material.damage1_us", "material.damage1", "self_us"),
            ("tsm.order0_s", "tsm.run_order0", "incl"),
            ("tsm.order1_s", "tsm.run_order1", "incl"),
            ("tsm.post_s", "tsm.uq_summary", "incl"),
            ("tsm.exchange_verify_s", "tsm.exchange_verify", "incl"),
            ("montecarlo.run_mc_s", "montecarlo.run_mc", "incl"),
            ("montecarlo.statistics_s", "montecarlo.mc_statistics", "incl"),
            ("montecarlo.compare_s", "montecarlo.compare", "incl")):
        if calls(label):
            m[key] = (incl(label) if how == "incl" else self_(label) * 1e6) / calls(label)
    gen = [lab for lab in st if lab.startswith("mesh.generate_")]
    m["mesh.generate_s"] = sum(incl(g) for g in gen) / sum(calls(g) for g in gen)
    m["solver.record_self_us"] = self_("solver.run_with_kernels") / steps * 1e6
    m["solver.us_per_step"] = incl("solver.run_with_kernels") / steps * 1e6

    # exchange streams: per-record costs over all streams, sizes per stream
    records = sum(s["records"] for s in streams)
    if records:
        write = incl("tsm.exchange_write") + incl("tsm.exchange_hold")
        m["tsm.exchange_write_us"] = write / records * 1e6
        if calls("tsm.exchange_read"):
            m["tsm.exchange_read_us"] = incl("tsm.exchange_read") / records * 1e6
        file_bytes = max(s["file_bytes"] for s in streams)
        if file_bytes and "tsm.exchange_verify_s" in m:
            m["tsm.exchange_verify_mb_per_s"] = file_bytes / 1e6 / m["tsm.exchange_verify_s"]
        m["tsm.exchange_held_mb"] = max(s["held_bytes"] for s in streams) / 1e6
    m["tsm.exchange_records"] = max((s["records"] for s in streams), default=0)
    m["tsm.exchange_bytes"] = max((s["held_bytes"] + s["file_bytes"] for s in streams),
                                  default=0)
    m["montecarlo.samples"] = len(unit.times.get("mc_sample_s", []))
    m["export.write_s"] = layers.get("export", 0.0)
    m["export.bytes_written"] = unit.export_bytes
    for layer, secs in layers.items():
        m[f"{layer}.self_s"] = secs
    return m


def trace_checks(tracer, traced_s) -> list:
    import checks

    a = tracer.arrays()
    run0 = a["run"] == 0
    neg = float(-min(a["self"][run0].min(), 0.0))
    total = float(a["self"][run0].sum())
    return [checks.Check("trace.nesting_violations", tracer.nesting_violations(), 0),
            checks.Check("trace.negative_self_s", neg, 1e-9),
            checks.Check("trace.self_sum_vs_wall", abs(total - traced_s) / traced_s,
                         checks.TRACE_SUM_RTOL)]


def traced_pass(wl, ops, untraced_s):
    """One set-up and pass with every tsmfem entry point instrumented; the
    checks run after the patches are gone.  Returns the per-layer metrics
    and the tracer holding the spans."""
    import tracing

    tracer = tracing.Tracer()
    streams = tracing.instrument(tracer)
    try:
        t0 = clock()
        with tracer.root("bench.workload"):
            cfg, quad = wl.setup()
            unit = wl.run(cfg, quad)
        traced_s = clock() - t0
    finally:
        tracer.restore()
    ops.add_unit(wl, unit, *wl.check(cfg, quad, unit))
    ops.add_checks(trace_checks(tracer, traced_s))
    return per_layer(tracer, streams, unit, traced_s, untraced_s), tracer


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    from tsmfem import solver

    import workloads

    os.chdir(ROOT)
    W = workloads.WORKLOADS[name]
    wl = W(W.draw_inputs(np.random.default_rng(seed)), os.path.join(WORK, f"{name}-seed{seed}"))
    ops = Ops()
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    pacer = Pacer(ReferenceKernel(*W.kernel))
    try:
        setups, cfg, quad = timed_setups(wl, pacer)
        counts = workloads.operator_counts(quad)
        ngp = quad.n_gauss
        units = []
        t_start = clock()
        pacer.install(solver.ExplicitEngine)
        try:
            while True:
                t0 = clock()
                if trace:
                    cfg, quad = wl.setup()
                unit = wl.run(cfg, quad, pacer)
                untraced_s = clock() - t0
                ops.add_unit(wl, unit, *wl.check(cfg, quad, unit))
                units.append(unit)
                if trace or clock() - t_start + unit.wall_s > seconds:
                    break
        finally:
            pacer.uninstall()
        # the workload's peak: set-up, passes and checks, not the later set-ups
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if not trace:
            setups += timed_setups(wl, pacer)[0]
        report["run"] = workloads.run_identity(wl, cfg, quad, units[0])
        e2e = end_to_end(units, setups, ngp, peak_rss_kb, pacer)
        report["units"] = len(units)
        report["counts"] = {**counts, **unit_counts(units[0], ngp)}
        if trace:
            layer, tracer = traced_pass(wl, ops, untraced_s)
            report["per_layer"] = {**layer, **counts}
            report["trace_file"] = os.path.join(WORK, "traces", f"{name}-seed{seed}.npz")
            os.makedirs(os.path.dirname(report["trace_file"]), exist_ok=True)
            tracer.save(report["trace_file"])
        e2e["failed_ops"] = ops.failed / ops.attempted
        report["end_to_end"] = e2e
        report["paper_ratios"] = paper_ratios(e2e)
    finally:
        wl.cleanup()
    report["attempted"], report["failed"] = ops.attempted, ops.failed
    report["checks"] = [c.as_dict() for c in ops.checks]
    report["env"] = environment()
    return report


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

UNIT_SUFFIXES = (("_per_s_raw", "1/s"), ("speed", "ratio"), ("_s_p50", "s"), ("_s_tail", "s"), ("_mb_per_s", "MB/s"),
                 ("_per_s", "1/s"), ("_us", "us"), ("_s", "s"), ("_mb", "MB"),
                 ("_bytes", "B"), ("bytes_written", "B"), ("_ratio", "ratio"),
                 ("_fill", "ratio"), ("failed_ops", "ratio"), ("_percentile", "%"),
                 ("flops_per_step", "flop/step"), ("bytes_per_step", "B/step"),
                 ("over_det", "ratio"), ("over_tsm", "ratio"))


def unit_of(name: str, spec_units: dict) -> str:
    if name in spec_units:
        return spec_units[name]
    for suffix, unit in UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


def result_line(report: dict, spec: dict) -> dict:
    """The driver's line: exactly the metrics BENCHMARK.json lists."""
    section, source = (("per_layer", report.get("per_layer", {})) if report["trace"]
                       else ("end_to_end", report["end_to_end"]))
    metrics = {}
    for entry in spec[section]:
        if entry["name"] not in source:
            raise KeyError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": source[entry["name"]], "unit": entry["unit"]}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_table(report: dict, spec_units: dict):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  units {report.get('units')}")
    run = report.get("run", {})
    print(f"  run: dt={run.get('dt')} n_steps={run.get('n_steps')} "
          f"inputs={run.get('inputs')} config_hash={run.get('config_hash')}")
    for section in ("end_to_end", "paper_ratios", "counts", "per_layer"):
        if report.get(section):
            print(f"  [{section}]" + ("  (not gated)" if section == "paper_ratios" else "")
                  + ("  (computed)" if section == "counts" else ""))
            for k, v in sorted(report[section].items()):
                print(f"    {k:<34} {v:>16.6g} {unit_of(k, spec_units)}")
    bad = [c for c in report["checks"] if not c["ok"]]
    print(f"  checks: {len(report['checks']) - len(bad)}/{len(report['checks'])} ok"
          + "".join(f"\n    FAILED {c['name']}: {c['value']:.3g} > {c['bound']:.3g}"
                    for c in bad))
    print(f"  ops: attempted {report['attempted']}  failed {report['failed']}")


def spec_units(spec: dict) -> dict:
    return {e["name"]: e["unit"] for sec in ("end_to_end", "per_layer") for e in spec[sec]}


def run_all(args, spec) -> int:
    """Every workload, each in a fresh process, one after the other."""
    reports, code = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        for line in proc.stdout.splitlines():
            if line.startswith("report: "):
                reports.append(json.loads(line[len("report: "):]))
            elif not line.startswith("{"):
                print(line)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}")
            code = 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"reports": reports}, fh, indent=1, sort_keys=True)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tsmfem benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full report(s) as JSON here")
    args = ap.parse_args(argv)
    if args.out:
        args.out = os.path.abspath(args.out)
    try:
        import_program()
        spec = load_spec()
    except (ProgramMissing, OSError, ValueError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(report, spec)
    print_table(report, spec_units(spec))
    print("report: " + json.dumps(report, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"reports": [report]}, fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
