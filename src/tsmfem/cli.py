"""Command-line entry point: benchmark setup, runs, comparisons, timing.

Exit codes: 0 success, 1 validation error, 2 numerical instability,
3 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time as _time

import yaml

from . import export
from .config import ConfigError, PRESETS, RunConfig, load_config
from .mesh import MeshFormatError, load_mesh, save_mesh
from .montecarlo import compare, extract_line, mc_statistics, run_mc, sample_xi
from .solver import InstabilityError, check_xi, run_deterministic
from .tsm import ExchangeFormatError, peak_rss_mb, run_tsm, uq_summary


def _parse_overrides(pairs):
    """--set a.b.c=value (YAML-parsed scalars)."""
    out: dict = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got '{pair}'")
        key, val = pair.split("=", 1)
        node = out
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = yaml.safe_load(val)
    return out


def _config_from_args(args) -> RunConfig:
    overrides = _parse_overrides(getattr(args, "set", None))
    if getattr(args, "preset", None):
        overrides = {**overrides, "problem": {"preset": args.preset,
                                              **overrides.get("problem", {})}}
    if getattr(args, "out", None):
        overrides.setdefault("output", {})["dir"] = args.out
    return load_config(getattr(args, "config", None), overrides)


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _export_summary(outdir, mesh, summary) -> None:
    """Moment summary artifacts: npz, VTK, force statistics, one CSV per
    element path, and the mesh."""
    export.save_summary(os.path.join(outdir, "uq_summary.npz"), summary)
    export.summary_to_vtk(outdir, mesh, summary)
    export.write_force_stats_csv(os.path.join(outdir, "forces_stats.csv"), summary)
    for path_name in mesh.element_paths:
        table = extract_line(summary, mesh, path_name)
        export.write_line_csv(os.path.join(outdir, f"line_{path_name}.csv"), table)
    save_mesh(mesh, os.path.join(outdir, "mesh.txt"))


def cmd_mesh_gen(args) -> int:
    t0 = _time.perf_counter()
    cfg = _config_from_args(args)  # generates the mesh
    outdir = _ensure_dir(cfg.output_dir)
    mesh_path = os.path.join(outdir, "mesh.txt")
    save_mesh(cfg.problem.mesh, mesh_path)
    export.write_manifest(os.path.join(outdir, "manifest.yaml"), cfg.as_dict(),
                          command="mesh-gen", kind="mesh",
                          wall_times={"total": _time.perf_counter() - t0},
                          extra={"n_nodes": cfg.problem.mesh.n_nodes,
                                 "n_elements": cfg.problem.mesh.n_elements})
    print(f"mesh: {cfg.problem.mesh.n_elements} elements, "
          f"{cfg.problem.mesh.n_nodes} nodes -> {mesh_path}")
    return 0


def cmd_run_det(args) -> int:
    cfg = _config_from_args(args)
    xi = float(args.xi)
    check_xi(xi)
    outdir = _ensure_dir(os.path.join(cfg.output_dir, f"det_xi{xi:+g}"))
    hist = run_deterministic(cfg.problem.mesh, cfg.problem.loads,
                             cfg.problem.params, xi, cfg.dt, cfg.snapshot_times,
                             force_stride=cfg.force_stride,
                             mass_damping=cfg.problem.mass_damping)
    export.history_to_vtk(outdir, cfg.problem.mesh, hist)
    for name, series in hist.forces.items():
        export.write_force_csv(os.path.join(outdir, f"forces_{name}.csv"),
                               hist.force_times, series)
    save_mesh(cfg.problem.mesh, os.path.join(outdir, "mesh.txt"))
    export.write_manifest(os.path.join(outdir, "manifest.yaml"), cfg.as_dict(),
                          command=f"run-det --xi {xi}", kind="det",
                          wall_times={"run": hist.wall_time, "total": hist.wall_time},
                          extra={"xi": xi, "dt": cfg.dt,
                                 "n_steps": hist.n_steps, "product": hist.meta["product"],
                                 "peak_rss_mb": peak_rss_mb()})
    print(f"deterministic run (xi={xi:+g}): {hist.n_steps} steps, "
          f"{hist.wall_time:.2f}s -> {outdir}")
    return 0


def cmd_run_tsm(args) -> int:
    cfg = _config_from_args(args)
    outdir = _ensure_dir(os.path.join(cfg.output_dir, "tsm"))
    exchange_path = (os.path.join(outdir, "exchange.tsmx")
                     if cfg.tsm.exchange_mode == "file" else None)
    t0 = _time.perf_counter()
    sol = run_tsm(cfg.problem, cfg.tsm, cfg.dt, cfg.snapshot_times,
                  exchange_path=exchange_path, force_stride=cfg.force_stride)
    t1 = _time.perf_counter()
    summary = uq_summary(sol)
    # the scalars read below, so the solution can go before the export: the
    # summary's means are order 0's own arrays, and the rest of both
    # histories (displacements, order 1's fields) is freed
    wall0, wall1, wait = sol.history0.wall_time, sol.history1.wall_time, sol.order1_wait
    n_steps, product = sol.history0.n_steps, sol.history0.meta["product"]
    rss1 = sol.order1_peak_rss_mb
    del sol
    _export_summary(outdir, cfg.problem.mesh, summary)
    t2 = _time.perf_counter()
    post = t2 - t1
    # total is cost, the two orders' engine times plus post-processing;
    # elapsed is the wall clock, shorter when the orders overlap
    walls = {"order0": wall0, "order1": wall1, "order1_wait": wait, "post": post,
             "total": wall0 + wall1 + post, "elapsed": t2 - t0}
    export.write_manifest(os.path.join(outdir, "manifest.yaml"), cfg.as_dict(),
                          command="run-tsm", kind="tsm", wall_times=walls,
                          extra={"dt": cfg.dt, "n_steps": n_steps,
                                 "exchange_interval": cfg.tsm.exchange_interval,
                                 "exchange_mode": cfg.tsm.exchange_mode,
                                 "product": product,
                                 "peak_rss_mb": {"parent": peak_rss_mb(), "order1": rss1}})
    print(f"tsm: 2 runs ({wall0:.2f}s + {wall1:.2f}s, order 1 waited {wait:.2f}s) "
          f"+ post {post:.2f}s, elapsed {walls['elapsed']:.2f}s -> {outdir}")
    return 0


def cmd_run_mc(args) -> int:
    cfg = _config_from_args(args)
    outdir = _ensure_dir(os.path.join(cfg.output_dir, "mc"))
    t0 = _time.perf_counter()
    xis = sample_xi(cfg.xi_dist, cfg.mc_n)
    ens = run_mc(cfg.problem, xis, cfg.dt, cfg.snapshot_times,
                 workers=cfg.mc_workers, force_stride=cfg.force_stride)
    stats = mc_statistics(ens)
    wall = _time.perf_counter() - t0
    _export_summary(outdir, cfg.problem.mesh, stats)
    with export.atomic_write(os.path.join(outdir, "xis.csv")) as fh:
        fh.write("xi\n")
        fh.writelines(f"{x:.17g}\n" for x in xis)
    walls = {"total": float(ens.wall_times.sum()), "observed_wall": wall,
             "per_sample_mean": float(ens.wall_times.mean())}
    export.write_manifest(os.path.join(outdir, "manifest.yaml"), cfg.as_dict(),
                          command=f"run-mc (n={cfg.mc_n})", kind="mc", wall_times=walls,
                          seeds={"xi": cfg.xi_dist.seed},
                          extra={"n": cfg.mc_n, "dt": cfg.dt,
                                 "xi_second_moment_empirical": float((xis**2).mean()),
                                 "product": ens.histories[0].meta["product"],
                                 "peak_rss_mb": peak_rss_mb()})
    print(f"mc: {cfg.mc_n} runs, aggregate {walls['total']:.1f}s "
          f"(wall {wall:.1f}s, workers={cfg.mc_workers}) -> {outdir}")
    return 0


def cmd_compare(args) -> int:
    t0 = _time.perf_counter()
    for run_dir, role in ((args.tsm, "tsm"), (args.mc, "mc")):
        kind = export.read_manifest(os.path.join(run_dir, "manifest.yaml"))["kind"]
        if kind != role:
            raise ValueError(f"--{role} {run_dir}: a '{kind}' run, expected a '{role}' run")
    tsm_uq = export.load_summary(os.path.join(args.tsm, "uq_summary.npz"))
    mc_uq = export.load_summary(os.path.join(args.mc, "uq_summary.npz"))
    report = compare(tsm_uq, mc_uq, mask_threshold=float(args.mask))
    outdir = _ensure_dir(args.out or "compare")
    export.write_comparison_csv(outdir, report)

    mesh_path = os.path.join(args.tsm, "mesh.txt")
    if os.path.exists(mesh_path):
        mesh = load_mesh(mesh_path)
        for path_name in mesh.element_paths:
            for tag, uq in (("tsm", tsm_uq), ("mc", mc_uq)):
                table = extract_line(uq, mesh, path_name)
                export.write_line_csv(
                    os.path.join(outdir, f"line_{path_name}_{tag}.csv"), table)
    export.write_manifest(os.path.join(outdir, "manifest.yaml"),
                          {"tsm_dir": args.tsm, "mc_dir": args.mc,
                           "mask": float(args.mask)},
                          command="compare", kind="compare",
                          wall_times={"total": _time.perf_counter() - t0})
    for key, val in sorted(report.summary.items()):
        print(f"{key}: {val}")
    return 0


def cmd_report_timing(args) -> int:
    lines = ["timing report", "=============="]
    by_kind: dict[str, float] = {}
    for d in args.dirs:
        man = export.read_manifest(os.path.join(d, "manifest.yaml"))
        kind, total = man["kind"], man["wall_times_s"]["total"]
        lines.append(f"{kind:>4}  total {total:10.2f} s   {d}")
        by_kind.setdefault(kind, total)
    if "tsm" in by_kind and "det" in by_kind and by_kind["det"] > 0:
        lines.append(f"tsm / det        = {by_kind['tsm'] / by_kind['det']:8.2f}x")
    if "tsm" in by_kind and "mc" in by_kind and by_kind["tsm"] > 0:
        lines.append(f"speedup mc / tsm = {by_kind['mc'] / by_kind['tsm']:8.2f}x")
    text = "\n".join(lines) + "\n"
    if args.out:
        with export.atomic_write(args.out) as fh:
            fh.write(text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tsmfem",
        description="Viscous-damage explicit FEM with first-order "
                    "time-separated uncertainty propagation")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, xi=False):
        sp.add_argument("--config", help="YAML config file")
        sp.add_argument("--preset", choices=sorted(PRESETS),
                        help="built-in benchmark preset")
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry, e.g. --set mc.n=100")
        if xi:
            sp.add_argument("--xi", default=0.0,
                            help="stiffness fluctuation of this realization")

    common(sub.add_parser("mesh-gen", help="generate and save a benchmark mesh"))
    common(sub.add_parser("run-det", help="one deterministic simulation"), xi=True)
    common(sub.add_parser("run-tsm", help="order-0 + order-1 simulations and moments"))
    common(sub.add_parser("run-mc", help="Monte Carlo ensemble and statistics"))

    c = sub.add_parser("compare", help="TSM vs MC error report")
    c.add_argument("--tsm", required=True, help="run-tsm output directory")
    c.add_argument("--mc", required=True, help="run-mc output directory")
    c.add_argument("--mask", default=0.5, help="mean damage-function mask threshold")
    c.add_argument("--out", help="report directory")

    t = sub.add_parser("report-timing", help="wall-time and speedup table")
    t.add_argument("dirs", nargs="+", help="artifact directories with manifests")
    t.add_argument("--out", help="write the table to this file")
    return p


_DISPATCH = {
    "mesh-gen": cmd_mesh_gen,
    "run-det": cmd_run_det,
    "run-tsm": cmd_run_tsm,
    "run-mc": cmd_run_mc,
    "compare": cmd_compare,
    "report-timing": cmd_report_timing,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MeshFormatError, ExchangeFormatError, export.ArtifactFormatError, OSError,
            yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
