"""Config resolution, artifact writers, and the CLI surface."""

import csv
import io
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import yaml

import tsmfem
from tsmfem import cli
from tsmfem.cli import main
from tsmfem.config import ConfigError, PRESETS, load_config
from tsmfem.export import (
    config_hash,
    load_summary,
    read_manifest,
    save_summary,
    write_force_csv,
    write_force_stats_csv,
    write_line_csv,
    write_manifest,
    write_vtk,
)
from tsmfem.mesh import generate_plate_with_hole
from tsmfem.montecarlo import sample_xi
from tsmfem.solver import run_deterministic


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_presets_resolve():
    for name in PRESETS:
        cfg = load_config(overrides={"problem": {"preset": name}})
        assert cfg.problem.mesh.n_elements > 0
        assert cfg.dt > 0
        assert cfg.snapshot_times[-1] == pytest.approx(cfg.problem.loads.total_time)


def test_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(overrides={})
    p = tmp_path / "c.yaml"
    p.write_text("problem:\n  preset: plate_coarse_desk\n  mesh_file: x.txt\n")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(p)


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(
        "problem: {preset: plate_coarse_desk}\nmc: {stdd: 0.2}\n")
    with pytest.raises(ConfigError, match="stdd"):
        load_config(p)


def test_config_rejects_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        load_config(overrides={"problem": {"preset": "bananas"}})


def test_config_override_wins(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("problem: {preset: plate_coarse_desk}\nmc: {n: 100}\n")
    cfg = load_config(p, overrides={"mc": {"n": 7}})
    assert cfg.mc_n == 7
    assert cfg.raw["mc"]["std"] == 0.1  # preset value survives


def test_load_config_changes_neither_presets_nor_overrides():
    """``load_config`` works on copies: a retargeted Dirichlet table
    (``load.dirichlet`` with ``load.amplitude``) rewrites neither the
    caller's rows nor the preset table, and a second load sees the same."""
    import copy

    presets_before = copy.deepcopy(PRESETS)
    rows = [dict(r) for r in PRESETS["plate_coarse_desk"]["load"]["dirichlet"]]
    overrides = {"problem": {"preset": "plate_coarse_desk"},
                 "load": {"dirichlet": rows, "amplitude": 0.002, "ramp_end": 0.004}}
    overrides_before = copy.deepcopy(overrides)
    cfg = load_config(overrides=overrides)
    assert max(r.amplitude for r in cfg.problem.loads.dirichlet) == 0.002
    assert overrides == overrides_before
    assert PRESETS == presets_before
    assert cfg.raw["load"]["dirichlet"] is not rows
    again = load_config(overrides=overrides)
    assert again.problem.loads == cfg.problem.loads


def test_config_from_mesh_file(tmp_path):
    from tsmfem.mesh import save_mesh

    mesh = generate_plate_with_hole(width=0.1, height=0.075, thickness=0.0125,
                                    hole_radius=0.03125, nx=8, ny=6)
    mp = tmp_path / "m.txt"
    save_mesh(mesh, mp)
    cfg = load_config(overrides={
        "problem": {"mesh_file": str(mp)},
        "material": {"lam": 1e9, "mu": 0.8e9, "rho": 1000.0, "eta": 4e3},
        "load": {
            "total_time": 1e-3,
            "dirichlet": [
                {"set": "symmetry_x", "axis": 0, "amplitude": 0.0, "ramp_end": 1e-3},
                {"set": "symmetry_y", "axis": 1, "amplitude": 0.0, "ramp_end": 1e-3},
                {"set": "front", "axis": 2, "amplitude": 0.0, "ramp_end": 1e-3},
                {"set": "top", "axis": 1, "amplitude": 1e-3, "ramp_end": 1e-3},
            ],
        },
    })
    assert cfg.problem.mesh.n_elements == 44


def test_config_hash_stable_and_sensitive():
    a = {"x": 1, "y": {"z": [1, 2]}}
    assert config_hash(a) == config_hash({"y": {"z": [1, 2]}, "x": 1})
    assert config_hash(a) != config_hash({"x": 2, "y": {"z": [1, 2]}})


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_vtk_structure(tmp_path):
    mesh = generate_plate_with_hole(width=0.1, height=0.075, thickness=0.0125,
                                    hole_radius=0.03125, nx=8, ny=6)
    p = tmp_path / "o.vtk"
    write_vtk(p, mesh,
              {"displacement": np.zeros((mesh.n_nodes, 3))},
              {"damage_function": np.linspace(0, 1, mesh.n_elements)})
    lines = p.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "ASCII" in lines
    assert f"POINTS {mesh.n_nodes} double" in lines
    assert f"CELLS {mesh.n_elements} {9 * mesh.n_elements}" in lines
    assert f"POINT_DATA {mesh.n_nodes}" in lines
    assert "VECTORS displacement double" in lines
    assert "SCALARS damage_function double 1" in lines
    cells_at = lines.index(f"CELL_TYPES {mesh.n_elements}")
    assert lines[cells_at + 1] == "12"  # hexahedron


# -0.0, subnormals, +-1e300, integral values and a plain decimal
_AWKWARD = np.array([-0.0, 5e-324, 1e-310, 1e300, -1e300, 3.0, -7.0, 0.1, 0.0])


def _numpy_scalar_csv(header, rows) -> str:
    """CSV text of rows already formatted as strings (csv defaults)."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def test_writers_give_the_numpy_scalar_text(tmp_path):
    """The writers format Python numbers from ``tolist()``; the text is the
    one that formatting numpy scalars row by row gives, also for -0.0,
    subnormals, +-1e300 and integral values."""
    from dataclasses import replace

    from test_tsm import _synthetic_solution
    from tsmfem.mesh import Mesh, _structured_box
    from tsmfem.montecarlo import LineTable
    from tsmfem.tsm import uq_summary

    def awkward(*shape):
        return np.resize(_AWKWARD, shape)

    nodes, elements = _structured_box(2, 1, 1, 1.0, 1.0, 1.0)
    mesh = Mesh(awkward(len(nodes), 3), elements)
    disp, cell = awkward(mesh.n_nodes, 3)[::-1], awkward(mesh.n_elements)
    write_vtk(tmp_path / "a.vtk", mesh, {"u": disp}, {"f": cell}, title="t")
    head = ["# vtk DataFile Version 3.0", "t", "ASCII", "DATASET UNSTRUCTURED_GRID",
            f"POINTS {mesh.n_nodes} double"]
    lines = (head + [f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in mesh.nodes]
             + ["CELLS 2 18"] + ["8 " + " ".join(str(int(v)) for v in e)
                                  for e in mesh.elements]
             + ["CELL_TYPES 2", "12", "12", f"POINT_DATA {mesh.n_nodes}", "VECTORS u double"]
             + [f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in disp]
             + ["CELL_DATA 2", "SCALARS f double 1", "LOOKUP_TABLE default"]
             + [f"{float(v):.17g}" for v in cell])
    text = (tmp_path / "a.vtk").read_text()
    assert text == "\n".join(lines) + "\n"
    assert "\n-0 4.9406564584124654e-324 9.9999999999999694e-311\n" in text

    times, forces = awkward(7), awkward(7, 3)
    write_force_csv(tmp_path / "f.csv", times, forces)
    assert (tmp_path / "f.csv").read_bytes().decode() == _numpy_scalar_csv(
        ["time", "Fx", "Fy", "Fz"],
        [(f"{t:.17g}", f"{f[0]:.17g}", f"{f[1]:.17g}", f"{f[2]:.17g}")
         for t, f in zip(times, forces)])

    uq = uq_summary(_synthetic_solution(0.4, 0.7, 0.01))
    F = uq.force_times.size
    uq = replace(uq, force_times=awkward(F), force_mean=awkward(F, 3),
                 force_std=awkward(F, 3)[::-1])
    write_force_stats_csv(tmp_path / "s.csv", uq)
    assert (tmp_path / "s.csv").read_bytes().decode() == _numpy_scalar_csv(
        ["time", "Fx_mean", "Fy_mean", "Fz_mean", "Fx_std", "Fy_std", "Fz_std"],
        [(f"{t:.17g}", *(f"{v:.17g}" for v in uq.force_mean[i]),
          *(f"{v:.17g}" for v in uq.force_std[i])) for i, t in enumerate(uq.force_times)])

    table = LineTable(path="p", element_ids=np.array([4, 0, 9]),
                      positions=awkward(3, 3), times=awkward(2), f_mean=awkward(2, 3),
                      f_std=awkward(2, 3)[::-1], snorm_mean=awkward(2, 3) * 3.0,
                      snorm_std=-awkward(2, 3))
    write_line_csv(tmp_path / "l.csv", table)
    assert (tmp_path / "l.csv").read_bytes().decode() == _numpy_scalar_csv(
        ["time", "element", "x", "f_mean", "f_std", "stress_norm_mean", "stress_norm_std"],
        [(f"{t:.17g}", int(eid), f"{table.positions[j, 0]:.17g}",
          f"{table.f_mean[i, j]:.17g}", f"{table.f_std[i, j]:.17g}",
          f"{table.snorm_mean[i, j]:.17g}", f"{table.snorm_std[i, j]:.17g}")
         for i, t in enumerate(table.times) for j, eid in enumerate(table.element_ids)])


def _awkward_random(rng, *shape):
    """Floats of every magnitude and sign, with the awkward values mixed in."""
    x = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    x[~np.isfinite(x)] = 1.5
    x.ravel()[:_AWKWARD.size] = _AWKWARD[:x.size]
    return x


def _g(v) -> str:
    return f"{v:.17g}"


def test_streamed_writers_cross_block_boundaries_byte_for_byte(tmp_path):
    """Every streamed writer, on 2 blocks + 1 rows, writes the bytes that
    formatting numpy scalars row by row gives: ``csv.writer`` on a
    ``StringIO`` for the CSVs, the legacy layout for VTK."""
    from dataclasses import replace

    from test_tsm import _synthetic_solution
    from tsmfem.export import _BLOCK_ROWS, write_comparison_csv
    from tsmfem.mesh import Mesh
    from tsmfem.montecarlo import ComparisonReport, LineTable
    from tsmfem.tsm import uq_summary

    rng = np.random.default_rng(17)
    n = 2 * _BLOCK_ROWS + 1
    S, m = 3, n // 3  # a grid of S * m = n rows
    assert S * m == n

    times, forces = _awkward_random(rng, n), _awkward_random(rng, n, 3)
    write_force_csv(tmp_path / "f.csv", times, forces)
    assert (tmp_path / "f.csv").read_bytes().decode() == _numpy_scalar_csv(
        ["time", "Fx", "Fy", "Fz"],
        [(_g(t), *map(_g, f)) for t, f in zip(times, forces)])

    uq = replace(uq_summary(_synthetic_solution(0.4, 0.7, 0.01)),
                 force_times=times, force_mean=forces, force_std=_awkward_random(rng, n, 3))
    write_force_stats_csv(tmp_path / "s.csv", uq)
    assert (tmp_path / "s.csv").read_bytes().decode() == _numpy_scalar_csv(
        ["time", "Fx_mean", "Fy_mean", "Fz_mean", "Fx_std", "Fy_std", "Fz_std"],
        [(_g(t), *map(_g, uq.force_mean[i]), *map(_g, uq.force_std[i]))
         for i, t in enumerate(uq.force_times)])

    table = LineTable(path="p", element_ids=rng.permutation(m),
                      positions=_awkward_random(rng, m, 3), times=_awkward_random(rng, S),
                      f_mean=_awkward_random(rng, S, m), f_std=_awkward_random(rng, S, m),
                      snorm_mean=_awkward_random(rng, S, m),
                      snorm_std=_awkward_random(rng, S, m))
    write_line_csv(tmp_path / "l.csv", table)
    assert (tmp_path / "l.csv").read_bytes().decode() == _numpy_scalar_csv(
        ["time", "element", "x", "f_mean", "f_std", "stress_norm_mean", "stress_norm_std"],
        [(_g(t), int(eid), _g(table.positions[j, 0]), _g(table.f_mean[i, j]),
          _g(table.f_std[i, j]), _g(table.snorm_mean[i, j]), _g(table.snorm_std[i, j]))
         for i, t in enumerate(table.times) for j, eid in enumerate(table.element_ids)])

    report = ComparisonReport(times=_awkward_random(rng, S), mask_threshold=0.5,
                              masked=rng.random((S, m)) < 0.5,
                              f_mean_abs_err=_awkward_random(rng, S, m),
                              f_std_rel_err=_awkward_random(rng, S, m),
                              snorm_mean_rel_err=_awkward_random(rng, S, m),
                              snorm_std_rel_err=_awkward_random(rng, S, m),
                              summary={"n": 1})
    write_comparison_csv(tmp_path / "cmp", report)
    assert (tmp_path / "cmp" / "comparison_elements.csv").read_bytes().decode() == \
        _numpy_scalar_csv(
            ["time", "element", "masked", "f_mean_abs_err", "f_std_rel_err",
             "snorm_mean_rel_err", "snorm_std_rel_err"],
            [(_g(report.times[i]), e, int(report.masked[i, e]),
              _g(report.f_mean_abs_err[i, e]), _g(report.f_std_rel_err[i, e]),
              _g(report.snorm_mean_rel_err[i, e]), _g(report.snorm_std_rel_err[i, e]))
             for i in range(S) for e in range(m)])
    assert yaml.safe_load((tmp_path / "cmp" / "comparison_summary.yaml").read_text()) == \
        {"n": 1}

    mesh = Mesh(_awkward_random(rng, n, 3), rng.integers(0, n, size=(n, 8)))
    disp, cell = _awkward_random(rng, n, 3), _awkward_random(rng, n)
    write_vtk(tmp_path / "a.vtk", mesh, {"u": disp}, {"f": cell}, title="t")
    lines = (["# vtk DataFile Version 3.0", "t", "ASCII", "DATASET UNSTRUCTURED_GRID",
              f"POINTS {n} double"] + [" ".join(map(_g, p)) for p in mesh.nodes]
             + [f"CELLS {n} {9 * n}"] + ["8 " + " ".join(str(int(v)) for v in e)
                                         for e in mesh.elements]
             + [f"CELL_TYPES {n}"] + ["12"] * n + [f"POINT_DATA {n}", "VECTORS u double"]
             + [" ".join(map(_g, v)) for v in disp]
             + [f"CELL_DATA {n}", "SCALARS f double 1", "LOOKUP_TABLE default"]
             + [_g(v) for v in cell])
    assert (tmp_path / "a.vtk").read_text() == "\n".join(lines) + "\n"
    assert not list(tmp_path.rglob("*.tmp"))


def test_force_stats_csv_memory_does_not_grow_with_length(tmp_path):
    """Writing the reaction statistics streams them a block at a time: the
    traced peak of 40,000 rows stays within 1 MB of that of 20,000 rows
    (building the whole text or a list of rows grows about 0.9 KB a row)."""
    import tracemalloc
    from dataclasses import replace

    from test_tsm import _synthetic_solution
    from tsmfem.tsm import uq_summary

    rng = np.random.default_rng(3)
    base = uq_summary(_synthetic_solution(0.4, 0.7, 0.01))

    def traced_peak(n):
        uq = replace(base, force_times=np.arange(n) * 0.1, force_mean=rng.random((n, 3)),
                     force_std=rng.random((n, 3)))
        tracemalloc.start()
        try:
            write_force_stats_csv(tmp_path / f"s{n}.csv", uq)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(20_000), traced_peak(40_000)
    assert large - small < 1e6, (small, large)


def test_a_writer_that_fails_midway_leaves_no_file(tmp_path):
    """A writer that raises after its first block leaves neither the
    artifact nor its temp file; an artifact already there is kept as it
    was."""
    from dataclasses import replace

    from test_tsm import _synthetic_solution
    from tsmfem import export
    from tsmfem.tsm import uq_summary

    class FailingSecondBlock(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, slice) and key.start >= export._BLOCK_ROWS:
                raise RuntimeError("failed midway")
            return super().__getitem__(key)

    n = 2 * export._BLOCK_ROWS + 1
    uq = replace(uq_summary(_synthetic_solution(0.4, 0.7, 0.01)),
                 force_times=np.arange(n) * 0.1, force_mean=np.ones((n, 3)),
                 force_std=np.ones((n, 3)).view(FailingSecondBlock))
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_text("old\n")
    for path in (fresh, kept):
        with pytest.raises(RuntimeError, match="failed midway"):
            write_force_stats_csv(path, uq)
    assert not fresh.exists()
    assert kept.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]


def test_summary_npz_round_trip(tmp_path):
    from test_tsm import _synthetic_solution
    from tsmfem.tsm import uq_summary

    uq = uq_summary(_synthetic_solution(0.4, 0.7, 0.01))
    p = tmp_path / "s.npz"
    save_summary(p, uq)
    back = load_summary(p)
    for f in ("times", "d_mean", "d_std", "f_mean", "f_std", "sigma_mean",
              "sigma_std", "force_times", "force_mean", "force_std"):
        assert np.array_equal(getattr(uq, f), getattr(back, f))
    assert back.force_set == uq.force_set
    assert back.meta["method"] == "tsm"


def test_manifest_round_trip(tmp_path):
    p = tmp_path / "manifest.yaml"
    cfg = {"a": 1, "b": {"c": np.float64(2.5)}}
    write_manifest(p, cfg, command="test", kind="det",
                   wall_times={"total": np.float64(1.25)}, seeds={"xi": 7})
    man = read_manifest(p)
    assert man["config"]["b"]["c"] == 2.5
    assert man["config_sha256"] == config_hash(cfg)
    assert man["wall_times_s"]["total"] == 1.25
    assert man["kind"] == "det"
    assert "tsmfem" in man["versions"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli"))
    base = ["--preset", "plate_coarse_desk", "--out", out,
            "--set", "output.n_snapshots=3"]
    assert main(["run-det", *base, "--xi", "0"]) == 0
    assert main(["run-tsm", *base, "--set", "tsm.exchange_interval=50"]) == 0
    assert main(["run-mc", *base, "--set", "mc.n=4", "--set", "mc.force_stride=4"]) == 0
    return out


def test_cli_mesh_gen(tmp_path):
    out = str(tmp_path / "m")
    assert main(["mesh-gen", "--preset", "double_notch", "--out", out]) == 0
    man = read_manifest(os.path.join(out, "manifest.yaml"))
    assert man["n_elements"] == 646
    from tsmfem.mesh import load_mesh
    assert load_mesh(os.path.join(out, "mesh.txt")).n_elements == 646


def test_cli_det_and_tsm_order0_artifacts_identical(cli_artifacts):
    """The xi=0 deterministic reaction series and the order-0 mean series of
    the staggered run are written from bitwise-identical histories."""
    out = cli_artifacts
    det = np.genfromtxt(os.path.join(out, "det_xi+0", "forces_top.csv"),
                        delimiter=",", names=True)
    tsm = np.genfromtxt(os.path.join(out, "tsm", "forces_stats.csv"),
                        delimiter=",", names=True)
    assert np.array_equal(det["time"], tsm["time"])
    assert np.array_equal(det["Fy"], tsm["Fy_mean"])


def test_cli_compare_and_timing(cli_artifacts, tmp_path):
    out = cli_artifacts
    cdir = str(tmp_path / "cmp")
    assert main(["compare", "--tsm", os.path.join(out, "tsm"),
                 "--mc", os.path.join(out, "mc"), "--out", cdir]) == 0
    summary = yaml.safe_load(open(os.path.join(cdir, "comparison_summary.yaml")))
    assert "f_mean_abs_err_max" in summary
    assert summary["n_masked"] + summary["n_unmasked"] > 0

    tfile = str(tmp_path / "timing.txt")
    assert main(["report-timing", os.path.join(out, "det_xi+0"),
                 os.path.join(out, "tsm"), os.path.join(out, "mc"),
                 "--out", tfile]) == 0
    text = open(tfile).read()
    assert "speedup mc / tsm" in text


def test_every_cli_manifest_reads_back_its_kind_and_total(cli_artifacts, tmp_path, capsys):
    """The manifest of each command, run-tsm in both exchange modes, passes
    ``read_manifest`` with its kind and a numeric ``wall_times_s.total``,
    and ``report-timing`` lists a ``mesh-gen`` directory as a ``mesh`` row
    with its own seconds."""
    short = ["--preset", "plate_coarse_desk", "--set", "load.total_time=0.001",
             "--set", "load.ramp_end=0.001"]
    mdir, fdir, cdir = (str(tmp_path / name) for name in ("mesh", "file", "cmp"))
    assert main(["mesh-gen", *short, "--out", mdir]) == 0
    assert main(["run-tsm", *short, "--out", fdir, "--set", "tsm.exchange_mode=file",
                 "--set", "tsm.exchange_interval=1"]) == 0
    assert main(["compare", "--tsm", os.path.join(cli_artifacts, "tsm"),
                 "--mc", os.path.join(cli_artifacts, "mc"), "--out", cdir]) == 0
    kinds = {mdir: "mesh", os.path.join(fdir, "tsm"): "tsm", cdir: "compare",
             **{os.path.join(cli_artifacts, run): kind
                for run, kind in (("det_xi+0", "det"), ("tsm", "tsm"), ("mc", "mc"))}}
    for run_dir, kind in kinds.items():
        man = read_manifest(os.path.join(run_dir, "manifest.yaml"))
        assert man["kind"] == kind, run_dir
        assert isinstance(man["wall_times_s"]["total"], float), run_dir
        assert man["wall_times_s"]["total"] > 0.0, run_dir
    total = read_manifest(os.path.join(mdir, "manifest.yaml"))["wall_times_s"]["total"]
    capsys.readouterr()
    assert main(["report-timing", mdir]) == 0
    assert capsys.readouterr().out.splitlines()[2] == f"mesh  total {total:10.2f} s   {mdir}"


@pytest.mark.parametrize("tsm_run, mc_run, role, kind", [("mc", "tsm", "tsm", "mc"),
                                                        ("tsm", "tsm", "mc", "tsm"),
                                                        ("det_xi+0", "mc", "tsm", "det"),
                                                        ("tsm", "det_xi+0", "mc", "det")])
def test_compare_rejects_a_run_in_the_wrong_role(cli_artifacts, tmp_path, capsys,
                                                 tsm_run, mc_run, role, kind):
    """``--tsm`` must name a ``tsm`` run and ``--mc`` an ``mc`` run: a run
    in the other role, a ``run-det`` directory, which holds no summary,
    included, exits 1 with one error line naming the directory, its kind
    and the kind expected, read from the manifests before any summary and
    before anything is written."""
    dirs = {"tsm": os.path.join(cli_artifacts, tsm_run), "mc": os.path.join(cli_artifacts, mc_run)}
    cdir = tmp_path / "cmp"
    capsys.readouterr()
    assert main(["compare", "--tsm", dirs["tsm"], "--mc", dirs["mc"], "--out", str(cdir)]) == 1
    assert capsys.readouterr().err == \
        f"error: --{role} {dirs[role]}: a '{kind}' run, expected a '{role}' run\n"
    assert not cdir.exists()


def test_report_timing_lists_compare_as_a_row_of_its_own(cli_artifacts, tmp_path, capsys):
    """A ``compare`` directory is one more row, its kind and its own
    seconds, and leaves the tsm / det and mc / tsm ratio lines as they
    read without it."""
    runs = [os.path.join(cli_artifacts, d) for d in ("det_xi+0", "tsm", "mc")]
    cdir = str(tmp_path / "cmp")
    assert main(["compare", "--tsm", runs[1], "--mc", runs[2], "--out", cdir]) == 0
    man = read_manifest(os.path.join(cdir, "manifest.yaml"))
    assert man["kind"] == "compare" and man["wall_times_s"]["total"] > 0.0
    capsys.readouterr()
    assert main(["report-timing", *runs]) == 0
    without = capsys.readouterr().out.splitlines()
    assert main(["report-timing", *runs, cdir]) == 0
    row = f"compare  total {man['wall_times_s']['total']:10.2f} s   {cdir}"
    assert capsys.readouterr().out.splitlines() == [*without[:5], row, *without[5:]]
    assert [line.split("=")[0] for line in without[5:]] == ["tsm / det        ",
                                                            "speedup mc / tsm "]


def test_cli_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem: {preset: plate_coarse_desk}\nmc: {bogus: 1}\n")
    assert main(["run-det", "--config", str(bad)]) == 1


def test_mc_workers_above_the_cpu_count_rejected_at_config_time(monkeypatch, tmp_path):
    """A pool starts all its processes at once, so ``mc.workers`` above
    ``os.cpu_count()`` is a config error, exit code 1, before any run: a
    run that got past the config would reach the stand-in ``run_mc``."""
    too_many = (os.cpu_count() or 1) + 1
    preset = {"preset": "plate_coarse_desk"}
    with pytest.raises(ConfigError, match="mc.workers must be in"):
        load_config(overrides={"problem": preset, "mc": {"workers": too_many}})
    load_config(overrides={"problem": preset, "mc": {"workers": too_many - 1}})

    def reached(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_mc", reached)
    assert main(["run-mc", "--preset", "plate_coarse_desk", "--out", str(tmp_path),
                 "--set", f"mc.workers={too_many}"]) == 1


def test_load_config_takes_every_exchange_interval_the_header_holds():
    """K up to 2**64 - 1, the exchange header's u64, passes ``load_config``
    unchanged, also past 2**53, where a float would round it; 2**64 is a
    config error."""
    preset = {"preset": "plate_coarse_desk"}
    for K in (2**53 + 1, 2**64 - 1):
        cfg = load_config(overrides={"problem": preset, "tsm": {"exchange_interval": K}})
        assert cfg.tsm.exchange_interval == K
    with pytest.raises(ConfigError, match="tsm.exchange_interval must be in"):
        load_config(overrides={"problem": preset, "tsm": {"exchange_interval": 2**64}})


@pytest.mark.parametrize("setting", [
    "mc.force_stride=0", "mc.force_stride=-3", "mc.force_stride=2.5",
    "output.n_snapshots=0", "output.n_snapshots=2.5", "tsm.exchange_interval=2.7",
    "tsm.exchange_interval=100000000000000000000",
    "mc.n=1", "mc.workers=0", "mc.workers=2.5", "mc.seed=3.7", "mc.seed=-1",
    "timestep.dt=0", "timestep.dt=-1e-6", "timestep.dt=.nan", "timestep.dt=.inf",
    "timestep.cfl_safety=.inf", "timestep.cfl_safety=0", "timestep.cfl_safety=-0.5",
    "timestep.mass_damping=-1.0", "timestep.mass_damping=.nan",
    "timestep.mass_damping=700000",
    "material.eta=.nan", "material.lam=.inf", "material.rho=0", "load.total_time=.nan",
    "mc.std=.nan", "tsm.xi_second_moment=.nan", "tsm.xi_second_moment=.inf",
    "output.snapshot_times=[.nan]", "output.snapshot_times=0.5",
    "output.snapshot_times=[0.004,0.02]", "output.snapshot_times=[-0.001]",
    "generator.width=.nan", "generator.hole_radius=.inf", "generator.nx=2.5",
    "generator.kind=foo",
    "load.amplitude=abc", "load.ramp_end=abc", "load.body_force=[1.0,0.0]",
    "load.body_force=[a,0,0]", "mc.truncation=abc",
    "load.dirichlet=[{set: top, axis: 1.9, amplitude: 0.0, ramp_end: 0.008}]",
    "load.dirichlet=[{axis: 1, amplitude: 0.0, ramp_end: 0.008}]",
    "load.dirichlet=[{set: top, amplitude: 0.0, ramp_end: 0.008}]",
    "load.dirichlet=[{set: top, axis: 1, ramp_end: 0.008}]",
    "--xi=nan", "--xi=inf", "--xi=-1"])
def test_cli_rejects_bad_counts_at_config_time(tmp_path, setting):
    """A count below its minimum or not an integer, a real input that is
    not finite or out of range, and a ``--xi`` whose 1 + xi is not finite
    and positive, stop the run before it starts: exit code 1 with one
    error line, not a traceback, a silent default or truncation.
    (``timestep.dt=0`` used to fall back to the CFL estimate,
    ``cfl_safety=.inf`` to run 0 steps, ``tsm.xi_second_moment=.nan`` to
    exit 0 with every standard deviation nan, and ``--xi nan`` and
    ``material.eta=.nan`` to exit 2 at step 64; ``generator.nx=2.5`` and
    ``generator.kind=foo`` escaped as tracebacks, and ``generator.width=.nan``
    was reported as an empty node set; a Dirichlet ``axis`` of 1.9 was
    truncated to 1, a Dirichlet row without ``set``, ``axis`` or
    ``amplitude`` escaped as a ``KeyError``, and ``load.body_force=[1.0,0.0]``
    failed in numpy after the output directory existed; a scalar
    ``output.snapshot_times`` escaped as a ``TypeError``, and a snapshot
    time past ``load.total_time`` was clamped to the last step, and
    ``timestep.mass_damping=700000``, whose damping factor
    |1 - mass_damping * dt| exceeds 1, exited 2 at step 512.)  ``mc.n`` goes through
    run-mc, which would otherwise run the whole ensemble before its
    statistics fail; ``tsm.xi_second_moment`` goes through run-tsm."""
    command = ("run-mc" if setting.startswith("mc.n=") else
               "run-tsm" if setting.startswith("tsm.xi") else "run-det")
    option = [setting] if setting.startswith("--") else ["--set", setting]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsmfem.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "tsmfem.cli", command, "--preset", "plate_coarse_desk",
         "--out", str(tmp_path), *option],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert setting.split("=")[0].lstrip("-") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.listdir(tmp_path)


def test_cli_rejects_conflicting_dirichlet_ramps(tmp_path):
    """A mesh file whose load case ramps 'top' axis 1 and holds 'all' axis 1
    at zero fails at config time in every run command: exit code 1, one
    error line, no traceback, and no output directory."""
    from tsmfem.mesh import generate_double_notch, save_mesh

    mesh = generate_double_notch(width=1, height=1, thickness=1,
                                 notch_depth=0, notch_height=0, nx=1, ny=1)
    mesh.node_sets["all"] = np.arange(mesh.n_nodes)
    save_mesh(mesh, tmp_path / "cube.mesh")
    ramps = [{"set": "bottom", "axis": a, "amplitude": 0.0, "ramp_end": 1e-3}
             for a in range(3)]
    ramps += [{"set": "top", "axis": 1, "amplitude": 0.01, "ramp_end": 1e-3},
              {"set": "all", "axis": 1, "amplitude": 0.0, "ramp_end": 1e-3}]
    cfg = tmp_path / "conflict.yaml"
    cfg.write_text(yaml.safe_dump({
        "problem": {"mesh_file": str(tmp_path / "cube.mesh")},
        "material": {"lam": 1e9, "mu": 0.8e9, "rho": 1000.0, "eta": 4e3},
        "load": {"total_time": 1e-3, "dirichlet": ramps},
    }))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsmfem.__file__)))
    for command in ("run-det", "run-tsm", "run-mc"):
        proc = subprocess.run(
            [sys.executable, "-m", "tsmfem.cli", command, "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 1, (command, proc.stderr)
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "prescribed twice with different ramps" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists(), command


def test_cli_tsm_manifest_times_are_the_histories_wall_times(tmp_path, monkeypatch):
    """The run-tsm manifest reports each order's ``History.wall_time``, which
    in-memory (lockstep) TSM attributes per order, and adds them up with
    the post-processing time."""
    import tsmfem.cli as cli

    solutions = []

    def recording_run_tsm(*args, **kwargs):
        solutions.append(cli_run_tsm(*args, **kwargs))
        return solutions[-1]

    cli_run_tsm = cli.run_tsm
    monkeypatch.setattr(cli, "run_tsm", recording_run_tsm)
    out = str(tmp_path / "out")
    assert main(["run-tsm", "--preset", "plate_coarse_desk", "--out", out,
                 "--set", "load.total_time=0.001", "--set", "load.ramp_end=0.001",
                 "--set", "tsm.exchange_interval=1"]) == 0
    (sol,) = solutions
    walls = read_manifest(os.path.join(out, "tsm", "manifest.yaml"))["wall_times_s"]
    assert walls["order0"] == sol.history0.wall_time > 0.0
    assert walls["order1"] == sol.history1.wall_time > 0.0
    assert walls["total"] == walls["order0"] + walls["order1"] + walls["post"]
    # order 1 ran in this process, which reports the one peak
    rss = read_manifest(os.path.join(out, "tsm", "manifest.yaml"))["peak_rss_mb"]
    assert rss["parent"] > 0.0 and rss["order1"] is None


def test_cli_tsm_manifest_without_the_resource_module(tmp_path, monkeypatch):
    """Where ``resource`` cannot be imported (outside POSIX), run-tsm still
    writes its manifest, with no peak memory."""
    monkeypatch.setitem(sys.modules, "resource", None)  # import raises ImportError
    out = str(tmp_path / "out")
    assert main(["run-tsm", "--preset", "plate_coarse_desk", "--out", out,
                 "--set", "load.total_time=0.001", "--set", "load.ramp_end=0.001",
                 "--set", "tsm.exchange_interval=1"]) == 0
    rss = read_manifest(os.path.join(out, "tsm", "manifest.yaml"))["peak_rss_mb"]
    assert rss == {"parent": None, "order1": None}
    assert main(["run-det", "--preset", "plate_coarse_desk", "--out", out,
                 "--set", "load.total_time=0.001", "--set", "load.ramp_end=0.001"]) == 0
    assert read_manifest(os.path.join(out, "det_xi+0", "manifest.yaml"))["peak_rss_mb"] is None


def test_cli_manifests_record_the_product_form(cli_artifacts):
    """run-det, run-tsm and run-mc name the form of the element products,
    as the two forms differ at roundoff: plate_coarse_desk has one element
    shape."""
    for run in ("det_xi+0", "tsm", "mc"):
        man = read_manifest(os.path.join(cli_artifacts, run, "manifest.yaml"))
        assert man["product"] == "element_gemm", run


def test_cli_det_and_mc_manifests_record_this_process_peak_rss(cli_artifacts):
    """run-det and run-mc record this process's peak memory, as run-tsm
    records the parent's."""
    for run in ("det_xi+0", "mc"):
        man = read_manifest(os.path.join(cli_artifacts, run, "manifest.yaml"))
        assert isinstance(man["peak_rss_mb"], float) and man["peak_rss_mb"] > 0.0, run


@pytest.mark.parametrize("platform, unit", [("linux", 1024), ("darwin", 1)])
def test_peak_rss_reads_the_platforms_unit(monkeypatch, platform, unit):
    """``ru_maxrss`` is kilobytes on Linux and bytes on macOS."""
    import types

    from tsmfem.tsm import peak_rss_mb

    usage = types.SimpleNamespace(ru_maxrss=2_000_000)
    fake = types.SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage)
    monkeypatch.setitem(sys.modules, "resource", fake)
    monkeypatch.setattr(sys, "platform", platform)
    assert peak_rss_mb() == 2_000_000 * unit / 1e6


def test_cli_tsm_file_mode_manifest_keeps_the_wait_out_of_the_cost(tmp_path, monkeypatch):
    """In file mode order 1 runs in a child process, behind order 0: the
    manifest reports the time it waited for order 0's records as
    ``order1_wait``, outside ``order1`` and ``total``, and the run's wall
    clock as ``elapsed``."""
    import tsmfem.cli as cli

    solutions = []

    def recording_run_tsm(*args, **kwargs):
        solutions.append(cli_run_tsm(*args, **kwargs))
        return solutions[-1]

    cli_run_tsm = cli.run_tsm
    monkeypatch.setattr(cli, "run_tsm", recording_run_tsm)
    out = str(tmp_path / "out")
    assert main(["run-tsm", "--preset", "plate_coarse_desk", "--out", out,
                 "--set", "load.total_time=0.001", "--set", "load.ramp_end=0.001",
                 "--set", "tsm.exchange_interval=1", "--set", "tsm.exchange_mode=file"]) == 0
    (sol,) = solutions
    walls = read_manifest(os.path.join(out, "tsm", "manifest.yaml"))["wall_times_s"]
    assert walls["order0"] == sol.history0.wall_time > 0.0
    assert walls["order1"] == sol.history1.wall_time > 0.0
    assert walls["order1_wait"] == sol.order1_wait >= 0.0
    assert walls["total"] == walls["order0"] + walls["order1"] + walls["post"]
    # order 1's cost and its wait both happened inside the run
    assert walls["order1"] + walls["order1_wait"] <= walls["elapsed"]
    # each process reports its own peak memory
    rss = read_manifest(os.path.join(out, "tsm", "manifest.yaml"))["peak_rss_mb"]
    assert rss.keys() == {"parent", "order1"}
    assert rss["parent"] > 0.0 and rss["order1"] == sol.order1_peak_rss_mb > 0.0


def test_cli_tsm_post_processing_holds_each_field_once(tmp_path, monkeypatch):
    """From run_tsm's return to the end of run-tsm (file mode), the traced
    peak stays within the two histories, the summary's new arrays (<f> and
    the four Std fields; its means are order 0's own arrays) and a slack of
    0.4 MB for one text block of ``export._BLOCK_ROWS`` rows in flight,
    because the solution is released before the export.  Copying the
    means and holding the solution through the export peaks about 1.1 MB
    higher here."""
    import tracemalloc

    import tsmfem.cli as cli

    def nbytes(h):
        return sum(a.nbytes for a in (h.times, h.u, h.d, h.sigma, h.force_times,
                                      *h.forces.values()))

    seen = {}

    def traced_run_tsm(*args, **kwargs):
        seen["before"] = tracemalloc.get_traced_memory()[0]
        sol = cli_run_tsm(*args, **kwargs)
        h0, h1 = sol.history0, sol.history1
        seen["held"] = nbytes(h0) + nbytes(h1)
        loaded = h0.forces[sorted(h0.meta["loaded_sets"])[0]]
        seen["new"] = 3 * h0.d.nbytes + h0.sigma.nbytes + loaded.nbytes
        tracemalloc.reset_peak()
        return sol

    cli_run_tsm = cli.run_tsm
    monkeypatch.setattr(cli, "run_tsm", traced_run_tsm)
    tracemalloc.start()
    try:
        assert main(["run-tsm", "--preset", "plate_coarse_desk", "--out", str(tmp_path),
                     "--set", "tsm.exchange_mode=file",
                     "--set", "tsm.exchange_interval=4"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - seen["before"]
    finally:
        tracemalloc.stop()
    assert peak <= seen["held"] + seen["new"] + 0.4e6, (peak, seen)


@pytest.mark.parametrize("command, setting", [("run-mc", "mc.workers=2"),
                                              ("run-tsm", "tsm.exchange_mode=file")])
def test_cli_unstable_run_prints_one_error_line(tmp_path, command, setting):
    """A diverging run in a worker or in the order-1 process exits 2 with
    its one error line on stderr, and no numpy warnings before it."""
    unstable = ["--set", "timestep.dt=1.0", "--set", "timestep.mass_damping=0",
                "--set", "load.total_time=2000.0", "--set", "material.eta=1e300",
                "--set", "mc.n=4", "--set", setting]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsmfem.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "tsmfem.cli", command, "--preset", "plate_coarse_desk",
         "--out", str(tmp_path), *unstable],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: non-finite state at step "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_cli_io_error_exit_code(tmp_path):
    assert main(["compare", "--tsm", str(tmp_path / "nope"),
                 "--mc", str(tmp_path / "nope2")]) == 3


def _manifest_without_wall_times(src, dst):
    man = yaml.safe_load(open(os.path.join(src, "manifest.yaml")))
    del man["wall_times_s"]
    with open(os.path.join(dst, "manifest.yaml"), "w") as fh:
        yaml.safe_dump(man, fh)


def _manifest_without_total(src, dst):
    shutil.copy(os.path.join(src, "uq_summary.npz"), dst)
    man = yaml.safe_load(open(os.path.join(src, "manifest.yaml")))
    del man["wall_times_s"]["total"]
    with open(os.path.join(dst, "manifest.yaml"), "w") as fh:
        yaml.safe_dump(man, fh)


def _manifest_without_kind(src, dst):
    man = yaml.safe_load(open(os.path.join(src, "manifest.yaml")))
    del man["kind"]
    with open(os.path.join(dst, "manifest.yaml"), "w") as fh:
        yaml.safe_dump(man, fh)


def _summary_without_d_mean(src, dst):
    shutil.copy(os.path.join(src, "manifest.yaml"), dst)
    with np.load(os.path.join(src, "uq_summary.npz")) as z:
        members = {name: z[name] for name in z.files if name != "d_mean"}
    np.savez(os.path.join(dst, "uq_summary.npz"), **members)


def _not_an_npz(src, dst):
    shutil.copy(os.path.join(src, "manifest.yaml"), dst)
    with open(os.path.join(dst, "uq_summary.npz"), "w") as fh:
        fh.write("time,d\n0.0,0.0\n")


# (command, what the broken artifact lacks, its file, how it is made from run-tsm's)
_MALFORMED = {
    "report_timing_manifest_without_wall_times":
        ("report-timing", "no field 'wall_times_s'", "manifest.yaml",
         _manifest_without_wall_times),
    "report_timing_manifest_without_kind":
        ("report-timing", "no field 'kind'", "manifest.yaml", _manifest_without_kind),
    "report_timing_manifest_without_total":
        ("report-timing", "no field 'wall_times_s.total'", "manifest.yaml",
         _manifest_without_total),
    "report_timing_empty_manifest":
        ("report-timing", "no field 'wall_times_s'", "manifest.yaml",
         lambda src, dst: open(os.path.join(dst, "manifest.yaml"), "w").close()),
    "compare_summary_without_d_mean":
        ("compare", "no field 'd_mean'", "uq_summary.npz", _summary_without_d_mean),
    "compare_manifest_without_total":
        ("compare", "no field 'wall_times_s.total'", "manifest.yaml", _manifest_without_total),
    "compare_summary_that_is_not_an_npz":
        ("compare", "not an npz summary", "uq_summary.npz", _not_an_npz),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_cli_malformed_artifact_exits_3_naming_file_and_field(cli_artifacts, tmp_path,
                                                              capsys, case):
    """A manifest or summary that lacks what the command reads, or is not
    one, exits 3 (a file-format error) with one error line naming the file
    and the missing field, not a traceback or exit 1."""
    command, lacks, name, make = _MALFORMED[case]
    broken = tmp_path / "broken"
    broken.mkdir()
    make(os.path.join(cli_artifacts, "tsm"), str(broken))
    argv = (["report-timing", str(broken)] if command == "report-timing" else
            ["compare", "--tsm", str(broken), "--mc", os.path.join(cli_artifacts, "mc"),
             "--out", str(tmp_path / "cmp")])
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {broken / name}: {lacks}\n"


def test_plate_study_script_smoke(tmp_path):
    """``scripts/run_plate_study.py``, as README documents it, with a
    two-sample ensemble: it exits 0 and writes the timing table and the
    comparison summary."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                          "run_plate_study.py")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsmfem.__file__)))
    proc = subprocess.run([sys.executable, script, "--out", str(tmp_path), "--mc-n", "2"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "timing.txt").is_file()
    assert (tmp_path / "compare" / "comparison_summary.yaml").is_file()


def test_cli_run_mc_instability_in_a_worker_names_the_sample(tmp_path):
    """An ensemble that diverges in a worker process exits 2 with one error
    line naming the first sample, as with one worker, not with a broken
    process pool's traceback and exit code 1."""
    unstable = ["--set", "timestep.dt=1.0", "--set", "timestep.mass_damping=0",
                "--set", "load.total_time=2000.0", "--set", "material.eta=1e300",
                "--set", "mc.n=4"]
    cfg = load_config(overrides={"problem": {"preset": "plate_coarse_desk"}})
    first = sample_xi(cfg.xi_dist, 4)[0]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsmfem.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "tsmfem.cli", "run-mc", "--preset", "plate_coarse_desk",
         "--out", str(tmp_path), *unstable, "--set", "mc.workers=2"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    # the error is the one last line
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
    assert errors == proc.stderr.splitlines()[-1:], proc.stderr
    assert f"(sample xi={first:.6g})" in errors[0]
    assert "Traceback" not in proc.stderr


def test_cli_instability_exit_code(tmp_path):
    out = str(tmp_path / "unstable")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run-det", "--preset", "plate_coarse_desk", "--out", out,
                     "--xi", "0", "--set", "timestep.dt=1.0",
                     "--set", "timestep.mass_damping=0",
                     "--set", "load.total_time=2000.0",
                     "--set", "material.eta=1e300"])
    assert code == 2
