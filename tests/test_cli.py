"""Config resolution, artifact writers, and the CLI surface."""

import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import tsmfem
from tsmfem.cli import main
from tsmfem.config import ConfigError, PRESETS, load_config
from tsmfem.export import (
    config_hash,
    load_summary,
    read_manifest,
    save_summary,
    write_manifest,
    write_vtk,
)
from tsmfem.mesh import generate_plate_with_hole
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
    write_manifest(p, cfg, command="test", wall_times={"total": np.float64(1.25)},
                   seeds={"xi": 7}, extra={"kind": "det"})
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


def test_cli_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem: {preset: plate_coarse_desk}\nmc: {bogus: 1}\n")
    assert main(["run-det", "--config", str(bad)]) == 1


@pytest.mark.parametrize("setting", [
    "mc.force_stride=0", "mc.force_stride=-3", "mc.force_stride=2.5",
    "output.n_snapshots=0", "output.n_snapshots=2.5", "tsm.exchange_interval=2.7",
    "mc.n=1"])
def test_cli_rejects_bad_counts_at_config_time(tmp_path, setting):
    """A count below its minimum or not an integer stops the run before it
    starts: exit code 1 with one error line, not a traceback, a silent
    default or truncation.  ``mc.n`` goes through run-mc, which would
    otherwise run the whole ensemble before its statistics fail."""
    command = "run-mc" if setting.startswith("mc.n=") else "run-det"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsmfem.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "tsmfem.cli", command, "--preset", "plate_coarse_desk",
         "--out", str(tmp_path), "--set", setting],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert setting.split("=")[0] in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.listdir(tmp_path)


def test_cli_io_error_exit_code(tmp_path):
    assert main(["compare", "--tsm", str(tmp_path / "nope"),
                 "--mc", str(tmp_path / "nope2")]) == 3


def test_cli_instability_exit_code(tmp_path):
    out = str(tmp_path / "unstable")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run-det", "--preset", "plate_coarse_desk", "--out", out,
                     "--xi", "0", "--set", "timestep.dt=1.0",
                     "--set", "load.total_time=2000.0",
                     "--set", "material.eta=1e300"])
    assert code == 2
