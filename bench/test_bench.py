"""Self-tests of the benchmark (not of tsmfem).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_program()

import checks  # noqa: E402
import pacer  # noqa: E402
import tracing  # noqa: E402
from tsmfem import cli, montecarlo, solver  # noqa: E402
from tsmfem.config import load_config  # noqa: E402

TINY_LOAD = {"total_time": 0.0002, "ramp_end": 0.0002}
TINY = ["--preset", "plate_coarse_desk", "--set", "load.total_time=0.0002",
        "--set", "load.ramp_end=0.0002"]


def test_reference_matches_itself_and_a_perturbed_one_fails():
    names = sorted(f[:-4] for f in os.listdir(checks.REF_DIR) if f.endswith(".npz"))
    assert names, "no stored references"
    for name in names:
        ref = checks.load_reference(name)
        ops = run.Ops()
        ops.add_checks(checks.against_reference("ref", ref, ref))
        assert ops.failed == 0
        for key in ref:
            bad = {k: v.copy() for k, v in ref.items()}
            flat = bad[key].reshape(-1)
            i = int(np.argmax(np.abs(flat)))
            flat[i] += 10 * checks.REF_RTOL * abs(flat[i])
            ops = run.Ops()
            ops.add_checks(checks.against_reference("ref", ref, bad))
            assert ops.failed == 1, (name, key)
            assert ops.failed / ops.attempted > 0


def test_missing_field_and_shape_mismatch_fail():
    ref = {"a": np.ones(4), "b": np.ones((2, 2))}
    found = checks.against_reference("ref", {"b": np.ones(4)}, ref)
    assert [c.ok for c in found] == [False, False]


def test_no_healing_detects_a_decrease():
    d = np.array([[0.0, 0.1], [0.2, 0.3]])
    assert checks.no_healing("d", d).ok
    d[1, 0] = -0.05
    assert not checks.no_healing("d", d).ok


def test_mc_tail_keeps_ten_samples_beyond():
    m = run.mc_sample_metrics(np.arange(1.0, 41.0))
    assert m["mc_tail_rank"] == 30 and m["mc_tail_percentile"] == 75.0
    assert m["mc_sample_s_tail"] == 30.0
    assert m["mc_sample_s_p50"] == 20.5


class SleepKernel:
    """A stand-in reference kernel that takes about ``secs`` seconds."""

    def __init__(self, secs):
        self.secs = secs

    def __call__(self):
        t0 = time.perf_counter()
        time.sleep(self.secs)
        return time.perf_counter() - t0


def test_pacer_scales_chunks_and_leaves_the_kernel_out_of_the_clock():
    p = pacer.Pacer(SleepKernel(0.01), chunk_s=0.05, warmup=0)
    with p.window() as win:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            p.tick()
    assert p.chunks >= 4 and len(p.kernel_times) == p.chunks + 1
    wall = time.perf_counter() - t0
    assert win["raw_s"] == pytest.approx(wall - sum(p.kernel_times[1:]), abs=1e-3)
    k = statistics.median(p.kernel_times)
    assert win["ref_s"] == pytest.approx(win["raw_s"] * pacer.REFERENCE_S / k, rel=0.1)


def test_pacer_hook_leaves_results_bitwise_and_is_removed():
    cfg = load_config(overrides={"problem": {"preset": "plate_coarse_desk"},
                                 "load": TINY_LOAD})
    p = cfg.problem

    def det():
        return solver.run_deterministic(p.mesh, p.loads, p.params, 0.05, cfg.dt,
                                        cfg.snapshot_times)

    plain = det()
    orig = solver.ExplicitEngine.__dict__["advance"]
    pc = pacer.Pacer(SleepKernel(0.001), chunk_s=0.0, warmup=0)
    pc.install(solver.ExplicitEngine)
    try:
        with pc.window():
            paced = det()
    finally:
        pc.uninstall()
    assert solver.ExplicitEngine.__dict__["advance"] is orig
    assert pc.chunks >= plain.n_steps  # chunk_s=0 closes a chunk every step
    assert np.array_equal(plain.u, paced.u) and np.array_equal(plain.d, paced.d)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A tiny instrumented session: TSM through the CLI with a file
    exchange, and a two-sample MC ensemble through the API."""
    out = str(tmp_path_factory.mktemp("traced"))
    originals = (cli.main, solver.ElementQuadrature.__dict__["build"],
                 solver.run_deterministic, montecarlo.run_deterministic)
    tracer = tracing.Tracer()
    streams = tracing.instrument(tracer)
    try:
        t0 = run.clock()
        with tracer.root("bench.workload"):
            code = cli.main(["run-tsm", *TINY, "--out", out,
                             "--set", "tsm.exchange_mode=file",
                             "--set", "tsm.exchange_interval=4"])
            cfg = load_config(overrides={"problem": {"preset": "plate_coarse_desk"},
                                         "load": TINY_LOAD})
            ens = montecarlo.run_mc(cfg.problem, [0.05, -0.05], cfg.dt,
                                    cfg.snapshot_times, force_stride=8)
            montecarlo.mc_statistics(ens)
        wall = run.clock() - t0
    finally:
        tracer.restore()
    assert code == 0
    restored = (cli.main, solver.ElementQuadrature.__dict__["build"],
                solver.run_deterministic, montecarlo.run_deterministic)
    assert all(a is b for a, b in zip(originals, restored))
    return tracer, streams, wall


def test_spans_nest(traced):
    tracer, streams, _wall = traced
    assert tracer.nesting_violations() == 0
    a = tracer.arrays()
    assert (a["parent"] >= 0).sum() == len(a["parent"]) - 1  # one root
    st = tracer.stats()
    # order 0, order 1 and two MC samples: four runs of n steps each
    n_steps = int(np.ceil(0.0002 / load_config(overrides={
        "problem": {"preset": "plate_coarse_desk"}}).dt - 1e-9))
    assert st["solver.advance"]["calls"] == 4 * n_steps
    assert st["tsm.exchange_write"]["calls"] == n_steps // 4 + 1
    (stream,) = streams
    assert stream["records"] == n_steps // 4 + 1 and stream["file_bytes"] > 0
    for label in ("cli.main", "cli.run-tsm", "config.load_config",
                  "mesh.generate_plate_hole", "solver.quad_build",
                  "material.stress0", "material.stress1", "tsm.exchange_verify",
                  "tsm.exchange_read", "montecarlo.run_mc", "export.write_manifest"):
        assert st[label]["calls"] > 0, label


def test_self_times_are_non_negative_and_sum_to_the_traced_wall(traced):
    tracer, _streams, wall = traced
    a = tracer.arrays()
    assert a["self"].min() >= -1e-9
    layers = tracer.layer_self()
    assert {"bench", "cli", "config", "mesh", "solver", "material", "tsm",
            "montecarlo", "export"} <= set(layers)
    assert sum(layers.values()) == pytest.approx(a["dur"][0], rel=1e-9)
    assert abs(sum(layers.values()) - wall) / wall <= checks.TRACE_SUM_RTOL


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "dns_det",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_result_line_carries_exactly_the_listed_metrics():
    spec = run.load_spec()
    e2e = {e["name"]: 1.0 for e in spec["end_to_end"]}
    report = {"trace": 0, "failed": 0, "attempted": 3,
              "end_to_end": {**e2e, "tsm_s": 2.0}}
    line = run.result_line(report, spec)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(e2e)
    del report["end_to_end"]["wall_s"]
    with pytest.raises(KeyError):
        run.result_line(report, spec)
