"""The summary of ``scripts/bench_pairs.py``, on synthetic result lines:
medians, the ref's quartiles, the pairs won and the verdict, for a metric
that is better lower and one that is better higher."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lines(walls, rates):
    return [{"correct": True, "failed": 0,
             "metrics": {"wall_s": {"value": w, "unit": "s"},
                         "gp_steps_per_s": {"value": r, "unit": "1/s"}}}
            for w, r in zip(walls, rates)]


def test_summary_counts_pairs_won_by_each_metric_direction(bench_pairs):
    spec = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "gp_steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
    ref = _lines([1.0, 2.0, 3.0, 4.0, 5.0], [10.0, 10.0, 10.0, 10.0, 10.0])
    new = _lines([0.5, 2.5, 2.0, 3.0, 4.0], [11.0, 9.0, 12.0, 10.0, 13.0])
    wall, rate = bench_pairs.summary(ref, new, spec)
    assert wall.startswith("wall_s: ref median 3 s (quartiles 2 to 4), this tree 2.5 s")
    assert "(-16.7%)" in wall and wall.endswith("won 4 of 5: unresolved")
    assert rate.startswith("gp_steps_per_s: ref median 10 1/s")
    assert rate.endswith("won 3 of 5: unresolved")  # a tie is not a win


REF = np.array([3.0, 3.2, 3.4, 3.5, 3.5, 3.6, 3.6, 3.8, 4.0, 3.3])  # median 3.5, IQR 0.275


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_gain_needs_nine_of_ten_pairs_and_a_gap_past_the_iqr(bench_pairs, better):
    """9 of 10 pairs won and a median gap of 0.5 > IQR 0.275: a gain; one
    more lost pair, or a gap inside the IQR, leaves it unresolved."""
    sign = 1.0 if better == "lower" else -1.0
    ref = REF if better == "lower" else 7.0 - REF  # the same spread, mirrored
    faster = ref - sign * 0.5
    lost_one, lost_two = faster.copy(), faster.copy()
    lost_one[0] = lost_two[0] = ref[0] + sign * 0.1
    lost_two[1] = ref[1] + sign * 0.1
    assert bench_pairs.verdict(ref, faster, better, 0.25) == "gain"
    assert bench_pairs.verdict(ref, lost_one, better, 0.25) == "gain"
    assert bench_pairs.verdict(ref, lost_two, better, 0.25) == "unresolved"
    assert bench_pairs.verdict(ref, ref - sign * 0.25, better, 0.25) == "unresolved"


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_worse_is_a_median_past_the_bound(bench_pairs, better):
    """A median worse by 20% is within a bound of 0.25 (unresolved) and
    past a bound of 0.1 (worse), even with every pair lost."""
    ref = REF if better == "lower" else 7.0 - REF
    slower = ref * (1.2 if better == "lower" else 0.8)
    assert bench_pairs.pairs_won(ref, slower, better) == 0
    assert bench_pairs.verdict(ref, slower, better, 0.25) == "unresolved"
    assert bench_pairs.verdict(ref, slower, better, 0.1) == "worse"
    assert bench_pairs.verdict(ref, ref.copy(), better, 0.0) == "unresolved"


WORKLOADS = ["coarse_campaign", "plate_tsm_file", "dns_det"]  # BENCHMARK.json's order


@pytest.fixture
def stubbed(bench_pairs, monkeypatch):
    """``bench_pairs`` with no git extraction and a ``_run`` that records
    its calls and returns a correct result line, or None for the runs in
    ``fail`` ((workload, seed, side) triples)."""
    calls, fail = [], set()
    names = [e["name"] for e in bench_pairs.json.loads(
        (bench_pairs.REPO / "BENCHMARK.json").read_text())["end_to_end"]]

    def run(tree, workload, seed):
        side = "this" if tree == bench_pairs.REPO else "ref"
        calls.append((workload, seed, side))
        if (workload, seed, side) in fail:
            return None
        value = 1.0 if side == "ref" else 0.9
        return {"correct": True, "failed": 0,
                "metrics": {n: {"value": value + 0.01 * seed} for n in names}}

    monkeypatch.setattr(bench_pairs, "_extract", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "_run", run)
    return bench_pairs, calls, fail


def test_all_runs_the_pairs_on_every_workload_in_turn(stubbed, capsys):
    bench_pairs, calls, _fail = stubbed
    assert bench_pairs.main(["--ref", "HEAD", "--workload", "all", "--pairs", "2",
                             "--seed", "5"]) == 0
    assert calls == [(w, seed, side) for w in WORKLOADS
                     for seed, sides in ((5, ("ref", "this")), (6, ("this", "ref")))
                     for side in sides]
    out = capsys.readouterr().out
    tables = [line for line in out.splitlines() if line.endswith("against this tree:")]
    assert tables == [f"{w}, 2 pairs, HEAD against this tree:" for w in WORKLOADS]
    assert out.count("peak_rss_mb: ref median") == 3
    assert "won 2 of 2" in out


def test_a_failed_run_ends_its_workload_and_exits_1(stubbed, capsys):
    """The failed workload prints no table; the others still run."""
    bench_pairs, calls, fail = stubbed
    fail.add(("plate_tsm_file", 1, "ref"))
    assert bench_pairs.main(["--ref", "HEAD", "--workload", "all", "--pairs", "3"]) == 1
    assert [c for c in calls if c[0] == "plate_tsm_file"] == [("plate_tsm_file", 1, "ref")]
    assert sum(c[0] == "dns_det" for c in calls) == 6
    out = capsys.readouterr().out
    assert "FAILED: plate_tsm_file, pair 1, ref run" in out
    assert "plate_tsm_file, 3 pairs" not in out
    assert "coarse_campaign, 3 pairs" in out and "dns_det, 3 pairs" in out


def test_one_named_workload_runs_alone(stubbed, capsys):
    bench_pairs, calls, _fail = stubbed
    assert bench_pairs.main(["--ref", "HEAD", "--workload", "dns_det", "--pairs", "1"]) == 0
    assert calls == [("dns_det", 1, "ref"), ("dns_det", 1, "this")]
    assert capsys.readouterr().out.count("against this tree:") == 1
