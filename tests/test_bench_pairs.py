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
