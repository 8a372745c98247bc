"""The summary of ``scripts/bench_pairs.py``, on synthetic result lines:
medians, the ref's quartiles and the pairs won, for a metric that is
better lower and one that is better higher."""

import importlib.util
from pathlib import Path

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
    spec = [{"name": "wall_s", "unit": "s", "better": "lower"},
            {"name": "gp_steps_per_s", "unit": "1/s", "better": "higher"}]
    ref = _lines([1.0, 2.0, 3.0, 4.0, 5.0], [10.0, 10.0, 10.0, 10.0, 10.0])
    new = _lines([0.5, 2.5, 2.0, 3.0, 4.0], [11.0, 9.0, 12.0, 10.0, 13.0])
    wall, rate = bench_pairs.summary(ref, new, spec)
    assert wall.startswith("wall_s: ref median 3 s (quartiles 2 to 4), this tree 2.5 s")
    assert "(-16.7%)" in wall and wall.endswith("won 4 of 5")
    assert rate.startswith("gp_steps_per_s: ref median 10 1/s")
    assert rate.endswith("won 3 of 5")  # a tie is not a win
