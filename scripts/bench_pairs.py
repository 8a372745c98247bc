"""Paired benchmark runs of this tree against a git ref.

    python3 scripts/bench_pairs.py --ref <git-ref> --workload <name|all> --pairs N

extracts ``<git-ref>`` with ``git archive`` into a temporary directory,
with ``scripts/bitwise.py``'s extraction, and runs ``bench/run.py --trace
0`` on the workload N times in each tree, for the benchmark's own run
length (the working tree, uncommitted changes included, is "this tree").
Pair i runs both trees on the input seed ``--seed + i``, so a claim rests
on inputs other than the one a change was tuned on.  The runs alternate
between the trees, and so does which tree runs first in a pair, so a
drift of the host's speed falls on both sides alike.  For each gated
end-to-end metric of ``BENCHMARK.json`` it prints the median of each
side, the ref's quartiles, the number of pairs this tree won (its value
better by the metric's ``better``) and a verdict:

* ``gain``: this tree won at least 9 in 10 of the pairs, and its median
  is better than the ref's by more than the ref's interquartile range;
* ``worse``: this tree's median is worse than the ref's by more than the
  metric's relative ``bound``;
* ``unresolved``: neither.

``--workload all`` runs the pairs on each workload of ``BENCHMARK.json``
in turn and prints one such table per workload.  A failed run (a nonzero
exit code, a result that is not ``correct`` or a failed operation) ends
its workload's pairs with no table; the other workloads still run, and
the script exits 1.  It writes nothing under ``bench/``; each tree's
benchmark keeps its work files in that tree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bitwise import REPO, _extract  # noqa: E402


def _run(tree: Path, workload: str, seed: int) -> dict | None:
    """The result line of one untraced benchmark run in ``tree``, or None
    when the run failed."""
    proc = subprocess.run([sys.executable, str(tree / "bench" / "run.py"),
                           "--workload", workload, "--seed", str(seed), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    line = json.loads(lines[-1])
    return line if line["correct"] and not line["failed"] else None


def pairs_won(ref: np.ndarray, new: np.ndarray, better: str) -> int:
    """The pairs i whose ``new[i]`` is better than ``ref[i]``; a tie is no win."""
    return int(np.sum(new < ref if better == "lower" else new > ref))


def verdict(ref: np.ndarray, new: np.ndarray, better: str, bound: float) -> str:
    """``gain``, ``worse`` or ``unresolved`` for one metric's paired values
    (see the module docstring)."""
    q1, q3 = np.percentile(ref, [25, 75])
    gain = np.median(ref) - np.median(new)  # > 0: new is better
    if better != "lower":
        gain = -gain
    if pairs_won(ref, new, better) >= 0.9 * len(ref) and gain > q3 - q1:
        return "gain"
    if -gain > bound * np.median(ref):
        return "worse"
    return "unresolved"


def summary(ref: list[dict], new: list[dict], spec: list[dict]) -> list[str]:
    """One line per gated metric: both medians, the ref's quartiles, the
    pairs won by ``new`` and the verdict."""
    out = []
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        a = np.array([r["metrics"][name]["value"] for r in ref])
        b = np.array([r["metrics"][name]["value"] for r in new])
        won = pairs_won(a, b, entry["better"])
        q1, q3 = np.percentile(a, [25, 75])
        out.append(f"{name}: ref median {np.median(a):.6g} {unit} (quartiles {q1:.6g} to "
                   f"{q3:.6g}), this tree {np.median(b):.6g} {unit} "
                   f"({np.median(b) / np.median(a) - 1.0:+.1%}), won {won} of {len(a)}: "
                   f"{verdict(a, b, entry['better'], entry['bound'])}")
    return out


def _pairs(trees: dict, workload: str, n: int, seed: int) -> dict | None:
    """Each side's result lines of ``n`` alternating pairs on ``workload``,
    or None when a run failed."""
    results = {"ref": [], "this": []}
    for i in range(n):
        for side in ("ref", "this") if i % 2 == 0 else ("this", "ref"):
            line = _run(trees[side], workload, seed + i)
            if line is None:
                print(f"FAILED: {workload}, pair {i + 1}, {side} run")
                return None
            results[side].append(line)
            wall = line["metrics"].get("wall_s", {}).get("value")
            print(f"{workload} pair {i + 1} (seed {seed + i}) {side}: wall_s {wall}",
                  flush=True)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ref", required=True, help="git ref to compare this tree with")
    ap.add_argument("--workload", required=True,
                    help="a workload of bench/run.py, or all of BENCHMARK.json's")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1,
                    help="the input seed of the first pair; pair i runs on seed + i")
    args = ap.parse_args(argv)
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
                 else [args.workload])
    failed = False
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"ref": Path(tmp) / "ref", "this": REPO}
        _extract(args.ref, trees["ref"])
        for workload in workloads:
            results = _pairs(trees, workload, args.pairs, args.seed)
            if results is None:
                failed = True
                continue
            print(f"{workload}, {args.pairs} pairs, {args.ref} against this tree:")
            for line in summary(results["ref"], results["this"], bench["end_to_end"]):
                print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
