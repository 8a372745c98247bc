"""Bitwise comparison of this tree's outputs with those of a git ref.

    python3 scripts/bitwise.py --ref <git-ref>

extracts ``<git-ref>`` with ``git archive`` into a temporary directory and
runs one protocol in each tree, each in a Python process of its own with
that tree's ``src`` first on ``PYTHONPATH`` (the working tree is "this
tree", uncommitted changes included).  The protocol:

* ``run_deterministic`` on ``plate_coarse_desk``: xi = 0 at force stride 1
  and xi = 0.15 at force stride 7;
* on ``plate_coarse_desk`` with every ramp ending at 0.37 of the total
  time, so a ramp ends inside a run and inside a block of steps:
  ``run_deterministic`` (xi = 0, force stride 3, mass damping on) and
  in-memory ``run_tsm`` (K = 7);
* ``run_tsm`` on ``plate_coarse_desk`` in both exchange modes at K = 1, 7,
  25 and 1e9, with each run's ``uq_summary``;
* ``fd_oracle`` and a serial 4-sample ``run_mc`` with its
  ``mc_statistics``, on ``plate_coarse_desk``;
* file-mode ``run_tsm`` on ``plate_hole_desk`` (K = 4) and
  ``double_notch_desk`` (K = 25);
* on ``plate_coarse_desk`` with one free node moved by 1e-3 of the
  shortest edge, so its elements take more than one shape and the CSR
  products: ``run_deterministic`` (xi = 0.15, force stride 7) and
  file-mode ``run_tsm`` (K = 7);
* the CLI's ``mesh-gen``, ``run-det``, ``run-tsm`` in both exchange modes
  and ``run-mc`` (4 samples) on ``plate_coarse_desk``, and ``mesh-gen`` on
  ``plate_hole_desk`` and ``double_notch_desk``, so each generator's
  ``mesh.txt``, its node sets' order included, is hashed.

It compares every array of every result (dtype, shape, ``np.array_equal``
and, for floats, ``signbit``), every decoded record of every exchange file
(the sha256 of its step, time, strains and damage, Gauss points in the
public order), and the sha256 of every
CLI artifact, of each npz member on its own; manifests and a summary's
``meta`` are hashed without their wall-time, elapsed and peak-RSS fields.  It prints the counts, and
exits 1 naming the first difference.

    python3 scripts/bitwise.py --ref <git-ref> --bound RTOL

checks a stated bound instead, for changes that move outputs at roundoff.
Arrays are grouped into families by the last result field on their path
(``u``, ``d``, ``sigma``, ``forces``, ``d_std``, ...; dict keys and list
indices do not count).  For each family it prints the largest
``max|a - b| / max|b|`` over its arrays, ``b`` from the ref, the run that
sets it and the largest over the other runs, and lists the
exchange records and artifacts whose sha256 changed (a hash cannot be
bounded), and names the protocol's runs whose every array, record and
artifact stayed bitwise equal.  It exits 1 naming the worst family when
that exceeds RTOL, or
naming a name that is missing, or an array that changed its dtype or
shape.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np
import yaml

REPO = Path(__file__).resolve().parents[1]
# result fields that hold timings or host facts, not outputs
_TIMING_FIELDS = {"meta", "wall_time", "order1_wait", "order1_peak_rss_mb"}


# ---------------------------------------------------------------------------
# the protocol, run in the tree whose tsmfem is imported
# ---------------------------------------------------------------------------


def _flatten(name: str, obj, arrays: dict) -> None:
    """Every array of a result, by path: dataclass fields (timings left
    out) as ``/field``, dict entries as ``[key]`` and list items as
    ``[index]``; numbers become 0-d arrays."""
    if isinstance(obj, np.ndarray):
        arrays[name] = obj
    elif isinstance(obj, (int, float, np.number)) and not isinstance(obj, bool):
        arrays[name] = np.asarray(obj)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.name not in _TIMING_FIELDS:
                _flatten(f"{name}/{f.name}", getattr(obj, f.name), arrays)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{name}[{key}]", value, arrays)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _flatten(f"{name}[{i}]", value, arrays)


def _record_digests(name: str, path, digests: dict) -> None:
    """One sha256 per decoded exchange record: step, time, then the strains
    (Gauss-point-major) and damage as float64 bytes, Gauss points moved
    from the engine's order, which the records hold, to the public order
    8 e + q by ``solver.to_public_order``.  So a change that only
    renumbers Gauss points changes no record digest."""
    from tsmfem.solver import to_public_order
    from tsmfem.tsm import ExchangeFileReader

    for i, rec in enumerate(ExchangeFileReader(path)):
        h = hashlib.sha256(f"{rec.step} {float(rec.time).hex()}".encode())
        h.update(np.ascontiguousarray(to_public_order(rec.eps), dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(to_public_order(rec.d), dtype="<f8").tobytes())
        digests[f"{name}/record{i}"] = h.hexdigest()


def _one_node_moved(mesh):
    """A copy of ``mesh`` with its first node outside every node set moved
    along x by 1e-3 of the shortest edge: its elements take more than one
    shape, so its products take the CSR form."""
    free = np.setdiff1d(np.arange(mesh.n_nodes), np.concatenate(list(mesh.node_sets.values())))
    coords = mesh.element_coords()
    nodes = mesh.nodes.copy()
    nodes[free[0], 0] += 1e-3 * np.linalg.norm(coords[:, 1] - coords[:, 0], axis=1).min()
    return dataclasses.replace(mesh, nodes=nodes)


def _timings_dropped(text: str) -> bytes:
    """A YAML document (a manifest, a summary's meta) without its wall-time,
    elapsed and peak-RSS fields, dumped with sorted keys."""
    def drop(obj):
        if isinstance(obj, dict):
            return {k: drop(v) for k, v in obj.items()
                    if not k.startswith("wall") and "peak_rss" not in k and "elapsed" not in k}
        return [drop(v) for v in obj] if isinstance(obj, list) else obj

    return yaml.safe_dump(drop(yaml.safe_load(text)), sort_keys=True).encode()


def _artifact_digests(root: Path, digests: dict) -> None:
    """The sha256 of every file under ``root``: each npz member on its own,
    manifests without timings."""
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = f"cli/{path.relative_to(root).as_posix()}"
        if path.suffix == ".npz":
            with np.load(path) as npz:
                for member in npz.files:
                    a = npz[member]
                    if member == "meta":  # a YAML string
                        h = hashlib.sha256(_timings_dropped(str(a)))
                    else:
                        h = hashlib.sha256(f"{a.dtype.str} {a.shape}".encode())
                        h.update(np.ascontiguousarray(a).tobytes())
                    digests[f"{name}:{member}"] = h.hexdigest()
        elif path.name == "manifest.yaml":
            digests[name] = hashlib.sha256(_timings_dropped(path.read_text())).hexdigest()
        else:
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()


def produce(out: Path) -> None:
    """Run the protocol with the imported tsmfem; write ``arrays.npz`` and
    ``digests.json`` into ``out``, the working directory of the CLI runs."""
    from tsmfem import cli
    from tsmfem.config import load_config
    from tsmfem.montecarlo import fd_oracle, mc_statistics, run_mc, sample_xi
    from tsmfem.solver import ElementQuadrature, run_deterministic
    from tsmfem.tsm import TsmConfig, run_tsm, uq_summary

    arrays: dict[str, np.ndarray] = {}
    digests: dict[str, str] = {}
    coarse = load_config(overrides={"problem": {"preset": "plate_coarse_desk"}})
    p, dt, times = coarse.problem, coarse.dt, coarse.snapshot_times
    quad = ElementQuadrature.build(p.mesh)
    for xi, stride in ((0.0, 1), (0.15, 7)):
        hist = run_deterministic(p.mesh, p.loads, p.params, xi, dt, times, quad=quad,
                                 force_stride=stride, mass_damping=p.mass_damping)
        _flatten(f"det/xi{xi:g}_stride{stride}", hist, arrays)

    def tsm_run(name, cfg, mode, K):
        tsm_cfg = TsmConfig(exchange_interval=K, exchange_mode=mode,
                            xi_second_moment=cfg.tsm.xi_second_moment)
        path = out / "exchange.tsmx" if mode == "file" else None
        sol = run_tsm(cfg.problem, tsm_cfg, cfg.dt, cfg.snapshot_times,
                      exchange_path=path, force_stride=cfg.force_stride)
        _flatten(name, sol, arrays)
        _flatten(f"{name}/summary", uq_summary(sol), arrays)
        if path is not None:
            _record_digests(f"exchange/{name}", path, digests)
            path.unlink()

    for mode in ("in_memory", "file"):
        for K in (1, 7, 25, 10**9):
            tsm_run(f"tsm/coarse_{mode}_K{K}", coarse, mode, K)
    mid = dataclasses.replace(p.loads, dirichlet=tuple(
        dataclasses.replace(r, ramp_end=0.37 * p.loads.total_time) for r in p.loads.dirichlet))
    early = dataclasses.replace(coarse, problem=dataclasses.replace(p, loads=mid))
    hist = run_deterministic(p.mesh, mid, p.params, 0.0, dt, times, quad=quad, force_stride=3,
                             mass_damping=p.mass_damping)
    _flatten("det/ramp_end0.37_stride3", hist, arrays)
    tsm_run("tsm/ramp_end0.37_in_memory_K7", early, "in_memory", 7)
    _flatten("fd_oracle", fd_oracle(p, 1e-3, dt, times, quad=quad), arrays)
    ens = run_mc(p, sample_xi(coarse.xi_dist, 4), dt, times, quad=quad)
    _flatten("mc/ensemble", ens, arrays)
    _flatten("mc/statistics", mc_statistics(ens), arrays)
    for preset, K in (("plate_hole_desk", 4), ("double_notch_desk", 25)):
        tsm_run(f"tsm/{preset}_file_K{K}", load_config(
            overrides={"problem": {"preset": preset}}), "file", K)
    csr = dataclasses.replace(coarse, problem=dataclasses.replace(
        p, mesh=_one_node_moved(p.mesh)))
    hist = run_deterministic(csr.problem.mesh, p.loads, p.params, 0.15, dt, times,
                             force_stride=7, mass_damping=p.mass_damping)
    _flatten("det/csr_xi0.15_stride7", hist, arrays)
    tsm_run("tsm/csr_file_K7", csr, "file", 7)

    base = ["--preset", "plate_coarse_desk"]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["mesh-gen", *base, "--out", "cli/mesh"],
                     ["run-det", *base, "--out", "cli/det"],
                     ["run-tsm", *base, "--out", "cli/tsm_mem"],
                     ["run-tsm", *base, "--out", "cli/tsm_file", "--set",
                      "tsm.exchange_mode=file", "--set", "tsm.exchange_interval=7"],
                     ["run-mc", *base, "--out", "cli/mc", "--set", "mc.n=4"],
                     ["mesh-gen", "--preset", "plate_hole_desk", "--out", "cli/mesh_plate"],
                     ["mesh-gen", "--preset", "double_notch_desk", "--out", "cli/mesh_dns"]):
            if cli.main(argv) != 0:
                raise RuntimeError(f"tsmfem {' '.join(argv)} failed")
    _artifact_digests(out / "cli", digests)
    np.savez(out / "arrays.npz", **arrays)
    (out / "digests.json").write_text(json.dumps(digests, indent=0))


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def load(out: Path) -> tuple[dict, dict]:
    """The (arrays, digests) that ``produce`` wrote into ``out``."""
    with np.load(out / "arrays.npz") as npz:
        arrays = {name: npz[name] for name in npz.files}
    return arrays, json.loads((out / "digests.json").read_text())


def counts(outputs: tuple[dict, dict]) -> dict[str, int]:
    arrays, digests = outputs
    records = sum(name.startswith("exchange/") for name in digests)
    return {"arrays": len(arrays), "exchange records": records,
            "artifact hashes": len(digests) - records}


def structural_difference(ref: tuple[dict, dict], new: tuple[dict, dict]) -> str | None:
    """The first name present in only one tree's outputs, or array whose
    dtype or shape changed, or None."""
    for kind, a, b in (("array", ref[0], new[0]), ("digest", ref[1], new[1])):
        only = [name for name in (*a, *b) if (name in a) != (name in b)]
        if only:
            side = "reference" if only[0] in a else "this tree"
            return f"{kind} {only[0]}: only in the {side}"
    for name, a in ref[0].items():
        b = new[0][name]
        if a.dtype != b.dtype:
            return f"{name}: dtype {a.dtype} != {b.dtype}"
        if a.shape != b.shape:
            return f"{name}: shape {a.shape} != {b.shape}"
    return None


def _value_difference(name: str, a: np.ndarray, b: np.ndarray) -> str | None:
    floats = a.dtype.kind == "f"
    same = a == b
    if floats:
        same |= np.isnan(a) & np.isnan(b)
        same &= np.signbit(a) == np.signbit(b)
    if same.all():
        return None
    i = tuple(int(k) for k in np.argwhere(~np.asarray(same))[0])
    x, y = a[i], b[i]
    show = (lambda v: float(v).hex()) if floats else repr
    return f"{name}: differs at index {i}: {show(x)} != {show(y)}"


def first_difference(ref: tuple[dict, dict], new: tuple[dict, dict]) -> str | None:
    """The first difference between two trees' outputs, in the protocol's
    order, or None: a name present in only one, an array's dtype, shape,
    value or sign bit, or a digest."""
    structural = structural_difference(ref, new)
    if structural is not None:
        return structural
    for name, a in ref[0].items():
        diff = _value_difference(name, a, new[0][name])
        if diff is not None:
            return diff
    for name, digest in ref[1].items():
        if new[1][name] != digest:
            return f"{name}: sha256 {digest[:12]}... != {new[1][name][:12]}..."
    return None


def family(name: str) -> str:
    """An array's family: the last result field on its path."""
    return name.rsplit("/", 1)[-1].split("[", 1)[0]


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """``max|a - b| / max|b|`` over the entries (finite ``b`` only); 0 when
    every entry is equal, NaN to NaN included; inf when an entry differs
    by a non-finite amount or ``b`` is 0."""
    a, b = a.astype(np.float64), b.astype(np.float64)
    differ = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    if not differ.any():
        return 0.0
    gap = np.abs(a - b)[differ].max()
    scale = np.abs(b[np.isfinite(b)]).max(initial=0.0)
    return float(gap / scale) if np.isfinite(gap) and scale > 0.0 else np.inf


def run_deviations(ref: dict, new: dict) -> dict[str, dict[str, float]]:
    """The largest ``relative_difference`` of each family's arrays in each
    run, by family and then run (``run_of``), in the protocol's order; both
    trees hold the same names."""
    worst: dict[str, dict[str, float]] = {}
    for name, b in ref.items():
        runs = worst.setdefault(family(name), {})
        run = run_of(name)
        runs[run] = max(runs.get(run, 0.0), relative_difference(new[name], b))
    return worst


def deviations(ref: dict, new: dict) -> dict[str, float]:
    """The largest ``relative_difference`` of each family's arrays, by
    family, in the protocol's order."""
    return {key: max(runs.values()) for key, runs in run_deviations(ref, new).items()}


def family_line(name: str, runs: dict[str, float]) -> str:
    """A family's report line from its ``run_deviations``: the largest
    deviation and the run that sets it, then the largest of the other
    runs, so one run's amplified roundoff hides no other run's."""
    ranked = sorted(runs, key=runs.get, reverse=True)
    line = f"{name}: {runs[ranked[0]]:.3g}"
    if runs[ranked[0]] > 0.0:
        line += f" in {ranked[0]}"
        if len(ranked) > 1:
            rest = runs[ranked[1]]
            line += f"; the other runs {rest:.3g}" + (f" in {ranked[1]}" if rest > 0.0 else "")
    return line


def bound_failure(worst: dict[str, float], rtol: float) -> str | None:
    """None when every family of ``deviations`` is within ``rtol``; else
    names the worst family."""
    name = max(worst, key=worst.get)
    if worst[name] > rtol:
        return f"family {name} deviates by {worst[name]:.3g} > {rtol:g}"
    return None


def changed_digests(ref: dict, new: dict) -> list[str]:
    """The digest names whose sha256 differs, in the protocol's order."""
    return [name for name, digest in ref.items() if new.get(name) != digest]


def run_of(name: str) -> str:
    """The protocol run an array or digest belongs to: its first two path
    components (one, for a name of two), an exchange record's counted as
    its run's (``exchange/tsm/x/record3`` is run ``tsm/x``)."""
    parts = name.removeprefix("exchange/").split("/")
    return "/".join(parts[:2]) if len(parts) > 2 else parts[0]


def bitwise_equal_runs(ref: tuple[dict, dict], new: tuple[dict, dict]) -> list[str]:
    """The runs, in the protocol's order, whose every array is bitwise
    equal (``first_difference``'s test) and whose every digest is
    unchanged; both trees hold the same names."""
    runs = {run_of(name): True for name in (*ref[0], *ref[1])}
    for name, a in ref[0].items():
        if _value_difference(name, a, new[0][name]) is not None:
            runs[run_of(name)] = False
    for name in changed_digests(ref[1], new[1]):
        runs[run_of(name)] = False
    return [run for run, equal in runs.items() if equal]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _extract(ref: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", ref],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _run_protocol(tree: Path, out: Path) -> None:
    """``produce`` in a fresh interpreter that imports ``tree``'s tsmfem."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--produce",
                           str(out)], cwd=out, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the protocol failed in {tree}:\n{proc.stderr}")


def _report_bound(ref: tuple[dict, dict], new: tuple[dict, dict], rtol: float) -> int:
    structural = structural_difference(ref, new)
    if structural is not None:
        print(f"DIFFERENT: {structural}")
        return 1
    worst = deviations(ref[0], new[0])
    print("largest max|a - b| / max|b| per array family, and the run that sets it:")
    for name, runs in run_deviations(ref[0], new[0]).items():
        print(f"  {family_line(name, runs)}")
    changed = changed_digests(ref[1], new[1])
    artifacts = [name for name in changed if not name.startswith("exchange/")]
    print(f"changed: {len(changed) - len(artifacts)} exchange records, "
          f"{len(artifacts)} artifact hashes")
    for name in artifacts:
        print(f"  {name}")
    equal = bitwise_equal_runs(ref, new)
    print(f"bitwise equal: {len(equal)} of {len({run_of(n) for n in (*ref[0], *ref[1])})} runs")
    for run in equal:
        print(f"  {run}")
    failure = bound_failure(worst, rtol)
    if failure is not None:
        print(f"ABOVE BOUND: {failure}")
        return 1
    print(f"within bound {rtol:g}: worst family {max(worst, key=worst.get)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ref", help="git ref to compare this tree with")
    ap.add_argument("--bound", type=float, metavar="RTOL",
                    help="check each array family's relative deviation against RTOL "
                         "instead of bitwise equality")
    ap.add_argument("--produce", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.produce is not None:
        produce(args.produce)
        return 0
    if args.ref is None:
        ap.error("--ref is required")
    with tempfile.TemporaryDirectory(prefix="bitwise-") as tmp:
        tmp = Path(tmp)
        _extract(args.ref, tmp / "ref")
        _run_protocol(tmp / "ref", tmp / "ref_out")
        _run_protocol(REPO, tmp / "this_out")
        ref, new = load(tmp / "ref_out"), load(tmp / "this_out")
    n_ref, n_new = counts(ref), counts(new)
    print(f"{args.ref}: " + ", ".join(f"{v} {k}" for k, v in n_ref.items()))
    print("this tree: " + ", ".join(f"{v} {k}" for k, v in n_new.items()))
    if args.bound is not None:
        return _report_bound(ref, new, args.bound)
    diff = first_difference(ref, new)
    if diff is not None:
        print(f"DIFFERENT: {diff}")
        return 1
    print("bitwise equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
