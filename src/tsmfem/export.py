"""Artifact writers: VTK legacy ASCII snapshots, CSV time series and line
tables, npz-serialized moment summaries, and reproducibility manifests.

All writers go through an atomic temp-file + rename so partially written
artifacts never appear under their final name.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import os

import numpy as np
import yaml

from .mesh import Mesh
from .montecarlo import ComparisonReport, LineTable, element_average, sigma_norm
from .solver import History
from .tsm import UqSummary


def atomic_write(path, data: str | bytes):
    """Write text or bytes via a temporary file renamed onto ``path``."""
    mode = "wb" if isinstance(data, bytes) else "w"
    tmp = f"{path}.tmp"
    with open(tmp, mode) as fh:
        fh.write(data)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# VTK legacy ASCII
# ---------------------------------------------------------------------------


def _vector_lines(arr) -> str:
    """Rows of an (n, 3) array as "x y z" lines; numbers are formatted as
    Python floats from ``tolist()``, the same text as numpy scalars give."""
    return "".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in np.asarray(arr).tolist())


def write_vtk(path, mesh: Mesh, point_vectors: dict | None = None,
              cell_scalars: dict | None = None, title: str = "tsmfem output"):
    """Unstructured-grid snapshot: hexahedra with nodal vector fields and
    per-element scalar fields."""
    out = io.StringIO()
    out.write("# vtk DataFile Version 3.0\n")
    out.write(title[:255] + "\n")
    out.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
    out.write(f"POINTS {mesh.n_nodes} double\n")
    out.write(_vector_lines(mesh.nodes))
    ne = mesh.n_elements
    out.write(f"CELLS {ne} {9 * ne}\n")
    out.writelines(f"8 {' '.join(map(str, e))}\n" for e in mesh.elements.tolist())
    out.write(f"CELL_TYPES {ne}\n")
    out.write("\n".join(["12"] * ne) + "\n")

    if point_vectors:
        out.write(f"POINT_DATA {mesh.n_nodes}\n")
        for name, arr in point_vectors.items():
            out.write(f"VECTORS {name} double\n")
            out.write(_vector_lines(arr))
    if cell_scalars:
        out.write(f"CELL_DATA {ne}\n")
        for name, arr in cell_scalars.items():
            out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            out.write("\n".join(f"{v:.17g}" for v in np.asarray(arr).tolist()) + "\n")
    atomic_write(path, out.getvalue())


def history_to_vtk(outdir, mesh: Mesh, hist: History):
    """One VTK file per snapshot: displacement plus cell-averaged damage,
    damage function, and stress norm."""
    os.makedirs(outdir, exist_ok=True)
    for i, t in enumerate(hist.times):
        cell = {
            "damage": element_average(hist.d[i]),
            "damage_function": element_average(np.exp(-hist.d[i])),
            "stress_norm": element_average(sigma_norm(hist.sigma[i])),
        }
        write_vtk(os.path.join(outdir, f"snapshot_{i:04d}.vtk"), mesh,
                  {"displacement": hist.u[i]}, cell, title=f"t={t:.9g}s")


def summary_to_vtk(outdir, mesh: Mesh, uq: UqSummary):
    """One VTK file per snapshot with expectation and Std cell fields."""
    os.makedirs(outdir, exist_ok=True)
    for i, t in enumerate(uq.times):
        cell = {
            "f_mean": element_average(uq.f_mean[i]),
            "f_std": element_average(uq.f_std[i]),
            "d_mean": element_average(uq.d_mean[i]),
            "d_std": element_average(uq.d_std[i]),
            "stress_norm_mean": element_average(sigma_norm(uq.sigma_mean[i])),
            "stress_norm_std": element_average(sigma_norm(uq.sigma_std[i])),
        }
        write_vtk(os.path.join(outdir, f"uq_{i:04d}.vtk"), mesh, None, cell,
                  title=f"t={t:.9g}s")


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _csv_string(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def write_force_csv(path, times, forces: np.ndarray):
    """Reaction series: time, Fx, Fy, Fz."""
    rows = [(f"{t:.17g}", f"{fx:.17g}", f"{fy:.17g}", f"{fz:.17g}")
            for t, (fx, fy, fz) in zip(np.asarray(times).tolist(),
                                       np.asarray(forces).tolist())]
    atomic_write(path, _csv_string(["time", "Fx", "Fy", "Fz"], rows))


def write_force_stats_csv(path, uq: UqSummary):
    rows = [(f"{t:.17g}", *(f"{v:.17g}" for v in mean), *(f"{v:.17g}" for v in std))
            for t, mean, std in zip(uq.force_times.tolist(), uq.force_mean.tolist(),
                                    uq.force_std.tolist())]
    header = ["time", "Fx_mean", "Fy_mean", "Fz_mean", "Fx_std", "Fy_std", "Fz_std"]
    atomic_write(path, _csv_string(header, rows))


def write_line_csv(path, table: LineTable):
    """Per-element line extraction, one row per (snapshot, path element)."""
    ids = table.element_ids.tolist()
    xs = [f"{x:.17g}" for x in table.positions[:, 0].tolist()]
    rows = []
    for t, *fields in zip(table.times.tolist(), table.f_mean.tolist(), table.f_std.tolist(),
                          table.snorm_mean.tolist(), table.snorm_std.tolist()):
        for eid, x, vals in zip(ids, xs, zip(*fields)):
            rows.append((f"{t:.17g}", eid, x, *(f"{v:.17g}" for v in vals)))
    header = ["time", "element", "x", "f_mean", "f_std", "stress_norm_mean", "stress_norm_std"]
    atomic_write(path, _csv_string(header, rows))


def write_comparison_csv(outdir, report: ComparisonReport):
    os.makedirs(outdir, exist_ok=True)
    rows = []
    S, ne = report.f_mean_abs_err.shape
    for i in range(S):
        for e in range(ne):
            rows.append((f"{report.times[i]:.17g}", e, int(report.masked[i, e]),
                         f"{report.f_mean_abs_err[i, e]:.17g}",
                         f"{report.f_std_rel_err[i, e]:.17g}",
                         f"{report.snorm_mean_rel_err[i, e]:.17g}",
                         f"{report.snorm_std_rel_err[i, e]:.17g}"))
    header = ["time", "element", "masked", "f_mean_abs_err", "f_std_rel_err",
              "snorm_mean_rel_err", "snorm_std_rel_err"]
    atomic_write(os.path.join(outdir, "comparison_elements.csv"),
                  _csv_string(header, rows))
    summary = dict(report.summary)
    if report.timings:
        summary["timings"] = report.timings
    atomic_write(os.path.join(outdir, "comparison_summary.yaml"),
                  yaml.safe_dump(summary, sort_keys=True))


# ---------------------------------------------------------------------------
# moment summaries (npz) and manifests
# ---------------------------------------------------------------------------


def save_summary(path, uq: UqSummary):
    """The summary as an uncompressed npz: full-precision float64 fields
    barely compress (to about 94%), and zlib would cost more time than
    writing the bytes."""
    members = {f.name: getattr(uq, f.name) for f in dataclasses.fields(UqSummary)}
    members["force_set"] = np.array(uq.force_set)
    members["meta"] = np.array(yaml.safe_dump(uq.meta))
    buf = io.BytesIO()
    np.savez(buf, **members)
    atomic_write(path, buf.getvalue())


def load_summary(path) -> UqSummary:
    with np.load(path, allow_pickle=False) as z:
        members = {f.name: z[f.name] for f in dataclasses.fields(UqSummary)}
    members["force_set"] = str(members["force_set"])
    members["meta"] = yaml.safe_load(str(members["meta"]))
    return UqSummary(**members)


def _plain(obj):
    """Recursively strip numpy types so yaml.safe_dump accepts the tree."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def config_hash(config: dict) -> str:
    canon = yaml.safe_dump(_plain(config), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path, config: dict, *, command: str, wall_times: dict,
                   seeds: dict | None = None, extra: dict | None = None):
    """Everything needed to reproduce the run: resolved config and its hash,
    code/library versions, seeds, and wall-clock accounting."""
    import scipy

    from . import __version__

    manifest = {
        "command": command,
        "config": _plain(config),
        "config_sha256": config_hash(config),
        "versions": {"tsmfem": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "seeds": _plain(seeds or {}),
        "wall_times_s": {k: float(v) for k, v in wall_times.items()},
    }
    if extra:
        manifest.update(_plain(extra))
    atomic_write(path, yaml.safe_dump(manifest, sort_keys=False))


def read_manifest(path) -> dict:
    with open(path) as fh:
        return yaml.safe_load(fh)
