"""Artifact writers: VTK legacy ASCII snapshots, CSV time series and line
tables, npz-serialized moment summaries, and reproducibility manifests.

Every writer streams into an atomic temp file (``atomic_write``): the
artifact is written to ``<path>.tmp``, which is renamed onto ``path`` once
it is complete and removed if the writer fails, so a partially written
artifact never appears under its final name and no ``.tmp`` is left behind.
Memory stays bounded whatever the artifact's size: rows of text are
formatted and written ``_BLOCK_ROWS`` at a time, and the npz goes straight
into the file, so no writer holds its whole artifact, or a list of all its
rows, in memory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import zipfile

import numpy as np
import yaml

from .mesh import Mesh
from .montecarlo import ComparisonReport, LineTable, element_average, sigma_norm
from .solver import History
from .tsm import UqSummary

_BLOCK_ROWS = 1024  # rows of text formatted and written at a time
_G = "%.17g"  # a float's text, the same as f"{v:.17g}" gives


class ArtifactFormatError(Exception):
    """A summary npz or manifest that is not one, or lacks a field."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """The file object of ``<path>.tmp``, opened with ``mode``, for a
    ``with`` body to stream into.  When the body finishes the file is
    closed and renamed onto ``path``; when it raises, the temp file is
    removed and ``path`` is left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_rows(fh, fmt: str, n_rows: int, columns) -> None:
    """Rows ``fmt % row`` for rows 0, ..., n_rows - 1, formatted and
    written ``_BLOCK_ROWS`` at a time.  ``columns(rows)`` returns the
    values of the rows in the slice ``rows``, one array per field; they
    are formatted as the Python numbers of ``tolist()``, the same text as
    formatting numpy scalars gives."""
    for lo in range(0, n_rows, _BLOCK_ROWS):
        cols = [c.tolist() for c in columns(slice(lo, min(lo + _BLOCK_ROWS, n_rows)))]
        fh.write("".join([fmt % row for row in zip(*cols)]))


def _grid(rows: slice, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the rows ``rows`` of a table with row i * n + j."""
    return np.divmod(np.arange(rows.start, rows.stop), n)


# ---------------------------------------------------------------------------
# VTK legacy ASCII
# ---------------------------------------------------------------------------


_VECTOR = f"{_G} {_G} {_G}\n"


def write_vtk(path, mesh: Mesh, point_vectors: dict | None = None,
              cell_scalars: dict | None = None, title: str = "tsmfem output"):
    """Unstructured-grid snapshot: hexahedra with nodal vector fields and
    per-element scalar fields."""
    ne = mesh.n_elements
    with atomic_write(path) as out:
        out.write("# vtk DataFile Version 3.0\n")
        out.write(title[:255] + "\n")
        out.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        out.write(f"POINTS {mesh.n_nodes} double\n")
        _write_rows(out, _VECTOR, mesh.n_nodes, lambda r: mesh.nodes[r].T)
        out.write(f"CELLS {ne} {9 * ne}\n")
        _write_rows(out, "8" + " %d" * 8 + "\n", ne, lambda r: mesh.elements[r].T)
        out.write(f"CELL_TYPES {ne}\n")
        for lo in range(0, ne, _BLOCK_ROWS):
            out.write("12\n" * min(_BLOCK_ROWS, ne - lo))

        if point_vectors:
            out.write(f"POINT_DATA {mesh.n_nodes}\n")
            for name, arr in point_vectors.items():
                out.write(f"VECTORS {name} double\n")
                arr = np.asarray(arr)
                _write_rows(out, _VECTOR, len(arr), lambda r: arr[r].T)
        if cell_scalars:
            out.write(f"CELL_DATA {ne}\n")
            for name, arr in cell_scalars.items():
                out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                arr = np.asarray(arr)
                _write_rows(out, _G + "\n", len(arr), lambda r: [arr[r]])


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


def _write_csv(path, header, fields, n_rows: int, columns) -> None:
    """A CSV file of ``n_rows`` rows whose fields have the printf formats
    ``fields``, as ``csv.writer`` writes it: comma-separated, CRLF line
    ends and, since neither the header words nor numbers hold a comma, a
    quote or a line end, nothing quoted.  ``columns`` is ``_write_rows``'s."""
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\r\n")
        _write_rows(fh, ",".join(fields) + "\r\n", n_rows, columns)


def write_force_csv(path, times, forces: np.ndarray):
    """Reaction series: time, Fx, Fy, Fz."""
    times, forces = np.asarray(times), np.asarray(forces)
    _write_csv(path, ["time", "Fx", "Fy", "Fz"], [_G] * 4, min(len(times), len(forces)),
               lambda r: [times[r], *forces[r].T])


def write_force_stats_csv(path, uq: UqSummary):
    header = ["time", "Fx_mean", "Fy_mean", "Fz_mean", "Fx_std", "Fy_std", "Fz_std"]
    _write_csv(path, header, [_G] * 7, len(uq.force_times),
               lambda r: [uq.force_times[r], *uq.force_mean[r].T, *uq.force_std[r].T])


def write_line_csv(path, table: LineTable):
    """Per-element line extraction, one row per (snapshot, path element)."""
    n = len(table.element_ids)

    def columns(rows):
        i, j = _grid(rows, n)
        return [table.times[i], table.element_ids[j], table.positions[j, 0],
                table.f_mean[i, j], table.f_std[i, j],
                table.snorm_mean[i, j], table.snorm_std[i, j]]

    header = ["time", "element", "x", "f_mean", "f_std", "stress_norm_mean", "stress_norm_std"]
    _write_csv(path, header, [_G, "%d", *[_G] * 5], len(table.times) * n, columns)


def write_comparison_csv(outdir, report: ComparisonReport):
    os.makedirs(outdir, exist_ok=True)
    S, ne = report.f_mean_abs_err.shape

    def columns(rows):
        i, e = _grid(rows, ne)
        return [report.times[i], e, report.masked[i, e].astype(int),
                report.f_mean_abs_err[i, e], report.f_std_rel_err[i, e],
                report.snorm_mean_rel_err[i, e], report.snorm_std_rel_err[i, e]]

    header = ["time", "element", "masked", "f_mean_abs_err", "f_std_rel_err",
              "snorm_mean_rel_err", "snorm_std_rel_err"]
    _write_csv(os.path.join(outdir, "comparison_elements.csv"), header,
               [_G, "%d", "%d", *[_G] * 4], S * ne, columns)
    with atomic_write(os.path.join(outdir, "comparison_summary.yaml")) as fh:
        yaml.safe_dump(report.summary, fh, sort_keys=True)


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
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **members)


def load_summary(path) -> UqSummary:
    try:
        z = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):  # not an npz, or cut short
        z = None
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise ArtifactFormatError(f"{path}: not an npz summary")
    with z:
        names = [f.name for f in dataclasses.fields(UqSummary)]
        for name in names:
            if name not in z.files:
                raise ArtifactFormatError(f"{path}: no field '{name}'")
        members = {name: z[name] for name in names}
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


def write_manifest(path, config: dict, *, command: str, kind: str, wall_times: dict,
                   seeds: dict | None = None, extra: dict | None = None):
    """Everything needed to reproduce the run, in the one schema that
    ``read_manifest`` checks: its ``kind`` (``mesh``, ``det``, ``tsm``, ``mc``
    or ``compare``), resolved config and its hash, code/library versions,
    seeds, and ``wall_times``, whose ``total`` is the run's own seconds,
    stated nowhere else."""
    import scipy

    from . import __version__

    manifest = {
        "kind": kind,
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
    with atomic_write(path) as fh:
        yaml.safe_dump(manifest, fh, sort_keys=False)


def read_manifest(path) -> dict:
    """The manifest at ``path``, checked against ``write_manifest``'s
    schema: an ``ArtifactFormatError`` names the first of ``wall_times_s``,
    a numeric ``wall_times_s.total`` and ``kind`` that it lacks."""
    with open(path) as fh:
        man = yaml.safe_load(fh)
    walls = man.get("wall_times_s") if isinstance(man, dict) else None
    if not isinstance(walls, dict):
        raise ArtifactFormatError(f"{path}: no field 'wall_times_s'")
    if not isinstance(walls.get("total"), (int, float)):
        raise ArtifactFormatError(f"{path}: no field 'wall_times_s.total'")
    if not isinstance(man.get("kind"), str):
        raise ArtifactFormatError(f"{path}: no field 'kind'")
    return man
