"""Output checks.  Each check is one operation of the run; a check fails
when its measured value lies outside its bound.

Reference comparisons use fields written by ``make_refs.py`` from the code
at the commit that introduced the benchmark.  References are stored as
float32, element-averaged (8 Gauss points per hexahedron) and with reaction
series thinned to every ``FORCE_STRIDE``-th record, which keeps them small.
The tolerance ``REF_RTOL`` (max abs difference over the field's max abs
value) sits above float32 storage rounding (6e-8) and leaves room for
changes of summation order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
REF_RTOL = 1e-6
FD_BOUND = 1e-3  # acceptance criterion 2: order-1 fields vs central FD at h=1e-4
FD_STEP = 1e-4
FORCE_STRIDE = 16
TRACE_SUM_RTOL = 1e-3  # per-layer self times vs traced wall time


@dataclass
class Check:
    name: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.value)) and self.value <= self.bound

    def as_dict(self) -> dict:
        return {"name": self.name, "value": float(self.value),
                "bound": self.bound, "ok": self.ok}


def rel_gap(a, b) -> float:
    """max |a - b| / max |b| (absolute when b is identically zero)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    scale = np.abs(b).max()
    gap = np.abs(a - b).max()
    return float(gap / scale) if scale > 0 else float(gap)


def against_reference(prefix: str, out: dict, ref: dict,
                      rtol: float = REF_RTOL) -> list[Check]:
    """One check per reference field; a missing field fails."""
    return [Check(f"{prefix}.{key}",
                  rel_gap(out[key], ref[key]) if key in out else float("inf"), rtol)
            for key in sorted(ref)]


def no_healing(name: str, d) -> Check:
    """Damage never decreases from one snapshot to the next.  The value is
    the largest decrease found (0 when there is none)."""
    d = np.asarray(d, dtype=float)
    drop = -np.diff(d, axis=0).min() if len(d) > 1 else 0.0
    return Check(name, max(float(drop), 0.0), 0.0)


def element_average(gp_field) -> np.ndarray:
    """(..., 8 * ne) Gauss-point values -> (..., ne) element means."""
    gp_field = np.asarray(gp_field)
    return gp_field.reshape(*gp_field.shape[:-1], -1, 8).mean(axis=-1)


def stress_norm(sigma) -> np.ndarray:
    """Frobenius norm of Voigt stress vectors (shear entries count twice)."""
    w = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    return np.sqrt((np.asarray(sigma) ** 2 * w).sum(axis=-1))


def thin(series) -> np.ndarray:
    series = np.asarray(series)
    return series[::FORCE_STRIDE]


def read_vtk_cell_scalar(path, name: str, n: int) -> np.ndarray:
    """The ``n`` values of one CELL_DATA scalar of a legacy ASCII VTK file."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    i = lines.index(f"SCALARS {name} double 1")
    return np.asarray(lines[i + 2:i + 2 + n], dtype=float)


def read_force_csv(path) -> np.ndarray:
    """(F, 3) reaction series of a ``time,Fx,Fy,Fz`` CSV file."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def ref_path(name: str) -> str:
    return os.path.join(REF_DIR, f"{name}.npz")


def load_reference(name: str) -> dict:
    with np.load(ref_path(name)) as z:
        return {k: z[k].astype(float) for k in z.files}


def save_reference(name: str, fields: dict):
    os.makedirs(REF_DIR, exist_ok=True)
    np.savez_compressed(ref_path(name),
                        **{k: np.asarray(v, dtype=np.float32) for k, v in fields.items()})
