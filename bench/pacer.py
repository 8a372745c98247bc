"""Host-speed reference for the benchmark's gated times.

The benchmark runs on shared hosts whose per-core speed changes by tens of
percent within seconds and by up to 1.7x over minutes, while process CPU
time tracks wall time: the core itself runs slower, so neither CPU time nor
a longer run takes the drift out.  The gated times are therefore measured
against a fixed reference kernel that runs between short chunks of the
workload:

* every ``CHUNK_S`` seconds of workload time (checked after each explicit
  step, in ``ExplicitEngine.advance``) the current chunk closes and the
  reference kernel runs once;
* a chunk's time is scaled by ``REFERENCE_S`` over the mean of the kernel
  times just before and just after it, and the scaled chunks add up to the
  *reference-speed* time of a window: the seconds it would take on a host
  where the kernel takes ``REFERENCE_S``.

The kernel is the benchmark's own code -- an explicit-dynamics loop with
sparse strain and force products and element-wise stress and damage
updates, at the size of the workload's mesh -- so no change to tsmfem
changes it.  Time spent in the kernel is excluded from every time
the benchmark reports: ``clock()`` is ``perf_counter()`` minus it.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 0.035  # the kernel's time at the reference speed; fixed for good
CHUNK_S = 0.5  # workload seconds between two runs of the kernel

_kernel_total = 0.0  # seconds spent in the reference kernel in this process


def clock() -> float:
    """``perf_counter`` minus the time spent in the reference kernel."""
    return time.perf_counter() - _kernel_total


class _ExplicitLoop:
    """A fixed explicit loop on a random hexahedral-like operator with
    ``n_el`` elements, 8 Gauss points and 24 dofs per element."""

    def __init__(self, n_el: int, iters: int):
        rng = np.random.default_rng(n_el)
        ngp, n_nodes = 8 * n_el, 2 * n_el + 20
        rows = np.repeat(np.arange(6 * ngp), 24)
        cols = rng.integers(0, 3 * n_nodes, rows.size)
        self.B = sp.csr_matrix((rng.standard_normal(rows.size), (rows, cols)),
                               shape=(6 * ngp, 3 * n_nodes))
        self.Bt = self.B.T.tocsr()
        self.E = rng.random((6, 6))
        self.mass = 1.0 + rng.random(3 * n_nodes)
        self.n_dof, self.ngp, self.iters = 3 * n_nodes, ngp, iters

    def __call__(self):
        u, v, d = np.zeros(self.n_dof), np.zeros(self.n_dof), np.zeros(self.ngp)
        for _ in range(self.iters):
            eps = (self.B @ u).reshape(-1, 6)
            s = eps @ self.E.T
            e = np.exp(-d)
            f = self.Bt @ (e[:, None] * s).ravel()
            v = v + 1e-3 * (1e-3 - f) / self.mass
            v[:12] = 0.0
            u = u + 1e-3 * v
            d = d + 1e-6 * e * 0.5 * (eps * s).sum(axis=-1)


class ReferenceKernel:
    """The explicit loop at the size of a workload's mesh: ``n_el``
    elements, ``iters`` iterations (about REFERENCE_S on a calm 2-core VM)."""

    def __init__(self, n_el: int, iters: int):
        self.loops = [_ExplicitLoop(n_el, iters)]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for loop in self.loops:
            loop()
        return time.perf_counter() - t0


class Pacer:
    """Interleaves the reference kernel with the workload and scales the
    workload's time to the reference speed (see the module docstring)."""

    def __init__(self, kernel, chunk_s: float = CHUNK_S, warmup: int = 5):
        self.kernel = kernel
        self.chunk_s = chunk_s
        self.kernel_times: list[float] = []
        self.chunks = 0
        self._ref_total = 0.0  # reference-speed seconds of closed chunks
        self._start = None  # clock() at the start of the open chunk
        self._kernel_end = -1.0  # clock() when the kernel last ended
        self._undo = None
        for _ in range(warmup):
            self.kernel()

    def _calibrate(self):
        global _kernel_total
        t = self.kernel()
        _kernel_total += t
        self.kernel_times.append(t)
        self._kernel_end = clock()

    def _close_chunk(self):
        elapsed = clock() - self._start
        before = self.kernel_times[-1]
        self._calibrate()
        self._ref_total += elapsed * REFERENCE_S / (0.5 * (before + self.kernel_times[-1]))
        self.chunks += 1
        self._start = clock()

    def tick(self):
        """Close the open chunk when it is ``chunk_s`` long."""
        if self._start is not None and clock() - self._start >= self.chunk_s:
            self._close_chunk()

    @contextlib.contextmanager
    def window(self):
        """Time the block; yields a dict that gets ``raw_s`` (clock time)
        and ``ref_s`` (reference-speed time) when the block ends."""
        if clock() - self._kernel_end > 1e-3:  # other work ran since
            self._calibrate()
        out = {}
        ref0 = self._ref_total
        t0 = self._start = clock()
        try:
            yield out
        finally:
            self._close_chunk()
            self._start = None
            out["raw_s"] = clock() - t0
            out["ref_s"] = self._ref_total - ref0

    def install(self, engine_cls):
        """Tick after every explicit step of ``engine_cls.advance``."""
        orig = engine_cls.__dict__["advance"]
        tick = self.tick

        @functools.wraps(orig)
        def advance(engine, *args, **kwargs):
            out = orig(engine, *args, **kwargs)
            tick()
            return out

        engine_cls.advance = advance
        self._undo = (engine_cls, orig)

    def uninstall(self):
        if self._undo is not None:
            engine_cls, orig = self._undo
            engine_cls.advance = orig
            self._undo = None

    def speed(self) -> float:
        """Host speed relative to the reference: REFERENCE_S over the
        median kernel time."""
        return REFERENCE_S / float(np.median(self.kernel_times))
