"""Time-separated first-order propagation of a stiffness fluctuation.

Every field y(t, x, xi) is expanded as y0(t, x) + xi * y1(t, x) around the
mean stiffness (xi = 0).  The order-0 problem is the plain deterministic
simulation; the order-1 problem is a second explicit simulation whose
stress law is the exact xi-derivative of the first, driven by the order-0
strain and damage received through a subsampled exchange stream (records
every K steps, zero-order hold in between).  Expectation and standard
deviation of damage, damage function, stress and reaction force follow in
a cheap post-processing pass that only needs the second moment <xi^2>.

Two exchange modes carry the stream, and order 1 takes it by one rule in
both: at each step n with n % K == 0 it takes the next record, checks that
it is step n's and holds it (``FirstOrderKernels``).  File mode is the
decoupled protocol: order 0 runs to completion writing a checksummed
record file (``run_order0``), then order 1 reads it back (``run_order1``).
In-memory mode advances both orders in lockstep, one ``ExplicitEngine``
step each, and order 0's live state reaches order 1 through a one-record
mailbox (``InMemoryExchange``), so nothing is copied and memory is O(1)
in K.  Both modes give bitwise equal results.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from .material import MaterialParams, Order1Law
from .mesh import LoadCase, Mesh
from .solver import (
    ElementQuadrature,
    ExplicitEngine,
    History,
    deterministic_kernels,
    run_engines,
    run_with_kernels,
    step_at,
)

_MAGIC = b"TSMX"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")  # magic, version, gp_count, K
_REC_HEAD = struct.Struct("<Qd")  # step, time
_ORDER0_META = {"kind": "order0", "order": 0}  # order 0's History.meta in both modes


class ExchangeFormatError(Exception):
    """Corrupt, truncated, or mismatching exchange file."""


@dataclass(frozen=True)
class Problem:
    """A mesh, its boundary/loading program, and the material.

    ``mass_damping`` (1/s) is the explicit-dynamics noise-control damping
    applied identically by every runner consuming this problem, so the
    deterministic, sensitivity, ensemble, and finite-difference routes all
    integrate exactly the same dynamical system."""

    mesh: Mesh
    loads: LoadCase
    params: MaterialParams
    mass_damping: float = 0.0


@dataclass(frozen=True)
class TsmConfig:
    exchange_interval: int = 1000  # K steps between exchange records
    exchange_mode: str = "in_memory"  # or "file"
    xi_second_moment: float = 0.01

    def __post_init__(self):
        if not self.exchange_interval >= 1:
            raise ValueError("exchange_interval must be >= 1")
        if self.exchange_mode not in ("in_memory", "file"):
            raise ValueError(f"unknown exchange_mode '{self.exchange_mode}'")
        if not self.xi_second_moment >= 0.0:
            raise ValueError(f"xi_second_moment must be >= 0, got {self.xi_second_moment}")
        if np.sqrt(self.xi_second_moment) >= 1.0:
            raise ValueError("sqrt(<xi^2>) must stay below 1 so 1+xi is plausible")


@dataclass
class ExchangeRecord:
    step: int
    time: float
    eps: np.ndarray  # (ngp, 6) order-0 strain
    d: np.ndarray  # (ngp,) order-0 damage


class InMemoryExchange:
    """The in-memory exchange stream: a one-record mailbox from order 0 to
    order 1 in lockstep.  ``hook``, order 0's exchange hook, posts the live
    strain and damage of every K-th step without a copy, and order 1 takes
    the record in the same step.  (Order 0's update makes new arrays, so
    the posted ones stay intact.)"""

    def __init__(self, exchange_interval: int):
        self.K = exchange_interval
        self._record = None

    def hook(self, step, time, eps, d):
        if step % self.K == 0:
            self._record = ExchangeRecord(step, time, eps, d)

    def __iter__(self):
        return self

    def __next__(self) -> ExchangeRecord:
        record, self._record = self._record, None
        if record is None:
            raise StopIteration
        return record


class ExchangeFileWriter:
    """Streams exchange records to disk; a CRC32 trailer seals the file."""

    def __init__(self, path, exchange_interval: int, gp_count: int):
        self.K = exchange_interval
        self._fh = open(path, "wb")
        self._crc = 0
        self._write(_HEADER.pack(_MAGIC, _VERSION, gp_count, exchange_interval))

    def _write(self, data):
        """Write and checksum ``data`` (bytes or a C-contiguous array)."""
        self._fh.write(data)
        self._crc = zlib.crc32(data, self._crc)

    def write_record(self, step, time, eps, d):
        self._write(_REC_HEAD.pack(step, time))
        # interleaved (ngp, 6) C-order bytes, whatever the memory order of eps
        self._write(np.ascontiguousarray(eps, dtype="<f8"))
        self._write(np.ascontiguousarray(d, dtype="<f8"))

    def hook(self, step, time, eps, d):
        if step % self.K == 0:
            self.write_record(step, time, eps, d)

    def close(self):
        if not self._fh.closed:
            self._fh.write(struct.pack("<I", self._crc))
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _record_size(gp_count: int) -> int:
    return _REC_HEAD.size + gp_count * 7 * 8


def _read_and_check_header(fh, path):
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise ExchangeFormatError(f"{path}: truncated header")
    magic, version, gp_count, K = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise ExchangeFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise ExchangeFormatError(f"{path}: unsupported version {version}")
    return gp_count, K


class ExchangeFileReader:
    """Validated, streaming reader: the whole file is checksum-verified up
    front, then records are yielded one at a time (constant memory)."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.gp_count, self.K = _read_and_check_header(fh, path)
        size = os.path.getsize(path)
        body = size - _HEADER.size - 4
        rec = _record_size(self.gp_count)
        if body < 0 or body % rec != 0:
            raise ExchangeFormatError(
                f"{path}: truncated or misaligned payload ({body} bytes, record={rec})"
            )
        self.n_records = body // rec
        crc = 0
        with open(path, "rb") as fh:
            remaining = size - 4
            while remaining > 0:
                chunk = fh.read(min(1 << 20, remaining))
                if not chunk:
                    raise ExchangeFormatError(f"{path}: unexpected end of file")
                remaining -= len(chunk)
                crc = zlib.crc32(chunk, crc)
            stored = struct.unpack("<I", fh.read(4))[0]
        if crc != stored:
            raise ExchangeFormatError(f"{path}: checksum mismatch")

    def __iter__(self):
        rec = _record_size(self.gp_count)
        prev_step = -1
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER.size)
            for _ in range(self.n_records):
                buf = fh.read(rec)
                step, t = _REC_HEAD.unpack_from(buf)
                if step <= prev_step:
                    raise ExchangeFormatError(f"{self.path}: steps not increasing at {step}")
                prev_step = step
                off = _REC_HEAD.size
                eps = np.frombuffer(buf, dtype="<f8", count=self.gp_count * 6,
                                    offset=off).reshape(self.gp_count, 6).copy()
                off += self.gp_count * 48
                d = np.frombuffer(buf, dtype="<f8", count=self.gp_count, offset=off).copy()
                yield ExchangeRecord(step, t, eps, d)


def write_exchange(records, path, exchange_interval: int = 1) -> None:
    """Persist a record list; the lossless binary round trip is bitwise."""
    if not records:
        raise ValueError("cannot write an empty exchange stream")
    gp = records[0].eps.shape[0]
    with ExchangeFileWriter(path, exchange_interval, gp) as w:
        for r in records:
            w.write_record(r.step, r.time, r.eps, r.d)


def read_exchange(path) -> list[ExchangeRecord]:
    """Every record of an exchange file, its checksum verified first."""
    return list(ExchangeFileReader(path))


# ---------------------------------------------------------------------------
# first-order simulation
# ---------------------------------------------------------------------------


class FirstOrderKernels:
    """Stress and damage callbacks of the sensitivity problem.

    The order-0 strain and damage arrive as a stepwise-constant external
    field held by ``law``, a ``material.Order1Law``, which evaluates the law.
    One hold rule serves every exchange ``source``, an ``ExchangeFileReader``
    or an ``InMemoryExchange``: at each step n with n % K == 0 the next
    record is taken, checked to be step n's, and held until the next such
    step.
    """

    def __init__(self, E0: np.ndarray, eta: float, dt: float, source):
        self.law = Order1Law(E0, eta, dt)
        self.K = source.K
        self._records = iter(source)

    def stress(self, d1, eps1, step):
        if step % self.K == 0:
            rec = next(self._records, None)
            if rec is None or rec.step != step:
                found = "none" if rec is None else f"step {rec.step}"
                raise ExchangeFormatError(f"step {step} needs its exchange record, "
                                          f"found {found}")
            self.law.hold(rec.eps, rec.d)
        return self.law.stress(d1, eps1)

    def damage(self, d1, eps1, step):
        return self.law.damage(d1, eps1)


def run_order0(problem: Problem, dt: float, output_times, config: TsmConfig, *,
               exchange_path, quad: ElementQuadrature | None = None,
               force_stride: int = 1):
    """Mean-stiffness simulation, writing an exchange record every K steps
    to the file ``exchange_path``.

    Returns (history, reader): the history is bitwise identical to
    run_deterministic with xi = 0; the reader has verified the file.
    """
    p = problem
    quad = quad or ElementQuadrature.build(p.mesh)
    kern = deterministic_kernels(p.params, 0.0, dt)
    with ExchangeFileWriter(exchange_path, config.exchange_interval, quad.n_gauss) as sink:
        hist = run_with_kernels(p.mesh, p.loads, p.params.rho, dt, output_times,
                                kern.stress, kern.damage, quad=quad,
                                exchange_hook=sink.hook, force_stride=force_stride,
                                mass_damping=p.mass_damping, meta=_ORDER0_META)
    return hist, ExchangeFileReader(exchange_path)


def run_order1(problem: Problem, reader: ExchangeFileReader, dt: float, output_times, *,
               quad: ElementQuadrature | None = None,
               force_stride: int = 1) -> History:
    """Sensitivity simulation consuming the order-0 exchange file.

    All Dirichlet values are homogeneous (the prescribed ramp does not
    depend on the random variable, so its derivative vanishes).
    """
    quad = quad or ElementQuadrature.build(problem.mesh)
    if reader.gp_count != quad.n_gauss:
        raise ExchangeFormatError(
            f"exchange stream has {reader.gp_count} Gauss points, "
            f"mesh has {quad.n_gauss}"
        )
    n_steps = step_at(problem.loads.total_time, dt)
    expected = n_steps // reader.K + 1
    if reader.n_records < expected:
        raise ValueError(
            f"order-0 source too short: {reader.n_records} records, "
            f"need {expected} to cover {n_steps} steps at K={reader.K}"
        )
    kern = FirstOrderKernels(problem.params.stiffness, problem.params.eta, dt, reader)
    return run_with_kernels(problem.mesh, problem.loads, problem.params.rho, dt,
                            output_times, kern.stress, kern.damage, quad=quad,
                            dirichlet_scale=0.0, force_stride=force_stride,
                            mass_damping=problem.mass_damping,
                            meta={"kind": "order1", "order": 1, "K": reader.K})


@dataclass
class TsmSolution:
    history0: History
    history1: History
    config: TsmConfig


def run_tsm(problem: Problem, config: TsmConfig, dt: float, output_times, *,
            quad: ElementQuadrature | None = None, exchange_path=None,
            force_stride: int = 1) -> TsmSolution:
    """The order-0 and order-1 simulations, exchanging records every K steps.

    File mode is decoupled: ``run_order0`` runs to completion, writing the
    stream to ``exchange_path`` (a file in a temporary directory when not
    given), then
    ``run_order1`` reads it back.  In-memory mode runs the two orders in
    lockstep (``_run_lockstep``) with memory O(1) in K.  Both modes apply
    the same K-step zero-order hold, so they agree bitwise.
    """
    quad = quad or ElementQuadrature.build(problem.mesh)
    if config.exchange_mode == "in_memory":
        hist0, hist1 = _run_lockstep(problem, config.exchange_interval, dt,
                                     output_times, quad, force_stride)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = exchange_path or os.path.join(tmp, "exchange.tsmx")
            hist0, reader = run_order0(problem, dt, output_times, config, quad=quad,
                                       exchange_path=path, force_stride=force_stride)
            hist1 = run_order1(problem, reader, dt, output_times, quad=quad,
                               force_stride=force_stride)
    return TsmSolution(history0=hist0, history1=hist1, config=config)


def _run_lockstep(problem: Problem, K: int, dt: float, output_times,
                  quad: ElementQuadrature, force_stride: int):
    """Order 0 and order 1 advanced in one loop; returns both histories.

    At step n, order 0 steps first and its exchange hook posts its strain
    and damage to an ``InMemoryExchange`` when n % K == 0; then order 1
    steps and holds them.  Each engine times its own set-up, steps and
    finish, so the hold counts as order 1's time.
    """
    p = problem
    kern0 = deterministic_kernels(p.params, 0.0, dt)
    mailbox = InMemoryExchange(K)
    kern1 = FirstOrderKernels(p.params.stiffness, p.params.eta, dt, mailbox)
    e0 = ExplicitEngine(p.mesh, p.loads, p.params.rho, dt, output_times,
                        kern0.stress, kern0.damage, quad=quad, force_stride=force_stride,
                        mass_damping=p.mass_damping, exchange_hook=mailbox.hook,
                        meta=_ORDER0_META)
    e1 = ExplicitEngine(p.mesh, p.loads, p.params.rho, dt, output_times,
                        kern1.stress, kern1.damage, quad=quad, dirichlet_scale=0.0,
                        force_stride=force_stride, mass_damping=p.mass_damping,
                        meta={"kind": "order1", "order": 1, "K": K})
    return run_engines(e0, e1)


# ---------------------------------------------------------------------------
# uncertainty post-processing
# ---------------------------------------------------------------------------


@dataclass
class UqSummary:
    """Expectation and standard deviation per snapshot and Gauss point,
    plus the reaction-force series on the loaded boundary set."""

    times: np.ndarray  # (S,)
    d_mean: np.ndarray  # (S, ngp)
    d_std: np.ndarray
    f_mean: np.ndarray
    f_std: np.ndarray
    sigma_mean: np.ndarray  # (S, ngp, 6)
    sigma_std: np.ndarray
    force_times: np.ndarray  # (F,)
    force_mean: np.ndarray  # (F, 3)
    force_std: np.ndarray
    force_set: str
    meta: dict = field(default_factory=dict)


def loaded_set_name(hist: History) -> str:
    sets = hist.meta.get("loaded_sets", ())
    if not sets:
        raise ValueError("history has no set with a nonzero ramp")
    return sorted(sets)[0]


def uq_summary(solution: TsmSolution) -> UqSummary:
    """First-order moments: means are the order-0 fields; standard
    deviations are sqrt(<xi^2>) (``solution.config.xi_second_moment``) times
    |first-order field| (first-order terms can be negative, e.g. the
    damage-function sensitivity -exp(-d0)*d1, so the absolute value keeps
    Std nonnegative)."""
    xi2 = solution.config.xi_second_moment
    s = float(np.sqrt(xi2))
    h0, h1 = solution.history0, solution.history1
    f_mean = np.exp(-h0.d)
    f1 = -f_mean * h1.d  # chain rule on f = exp(-d)
    name = loaded_set_name(h0)
    return UqSummary(
        times=h0.times.copy(),
        d_mean=h0.d.copy(), d_std=s * np.abs(h1.d),
        f_mean=f_mean, f_std=s * np.abs(f1),
        sigma_mean=h0.sigma.copy(), sigma_std=s * np.abs(h1.sigma),
        force_times=h0.force_times.copy(),
        force_mean=h0.forces[name].copy(),
        force_std=s * np.abs(h1.forces[name]),
        force_set=name,
        meta={"method": "tsm", "xi_second_moment": xi2,
              "wall_order0": h0.wall_time, "wall_order1": h1.wall_time},
    )
