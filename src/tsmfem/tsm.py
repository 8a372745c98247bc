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
decoupled protocol on two concurrent processes: order 0 writes the records
to a file here (``run_order0``, ``ExchangeFileWriter``) and announces each
one over a pipe once it is flushed; order 1 runs in a child process and
reads each record once it is announced, after checking its CRC
(``run_order1``, ``ExchangeFileReader``).  In-memory mode advances both
orders in lockstep, one ``ExplicitEngine`` step each, and order 0's live
state reaches order 1 through a one-record mailbox (``InMemoryExchange``),
so nothing is copied and memory is O(1) in K.  In both modes order 1
reads only order 0's strain and damage and forms its own law products from
them (``Order1Law.hold``), so both modes give bitwise equal results.

Exchange file, format version 4 (little-endian): a 24-byte header (magic
``TSMX``, u32 version, u64 Gauss-point count, u64 K); then one record per
K steps: u64 step, f64 time, the strains component-major (6 rows of ngp
f64: every xx, then every yy, ...), the (ngp,) damage as f64, and the u32
CRC32 of those bytes; then a 12-byte trailer: u64 record count and the u32
stream CRC, the CRC32 of the header followed by every record's CRC.  Only
a writer that finished writes the trailer.  The record layout is the
engine's own, Gauss points in the engine's order q * n_elements + e: the
writer writes the bytes of the engine's strains and damage without a
copy, and the reader yields the strains as a component-major (ngp, 6)
view of the buffer each record is read into.  A file of another version,
3 or earlier, is rejected with an error that names its version.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import numbers
import os
import pickle
import struct
import sys
import tempfile
import time as _time
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
_VERSION = 4
_HEADER = struct.Struct("<4sIQQ")  # magic, version, gp_count, K
K_MAX = 2**64 - 1  # the largest K the header's u64 holds
_REC_HEAD = struct.Struct("<Qd")  # step, time
_CRC = struct.Struct("<I")  # a record's CRC32, after its payload
_TRAILER = struct.Struct("<QI")  # record count, stream CRC
_SEALED = -1  # the writer's announcement of its trailer
_ORDER0_META = {"kind": "order0", "order": 0}  # order 0's History.meta in both modes
_CHUNK = 1 << 16  # bytes of array data per message to and from order 1's process
# how file mode starts its order-1 process: fork where the platform has it,
# since the child then starts at once; else spawn, a fresh interpreter that
# gets everything it needs by argument
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


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
        K = self.exchange_interval
        if not (isinstance(K, numbers.Integral) and 1 <= K <= K_MAX):
            raise ValueError(f"exchange_interval must be an integer in [1, {K_MAX}], got {K!r}")
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
    the posted ones stay intact.)  Order 1 holds a record's arrays until
    the next record and only reads them, as it reads a file's."""

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
    """Streams exchange records to disk, each followed by the CRC32 of its
    head and payload; ``close`` seals the stream with the trailer.  Leaving
    a ``with`` block by an exception closes the file unsealed, so no reader
    accepts what a failed run wrote.

    ``announce``, when given, is called with the number of records written
    once the header (0) and each record are flushed, and with ``_SEALED``
    once the trailer is: the announcements a live ``ExchangeFileReader``
    follows."""

    def __init__(self, path, exchange_interval: int, gp_count: int, announce=None):
        self.K = exchange_interval
        self.n_records = 0
        self._announce = announce
        head = _HEADER.pack(_MAGIC, _VERSION, gp_count, exchange_interval)
        self._fh = open(path, "wb")
        self._fh.write(head)
        self._crc = zlib.crc32(head)  # the stream CRC: header, then each record's CRC
        self._published()

    def _published(self):
        if self._announce is not None:
            self._fh.flush()
            self._announce(self.n_records)

    def write_record(self, step, time, eps, d):
        head = _REC_HEAD.pack(step, time)
        # component-major rows: the engine's eps.T is C-contiguous already,
        # so only a Gauss-point-major eps is copied here
        rows = np.ascontiguousarray(eps.T, dtype="<f8")
        d = np.ascontiguousarray(d, dtype="<f8")
        crc = _CRC.pack(zlib.crc32(d, zlib.crc32(rows, zlib.crc32(head))))
        for part in (head, rows, d, crc):
            self._fh.write(part)
        self._crc = zlib.crc32(crc, self._crc)
        self.n_records += 1
        self._published()

    def hook(self, step, time, eps, d):
        if step % self.K == 0:
            self.write_record(step, time, eps, d)

    def close(self):
        """Seal the stream: the trailer holds the record count and the
        stream CRC."""
        if not self._fh.closed:
            self._fh.write(_TRAILER.pack(self.n_records, self._crc))
            self._fh.close()
            if self._announce is not None:
                self._announce(_SEALED)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.close()
        else:
            self._fh.close()


def _record_size(gp_count: int) -> int:
    return _REC_HEAD.size + gp_count * 7 * 8 + _CRC.size


def _check_header(head: bytes, path) -> tuple[int, int]:
    """(gp_count, K) of a file header."""
    if len(head) < _HEADER.size:
        raise ExchangeFormatError(f"{path}: truncated header")
    magic, version, gp_count, K = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise ExchangeFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise ExchangeFormatError(f"{path}: unsupported version {version} "
                                  f"(this reader reads version {_VERSION})")
    return gp_count, K


class ExchangeFileReader:
    """Validating, streaming reader of an exchange file.

    Without ``announcements`` the file must be sealed: the constructor
    checks the CRC of every record, then the trailer's record count and
    stream CRC, and sets ``n_records``.  With ``announcements``, the
    receiving end of a live writer's announcements (a ``multiprocessing``
    connection), the file is read while it is written: each record once it
    is announced, and the trailer once the seal is, which sets
    ``n_records``.  ``wait_s`` is the time spent waiting for announcements.

    Iteration yields the records one at a time (constant memory), each
    only after its CRC has matched.  Each record is read into a buffer of
    its own, and its ``eps`` and ``d`` are views of that buffer.
    """

    def __init__(self, path, announcements=None):
        self.path = path
        self.wait_s = 0.0
        self.n_records = None
        self._announcements = announcements
        self._announced = 0  # records that may be read
        if announcements is not None:
            self._announced = self._await()  # the header's
        with open(path, "rb") as fh:
            self._head = fh.read(_HEADER.size)
            self.gp_count, self.K = _check_header(self._head, path)
            self._rec = _record_size(self.gp_count)
            if announcements is None:
                body = os.fstat(fh.fileno()).st_size - _HEADER.size
                if body % self._rec == 0:
                    raise ExchangeFormatError(f"{path}: unsealed stream, no trailer "
                                              f"(its writer did not finish)")
                if body < _TRAILER.size or (body - _TRAILER.size) % self._rec:
                    raise ExchangeFormatError(
                        f"{path}: truncated or misaligned payload "
                        f"({body} bytes, record={self._rec})")
                self._announced = (body - _TRAILER.size) // self._rec
                self._seal(fh, 0, zlib.crc32(self._head))

    def _await(self) -> int:
        """The writer's next announcement, waited for."""
        t0 = _time.perf_counter()
        try:
            return self._announcements.recv()
        except EOFError:
            raise ExchangeFormatError(f"{self.path}: the writer stopped "
                                      f"before sealing the stream") from None
        finally:
            self.wait_s += _time.perf_counter() - t0

    def _read(self, fh, i: int, buf: np.ndarray) -> np.ndarray:
        """Record i, read from ``fh`` into ``buf`` (its bytes); returns its
        CRC field once it matches."""
        if fh.readinto(buf) < self._rec:
            raise ExchangeFormatError(f"{self.path}: record {i} truncated")
        crc = buf[-_CRC.size:]
        if zlib.crc32(buf[:-_CRC.size]) != _CRC.unpack(crc)[0]:
            raise ExchangeFormatError(f"{self.path}: checksum mismatch in record {i}")
        return crc

    def _seal(self, fh, i: int, crc: int) -> None:
        """Check records i, i + 1, ... (from ``fh``'s position) and the
        trailer after them; ``crc`` is the stream CRC up to record i."""
        buf = np.empty(self._rec, dtype=np.uint8)
        for j in range(i, self._announced):
            crc = zlib.crc32(self._read(fh, j, buf), crc)
        trailer = fh.read(_TRAILER.size)
        if len(trailer) < _TRAILER.size:
            raise ExchangeFormatError(f"{self.path}: truncated trailer")
        count, stored = _TRAILER.unpack(trailer)
        if count != self._announced:
            raise ExchangeFormatError(f"{self.path}: trailer counts {count} records, "
                                      f"the stream holds {self._announced}")
        if crc != stored:
            raise ExchangeFormatError(f"{self.path}: stream checksum mismatch")
        self.n_records = count

    def __iter__(self):
        rec, gp = self._rec, self.gp_count
        crc, prev_step = zlib.crc32(self._head), -1
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER.size)
            i = 0
            while True:
                while i == self._announced and self.n_records is None:
                    n = self._await()
                    if n == _SEALED:
                        self._seal(fh, i, crc)
                    else:
                        self._announced = n
                if i == self._announced:
                    return
                buf = np.empty(rec, dtype=np.uint8)  # the record's own
                crc = zlib.crc32(self._read(fh, i, buf), crc)
                step, t = _REC_HEAD.unpack_from(buf)
                if step <= prev_step:
                    raise ExchangeFormatError(f"{self.path}: steps not increasing at {step}")
                prev_step = step
                off = _REC_HEAD.size
                eps = np.frombuffer(buf, dtype="<f8", count=gp * 6, offset=off)
                d = np.frombuffer(buf, dtype="<f8", count=gp, offset=off + gp * 48)
                yield ExchangeRecord(step, t, eps.reshape(6, gp).T, d)
                i += 1


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

    def finish(self) -> None:
        """Check that the source ends after the last record taken; a live
        exchange file ends at its seal, whose trailer is checked here."""
        rec = next(self._records, None)
        if rec is not None:
            raise ExchangeFormatError(f"exchange stream continues past the last step "
                                      f"with step {rec.step}")


def run_order0(problem: Problem, dt: float, output_times, config: TsmConfig, *,
               exchange_path, quad: ElementQuadrature | None = None,
               force_stride: int = 1, announce=None):
    """Mean-stiffness simulation, writing an exchange record every K steps
    to the file ``exchange_path``; ``announce`` is the writer's (see
    ``ExchangeFileWriter``).

    Returns (history, reader): the history is bitwise identical to
    run_deterministic with xi = 0; the reader has verified the file.
    """
    p = problem
    quad = quad or ElementQuadrature.build(p.mesh)
    kern = deterministic_kernels(p.params, 0.0, dt)
    with ExchangeFileWriter(exchange_path, config.exchange_interval, quad.n_gauss,
                            announce) as sink:
        hist = run_with_kernels(p.mesh, p.loads, p.params.rho, dt, output_times,
                                kern.stress, kern.damage, quad=quad,
                                exchange_hook=sink.hook, force_stride=force_stride,
                                mass_damping=p.mass_damping, meta=_ORDER0_META)
    return hist, ExchangeFileReader(exchange_path)


def run_order1(problem: Problem, reader: ExchangeFileReader, dt: float, output_times, *,
               quad: ElementQuadrature | None = None,
               force_stride: int = 1) -> History:
    """Sensitivity simulation consuming the order-0 exchange file, sealed
    or live.  The history's ``wall_time`` leaves out the time spent waiting
    for a live file's records: that time is order 0's.

    All Dirichlet values are homogeneous and the body force is zero
    (neither the prescribed ramp nor the body force depends on the random
    variable, so their derivatives vanish).
    """
    quad = quad or ElementQuadrature.build(problem.mesh)
    if reader.gp_count != quad.n_gauss:
        raise ExchangeFormatError(
            f"exchange stream has {reader.gp_count} Gauss points, "
            f"mesh has {quad.n_gauss}"
        )
    n_steps = step_at(problem.loads.total_time, dt)
    expected = n_steps // reader.K + 1
    if reader.n_records is not None and reader.n_records != expected:
        raise ValueError(
            f"order-0 source too {'short' if reader.n_records < expected else 'long'}: "
            f"{reader.n_records} records, need {expected} to cover {n_steps} steps "
            f"at K={reader.K}"
        )
    kern = FirstOrderKernels(problem.params.stiffness, problem.params.eta, dt, reader)
    waited = reader.wait_s
    hist = run_with_kernels(problem.mesh, problem.loads, problem.params.rho, dt,
                            output_times, kern.stress, kern.damage, quad=quad,
                            load_scale=0.0, force_stride=force_stride,
                            mass_damping=problem.mass_damping,
                            meta={"kind": "order1", "order": 1, "K": reader.K})
    hist.wall_time -= reader.wait_s - waited
    kern.finish()
    return hist


@dataclass
class TsmSolution:
    history0: History
    history1: History
    config: TsmConfig
    order1_wait: float = 0.0  # seconds order 1 waited for order 0's records
    order1_peak_rss_mb: float | None = None  # of order 1's own process, if it had one


def peak_rss_mb() -> float | None:
    """This process's peak resident set size in MB, or None where there is
    no ``resource`` module (outside POSIX).  ``ru_maxrss`` counts bytes on
    macOS and kilobytes elsewhere."""
    try:
        import resource
    except ImportError:
        return None
    unit = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 1e6


def run_tsm(problem: Problem, config: TsmConfig, dt: float, output_times, *,
            quad: ElementQuadrature | None = None, exchange_path=None,
            force_stride: int = 1) -> TsmSolution:
    """The order-0 and order-1 simulations, exchanging records every K steps.

    File mode streams: ``run_order0`` writes the stream to
    ``exchange_path`` (a file in a temporary directory, made only when no
    path is given)
    here, while ``run_order1`` reads each record once it is announced, in
    a child process (``_Order1Process``).  In-memory mode runs the two
    orders in lockstep (``_run_lockstep``) with memory O(1) in K.  Both
    modes apply the same K-step zero-order hold, so they agree bitwise.
    """
    quad = quad or ElementQuadrature.build(problem.mesh)
    output_times = list(output_times)  # both orders read it, so no one-shot iterable
    wait, rss1 = 0.0, None
    if config.exchange_mode == "in_memory":
        hist0, hist1 = _run_lockstep(problem, config.exchange_interval, dt,
                                     output_times, quad, force_stride)
    else:
        tmp_dir = (tempfile.TemporaryDirectory() if exchange_path is None
                   else contextlib.nullcontext())
        with tmp_dir as tmp:
            path = exchange_path if tmp is None else os.path.join(tmp, "exchange.tsmx")
            with _Order1Process(problem, path, dt, output_times, quad,
                                force_stride) as order1:
                hist0, _ = run_order0(problem, dt, output_times, config, quad=quad,
                                      exchange_path=path, force_stride=force_stride,
                                      announce=order1.announce)
                hist1, wait, rss1 = order1.result()
    return TsmSolution(history0=hist0, history1=hist1, config=config, order1_wait=wait,
                       order1_peak_rss_mb=rss1)


class _Order1Process:
    """Order 1 in a child process started by ``_START_METHOD``, reading
    the exchange file that order 0 writes here as the writer announces it.

    ``announce`` is the writer's callback: it passes each announcement on
    and, at each record, raises the child's error once the child has sent
    one, so an order-1 failure stops order 0 at its next record.
    ``result()`` waits for order 1's (history, wait, peak RSS in MB) or
    raises its error.
    Leaving the ``with`` block joins the child, terminating it first when
    the block is left by an exception.  A plain ``Pipe`` carries both
    directions, so no helper process is started (spawn on POSIX starts
    Python's own resource tracker once per interpreter).

    The child starts with only its end of the pipe; the problem and the
    quadrature follow over the pipe once it has started, so a start never
    waits on a child that cannot read.  A spawned child imports the
    caller's main module, so a script that runs file mode where the
    platform cannot fork guards its entry point with
    ``if __name__ == "__main__":``; a child that dies importing it makes
    the next announcement, or ``result()``, raise ``ChildProcessError``
    with its exit code.
    """

    def __init__(self, problem: Problem, path, dt: float, output_times,
                 quad: ElementQuadrature, force_stride: int):
        ctx = multiprocessing.get_context(_START_METHOD)
        self._conn, child_end = ctx.Pipe()
        self._process = ctx.Process(target=_order1_child, args=(child_end,), daemon=True)
        self._process.start()
        child_end.close()
        try:
            _send_out_of_band(self._conn, *_pickle_out_of_band(
                (problem, path, dt, output_times, quad, force_stride)))
        except ConnectionError:  # the child has ended; ``announce`` says how
            pass
        except BaseException:  # the child would wait for its problem forever
            self.__exit__(BaseException)
            raise

    def announce(self, n: int) -> None:
        """Send ``n``, first raising the child's failure if it has sent one.
        Polling before the send means the failure raised is never one the
        child met on record n, so it cannot displace an order-0 error that
        order 0 raises right after announcing record n."""
        if n != _SEALED and self._conn.poll():  # before the seal, only a failure
            self.result()
        try:
            self._conn.send(n)
        except ConnectionError:  # the child has ended; what it sent says why
            pass

    def result(self):
        try:
            return _recv_out_of_band(self._conn)
        except (EOFError, ConnectionResetError):  # reset: it died with bytes unread
            self._process.join()
            raise ChildProcessError(f"the order-1 process exited with code "
                                    f"{self._process.exitcode} and no result") from None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:
            self._process.terminate()
        self._process.join()
        self._conn.close()


def _pickle_out_of_band(obj) -> tuple[bytes, list[memoryview]]:
    """``obj`` as a pickle (protocol 5) without its array data, and the
    memory of each array: the arguments of ``_send_out_of_band``.  Any
    pickling error is raised here, before anything is sent."""
    buffers = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    return head, [b.raw() for b in buffers]


def _send_out_of_band(conn, head: bytes, views: list[memoryview]) -> None:
    """Send a pickled object (``_pickle_out_of_band``): the pickle with the
    array sizes, then the bytes of each array straight from the array's
    memory, so the sender makes no copy of them (the quadrature and a
    history are megabytes).  The bytes go in messages of at most
    ``_CHUNK`` bytes, as the receiver stages each message before it copies
    it into place."""
    conn.send((head, [v.nbytes for v in views]))
    for view in views:
        for lo in range(0, view.nbytes, _CHUNK):
            conn.send_bytes(view, lo, min(_CHUNK, view.nbytes - lo))


def _recv_out_of_band(conn):
    """The object ``_send_out_of_band`` sent, its arrays writable and in
    the buffers received, so none is copied again; an exception sent in
    its place with ``conn.send`` is raised."""
    msg = conn.recv()
    if isinstance(msg, BaseException):
        raise msg
    head, sizes = msg
    buffers = [bytearray(n) for n in sizes]
    for buf in buffers:
        for lo in range(0, len(buf), _CHUNK):
            conn.recv_bytes_into(buf, lo)
    return pickle.loads(head, buffers=buffers)


def _order1_child(conn) -> None:
    """The order-1 process: receives (problem, path, dt, output_times,
    quad, force_stride) over ``conn``, reads the stream at ``path`` as
    ``conn`` announces it and sends back (history, wait, peak RSS) out of
    band, or its exception, which the parent raises.  Once the result's
    first message is sent, an error can no longer be sent after it: it
    ends the process, and the parent raises ``ChildProcessError``."""
    try:
        problem, path, dt, output_times, quad, force_stride = _recv_out_of_band(conn)
        reader = ExchangeFileReader(path, announcements=conn)
        hist = run_order1(problem, reader, dt, output_times, quad=quad,
                          force_stride=force_stride)
        result = _pickle_out_of_band((hist, reader.wait_s, peak_rss_mb()))
    except BaseException as exc:
        conn.send(exc)
        return
    _send_out_of_band(conn, *result)


def _run_lockstep(problem: Problem, K: int, dt: float, output_times,
                  quad: ElementQuadrature, force_stride: int):
    """Order 0 and order 1 advanced in one loop; returns both histories.

    At step n, order 0 steps first and its exchange hook posts its strain
    and damage to an ``InMemoryExchange`` when n % K == 0; then order 1
    steps, holds them and forms its law products from them, as it does
    from a file record.  Each engine times its own set-up, steps and
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
                        kern1.stress, kern1.damage, quad=quad, load_scale=0.0,
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
    Std nonnegative).

    The means alias ``solution.history0``: ``times``, ``d_mean``,
    ``sigma_mean``, ``force_times`` and ``force_mean`` are its own arrays,
    not copies, so the summary adds only <f> and the Std fields to what
    the solution holds.  Nothing is written into the solution; each Std
    field is one new array, |field| scaled in place (the same bits as
    ``s * np.abs(field)``)."""
    xi2 = solution.config.xi_second_moment
    s = float(np.sqrt(xi2))
    h0, h1 = solution.history0, solution.history1
    f_mean = np.exp(-h0.d)
    minus_f1 = np.multiply(f_mean, h1.d)  # f1 = -f0 * d1: the chain rule on f = exp(-d)
    name = loaded_set_name(h0)

    def std(first_order, out=None):
        """s |first_order|, formed in ``out`` or in one new array."""
        out = np.abs(first_order, out=out)
        out *= s
        return out

    return UqSummary(
        times=h0.times,
        d_mean=h0.d, d_std=std(h1.d),
        f_mean=f_mean, f_std=std(minus_f1, out=minus_f1),
        sigma_mean=h0.sigma, sigma_std=std(h1.sigma),
        force_times=h0.force_times,
        force_mean=h0.forces[name],
        force_std=std(h1.forces[name]),
        force_set=name,
        meta={"method": "tsm", "xi_second_moment": xi2},
    )
