"""Time-separated driver: exchange protocol, staggered runs, the
finite-difference equivalence of the first-order fields, and the moment
post-processing."""

import multiprocessing
import os
import pickle
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from tsmfem import tsm
from tsmfem.config import load_config
from tsmfem.material import MaterialParams, Order0Law, Order1Law
from tsmfem.mesh import DirichletRamp, LoadCase, generate_plate_with_hole
from tsmfem.montecarlo import fd_oracle
from tsmfem.solver import (
    DeterministicKernels,
    ElementQuadrature,
    History,
    InstabilityError,
    run_deterministic,
    stable_timestep,
)
from tsmfem.tsm import (
    ExchangeFileReader,
    ExchangeFileWriter,
    ExchangeFormatError,
    ExchangeRecord,
    FirstOrderKernels,
    InMemoryExchange,
    Problem,
    TsmConfig,
    TsmSolution,
    read_exchange,
    run_order0,
    run_order1,
    run_tsm,
    uq_summary,
    write_exchange,
)


def coarse_plate_problem(T=4e-3, amp=5e-3, eta=4e3):
    mesh = generate_plate_with_hole(width=0.1, height=0.075, thickness=0.0125,
                                    hole_radius=0.03125, nx=8, ny=6)
    params = MaterialParams(lam=1e9, mu=0.8e9, rho=1000.0, eta=eta)
    loads = LoadCase(dirichlet=(
        DirichletRamp("symmetry_x", 0, 0.0, T),
        DirichletRamp("symmetry_y", 1, 0.0, T),
        DirichletRamp("front", 2, 0.0, T),
        DirichletRamp("top", 1, amp, T),
    ), total_time=T)
    return Problem(mesh=mesh, loads=loads, params=params)


# ---------------------------------------------------------------------------
# config and exchange files
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TsmConfig(exchange_interval=0)
    with pytest.raises(ValueError):
        TsmConfig(exchange_interval=2.5)
    with pytest.raises(ValueError):
        TsmConfig(exchange_interval=2**64)
    assert TsmConfig(exchange_interval=2**64 - 1).exchange_interval == 2**64 - 1
    with pytest.raises(ValueError):
        TsmConfig(exchange_mode="carrier_pigeon")
    with pytest.raises(ValueError):
        TsmConfig(xi_second_moment=-0.1)
    with pytest.raises(ValueError):
        TsmConfig(xi_second_moment=1.0)


def _random_records(rng, n_rec=5, gp=7, K=3):
    return [ExchangeRecord(step=i * K, time=i * K * 1e-6,
                           eps=rng.normal(size=(gp, 6)),
                           d=rng.uniform(0, 3, size=gp))
            for i in range(n_rec)]


def test_exchange_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    records = _random_records(rng)
    p = tmp_path / "x.tsmx"
    write_exchange(records, p, exchange_interval=3)
    reader = ExchangeFileReader(p)
    assert (reader.K, reader.gp_count, reader.n_records) == (3, 7, len(records))
    back = read_exchange(p)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.step == b.step
        assert a.time == b.time
        assert np.array_equal(a.eps, b.eps)
        assert np.array_equal(a.d, b.d)


def test_exchange_truncated_rejected(tmp_path):
    rng = np.random.default_rng(8)
    p = tmp_path / "x.tsmx"
    write_exchange(_random_records(rng), p)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) - 17])
    with pytest.raises(ExchangeFormatError, match="truncated|misaligned"):
        read_exchange(p)


def test_exchange_corrupted_rejected(tmp_path):
    rng = np.random.default_rng(9)
    p = tmp_path / "x.tsmx"
    write_exchange(_random_records(rng), p)
    data = bytearray(p.read_bytes())
    data[60] ^= 0xFF
    p.write_bytes(bytes(data))
    with pytest.raises(ExchangeFormatError, match="checksum"):
        read_exchange(p)


def _record_offset(r, gp=7):
    """Byte offset of record r in a version-4 file: the 24-byte header, then
    records of step, time, 7 * gp doubles (6 strain rows of gp, then the
    damage) and a CRC32 each."""
    return 24 + r * (16 + 56 * gp + 4)


def test_exchange_record_is_the_engine_layout(tmp_path):
    """A record holds step, time, the bytes of eps.T (component-major
    rows) and of d, and its CRC; the engine's component-major eps and a
    Gauss-point-major copy of it write the same bytes."""
    rng = np.random.default_rng(14)
    gp = 7
    eps = np.ascontiguousarray(rng.normal(size=(6, gp))).T  # the engine's layout
    d = rng.uniform(0, 3, gp)
    for k, strains in enumerate((eps, np.ascontiguousarray(eps))):
        p = tmp_path / f"x{k}.tsmx"
        write_exchange([ExchangeRecord(0, 0.0, strains, d)], p)
        record = p.read_bytes()[_record_offset(0):_record_offset(1)]
        payload = struct.pack("<Qd", 0, 0.0) + eps.T.tobytes() + d.tobytes()
        assert record == payload + struct.pack("<I", zlib.crc32(payload))


def test_exchange_records_own_their_buffers(tmp_path):
    """``list(reader)`` holds every record at once: each one's arrays are
    views of a buffer of its own, the strains component-major, equal to
    what was written."""
    rng = np.random.default_rng(15)
    records = _random_records(rng)
    p = tmp_path / "x.tsmx"
    write_exchange(records, p, exchange_interval=3)
    back = list(ExchangeFileReader(p))
    for i, a in enumerate(back):
        assert a.eps.T.flags.c_contiguous  # component-major, as the engine's
        assert not any(np.shares_memory(a.eps, b.eps) for b in back[:i])
    for a, b in zip(records, back):
        assert (b.eps.shape, b.d.shape) == ((7, 6), (7,))
        assert np.array_equal(a.eps, b.eps) and np.array_equal(a.d, b.d)


def test_exchange_cut_inside_a_record_names_it(tmp_path):
    """A file cut inside record 3 after it was opened (sealed) or announced
    (live) fails there, naming the record, once records 0 to 2 are read."""
    rng = np.random.default_rng(16)
    records = _random_records(rng)
    p = tmp_path / "x.tsmx"
    write_exchange(records, p, exchange_interval=3)
    sealed = ExchangeFileReader(p)
    live = ExchangeFileReader(p, announcements=_live_stream(p, records))
    with open(p, "r+b") as fh:
        fh.truncate(_record_offset(3) + 100)
    for reader in (sealed, live):
        stream = iter(reader)
        assert [next(stream).step for _ in range(3)] == [0, 3, 6]
        with pytest.raises(ExchangeFormatError, match="record 3 truncated$"):
            next(stream)


@pytest.mark.parametrize("r", [0, 2, 4])
def test_exchange_flipped_byte_names_its_record(tmp_path, r):
    rng = np.random.default_rng(10)
    p = tmp_path / "x.tsmx"
    write_exchange(_random_records(rng), p, exchange_interval=3)
    data = bytearray(p.read_bytes())
    data[_record_offset(r) + 30] ^= 0x01
    p.write_bytes(bytes(data))
    with pytest.raises(ExchangeFormatError, match=f"checksum mismatch in record {r}$"):
        ExchangeFileReader(p)


def _live_stream(path, records, K=3, seal=True):
    """A live writer's file and the connection its announcements arrive on:
    ``records`` written and announced, then the seal unless ``seal`` is
    False, when the writer raises inside its ``with`` block instead."""
    rx, tx = multiprocessing.Pipe(duplex=False)
    try:
        with ExchangeFileWriter(path, K, records[0].eps.shape[0], tx.send) as w:
            for rec in records:
                w.write_record(rec.step, rec.time, rec.eps, rec.d)
            if not seal:
                raise RuntimeError("order 0 failed")
    except RuntimeError:
        pass
    tx.close()
    return rx


def test_live_exchange_reads_announced_records_and_checks_the_seal(tmp_path):
    rng = np.random.default_rng(11)
    records = _random_records(rng)
    p = tmp_path / "x.tsmx"
    reader = ExchangeFileReader(p, announcements=_live_stream(p, records))
    assert (reader.K, reader.gp_count, reader.n_records) == (3, 7, None)
    back = list(reader)
    assert reader.n_records == len(back) == len(records)
    for a, b in zip(records, back):
        assert (a.step, a.time) == (b.step, b.time)
        assert np.array_equal(a.eps, b.eps) and np.array_equal(a.d, b.d)
    assert reader.wait_s >= 0.0
    # announcing changes nothing in the file
    write_exchange(records, tmp_path / "y.tsmx", exchange_interval=3)
    assert p.read_bytes() == (tmp_path / "y.tsmx").read_bytes()


def test_live_exchange_flipped_byte_fails_before_its_record_is_held(tmp_path):
    """Order 1 takes records 0 and 1 of a live stream; record 2 fails its
    CRC at step 6, where it would be held, and record 1 stays held."""
    rng = np.random.default_rng(12)
    records = _random_records(rng)
    p = tmp_path / "x.tsmx"
    rx = _live_stream(p, records)
    data = bytearray(p.read_bytes())
    data[_record_offset(2) + 30] ^= 0x01
    p.write_bytes(bytes(data))
    E0 = MaterialParams(lam=1e9, mu=0.8e9, rho=1e3, eta=1e3).stiffness
    kern = FirstOrderKernels(E0, 1e3, 1e-6, ExchangeFileReader(p, announcements=rx))
    d1, eps1 = np.zeros(7), np.zeros((7, 6))
    for step in range(6):
        kern.stress(d1, eps1, step)
    with pytest.raises(ExchangeFormatError, match="checksum mismatch in record 2$"):
        kern.stress(d1, eps1, 6)
    assert np.array_equal(kern.law.expd0, np.exp(-records[1].d))


def test_unsealed_exchange_rejected(tmp_path):
    """A writer that raised leaves its records without a trailer: the file
    is rejected whole, and a live reader fails once the records end."""
    rng = np.random.default_rng(13)
    records = _random_records(rng)
    p = tmp_path / "x.tsmx"
    rx = _live_stream(p, records, seal=False)
    with pytest.raises(ExchangeFormatError, match="unsealed"):
        read_exchange(p)
    reader = iter(ExchangeFileReader(p, announcements=rx))
    assert [next(reader).step for _ in records] == [r.step for r in records]
    with pytest.raises(ExchangeFormatError, match="before sealing"):
        next(reader)


def test_exchange_version_1_rejected_by_name(tmp_path):
    p = tmp_path / "x.tsmx"
    p.write_bytes(struct.pack("<4sIQQ", b"TSMX", 1, 7, 3) + bytes(400))
    with pytest.raises(ExchangeFormatError, match="unsupported version 1 "):
        read_exchange(p)


def test_exchange_version_2_rejected_by_name(tmp_path):
    """Version 2 records held the strains Gauss-point-major; no reader of
    that layout is kept."""
    p = tmp_path / "x.tsmx"
    p.write_bytes(struct.pack("<4sIQQ", b"TSMX", 2, 7, 3) + bytes(400))
    with pytest.raises(ExchangeFormatError,
                       match=r"unsupported version 2 \(this reader reads version 4\)"):
        read_exchange(p)


def test_exchange_version_3_rejected_by_name(tmp_path):
    """Version 3 records held the Gauss points in the public order 8 e + q,
    version 4 in the engine's order q * n_elements + e; a version-3 file
    of the right size is still rejected by its version."""
    p = tmp_path / "x.tsmx"
    gp = 8
    record = struct.pack("<Qd", 0, 0.0) + bytes(56 * gp)
    record += struct.pack("<I", zlib.crc32(record))
    p.write_bytes(struct.pack("<4sIQQ", b"TSMX", 3, gp, 1) + record + bytes(12))
    with pytest.raises(ExchangeFormatError,
                       match=r"unsupported version 3 \(this reader reads version 4\)"):
        read_exchange(p)


def test_exchange_shorter_than_its_header_rejected(tmp_path):
    p = tmp_path / "x.tsmx"
    p.write_bytes(struct.pack("<4sIQQ", b"TSMX", 4, 7, 3)[:23])
    with pytest.raises(ExchangeFormatError, match=f"^{re.escape(str(p))}: truncated header$"):
        read_exchange(p)


def test_exchange_trailer_count_disagreeing_rejected(tmp_path):
    """A trailer that counts another number of records than the file holds
    is rejected, though every record and the stream CRC are intact."""
    p = tmp_path / "x.tsmx"
    write_exchange(_random_records(np.random.default_rng(17)), p, exchange_interval=3)
    data = bytearray(p.read_bytes())
    struct.pack_into("<Q", data, _record_offset(5), 4)
    p.write_bytes(bytes(data))
    with pytest.raises(ExchangeFormatError,
                       match="trailer counts 4 records, the stream holds 5$"):
        read_exchange(p)


def test_exchange_swapped_records_fail_the_stream_checksum(tmp_path):
    """Two equal-size records swapped keep their own CRCs; the stream CRC
    over them, in order, catches it before any record is read."""
    p = tmp_path / "x.tsmx"
    write_exchange(_random_records(np.random.default_rng(18)), p, exchange_interval=3)
    data = p.read_bytes()
    r1, r2, r3 = _record_offset(1), _record_offset(2), _record_offset(3)
    p.write_bytes(data[:r1] + data[r2:r3] + data[r1:r2] + data[r3:])
    with pytest.raises(ExchangeFormatError, match="stream checksum mismatch$"):
        ExchangeFileReader(p)


def test_exchange_steps_not_increasing_rejected(tmp_path):
    p = tmp_path / "x.tsmx"
    records = _random_records(np.random.default_rng(19), n_rec=2)
    write_exchange([records[0], replace(records[1], step=0)], p)
    with pytest.raises(ExchangeFormatError, match="steps not increasing at 0$"):
        read_exchange(p)


def test_empty_exchange_stream_not_written(tmp_path):
    p = tmp_path / "x.tsmx"
    with pytest.raises(ValueError, match="^cannot write an empty exchange stream$"):
        write_exchange([], p)
    assert not p.exists()


def test_exchange_bad_magic_rejected(tmp_path):
    p = tmp_path / "x.tsmx"
    p.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(ExchangeFormatError, match="magic"):
        read_exchange(p)


def _zero_stream(path, gp, K=1):
    """An exchange file of one all-zero record at step 0."""
    write_exchange([ExchangeRecord(0, 0.0, np.zeros((gp, 6)), np.zeros(gp))], path,
                   exchange_interval=K)
    return ExchangeFileReader(path)


def test_gp_count_mismatch_rejected_before_simulation(tmp_path):
    problem = coarse_plate_problem()
    with pytest.raises(ExchangeFormatError, match="Gauss"):
        run_order1(problem, _zero_stream(tmp_path / "x.tsmx", 3), 1e-6, [])


def test_short_source_rejected(tmp_path):
    problem = coarse_plate_problem()
    quad = ElementQuadrature.build(problem.mesh)
    reader = _zero_stream(tmp_path / "x.tsmx", quad.n_gauss)
    with pytest.raises(ValueError, match="too short"):
        run_order1(problem, reader, 1e-6, [], quad=quad)


# ---------------------------------------------------------------------------
# order-0
# ---------------------------------------------------------------------------


def test_order0_equals_deterministic_bitwise(tmp_path):
    problem = coarse_plate_problem(T=1e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    cfg = TsmConfig(exchange_interval=100)
    h0, _reader = run_order0(problem, dt, [problem.loads.total_time], cfg,
                             exchange_path=tmp_path / "x.tsmx")
    hd = run_deterministic(problem.mesh, problem.loads, problem.params, 0.0,
                           dt, [problem.loads.total_time])
    assert np.array_equal(h0.u, hd.u)
    assert np.array_equal(h0.d, hd.d)
    assert np.array_equal(h0.sigma, hd.sigma)
    assert np.array_equal(h0.forces["top"], hd.forces["top"])


def test_order0_record_schedule(tmp_path):
    problem = coarse_plate_problem(T=1e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    K = 50
    cfg = TsmConfig(exchange_interval=K)
    run_order0(problem, dt, [], cfg, exchange_path=tmp_path / "x.tsmx")
    steps = [r.step for r in read_exchange(tmp_path / "x.tsmx")]
    n_steps = int(np.ceil(problem.loads.total_time / dt - 1e-9))
    assert steps == list(range(0, n_steps + 1, K))


def test_order0_damage_monotone(tmp_path):
    problem = coarse_plate_problem()
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    T = problem.loads.total_time
    cfg = TsmConfig(exchange_interval=1000)
    h0, _ = run_order0(problem, dt, np.linspace(T / 8, T, 8), cfg,
                       exchange_path=tmp_path / "x.tsmx")
    assert np.all(np.diff(h0.d, axis=0) >= 0.0)
    f = np.exp(-h0.d)
    assert f.min() > 0.0 and f.max() <= 1.0


# ---------------------------------------------------------------------------
# order-1 against the finite-difference oracle
# ---------------------------------------------------------------------------


def _series_err(a, b):
    scale = np.abs(b).max()
    return np.abs(a - b).max() / scale if scale > 0 else np.abs(a - b).max()


def test_zero_forcing_gives_zero_order1(tmp_path):
    problem = coarse_plate_problem()
    quad = ElementQuadrature.build(problem.mesh)
    reader = _zero_stream(tmp_path / "x.tsmx", quad.n_gauss, K=10**9)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    h1 = run_order1(problem, reader, dt, [problem.loads.total_time], quad=quad)
    assert np.all(h1.u == 0.0)
    assert np.all(h1.d == 0.0)
    assert np.all(h1.forces["top"] == 0.0)


@pytest.fixture(scope="module")
def plate_tsm_and_oracle():
    problem = coarse_plate_problem()
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    T = problem.loads.total_time
    outputs = np.linspace(T / 4, T, 4)
    sol = run_tsm(problem, TsmConfig(exchange_interval=1), dt, outputs)
    oracles = {h: fd_oracle(problem, h, dt, outputs) for h in (1e-4, 2e-4)}
    return problem, sol, oracles


def test_order1_matches_fd_oracle(plate_tsm_and_oracle):
    _problem, sol, oracles = plate_tsm_and_oracle
    h1 = sol.history1
    fd = oracles[1e-4]
    assert _series_err(h1.u, fd.u) <= 1e-3
    assert _series_err(h1.d, fd.d) <= 1e-3
    assert _series_err(h1.sigma, fd.sigma) <= 1e-3
    assert _series_err(h1.forces["top"], fd.forces["top"]) <= 1e-3


def test_order1_fd_gap_is_second_order(plate_tsm_and_oracle):
    _problem, sol, oracles = plate_tsm_and_oracle
    h1 = sol.history1
    gaps = [np.abs(oracles[h].d - h1.d).max() for h in (2e-4, 1e-4)]
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.1)


def test_order1_carries_no_body_force():
    """A body force does not depend on xi, so its xi-derivative, order 1's
    load, is 0: under a body force on plate_coarse_desk (mass damping, its
    own snapshots), order 1 at K = 1 matches the finite-difference oracle
    at h = 1e-3 in u, d and the top reaction to 1e-5 of each field's
    largest, where an order 1 that kept the body force errs by 2e-4 to
    1e-3."""
    c = load_config(overrides={"problem": {"preset": "plate_coarse_desk"}})
    problem = replace(c.problem, loads=replace(c.problem.loads, body_force=(0.0, -2e5, 0.0)))
    sol = run_tsm(problem, TsmConfig(exchange_interval=1), c.dt, c.snapshot_times)
    fd = fd_oracle(problem, 1e-3, c.dt, c.snapshot_times)
    h1 = sol.history1
    assert np.abs(fd.u).max() > 0.0 and np.abs(fd.d).max() > 0.0
    assert _series_err(h1.u, fd.u) <= 1e-5
    assert _series_err(h1.d, fd.d) <= 1e-5
    assert _series_err(h1.forces["top"], fd.forces["top"]) <= 1e-5


def test_order1_elastic_limit_one_element():
    """Without damage (huge viscosity) and under pure quasi-static
    displacement control the displacement does not depend on the stiffness
    scale: u1 stays at the oracle, which is essentially zero."""
    from tsmfem.mesh import Mesh, _structured_box

    nodes, elements = _structured_box(1, 1, 1, 0.01, 0.01, 0.01)
    mesh = Mesh(nodes, elements)
    mesh.node_sets["bottom"] = np.nonzero(nodes[:, 1] < 1e-12)[0]
    mesh.node_sets["top"] = np.nonzero(nodes[:, 1] > 0.01 - 1e-12)[0]
    T = 2e-3
    loads = LoadCase(dirichlet=(
        DirichletRamp("bottom", 0, 0.0, T),
        DirichletRamp("bottom", 1, 0.0, T),
        DirichletRamp("bottom", 2, 0.0, T),
        DirichletRamp("top", 1, 1e-4, T),
    ), total_time=T)
    params = MaterialParams(lam=1e9, mu=0.8e9, rho=1000.0, eta=1e30)
    problem = Problem(mesh=mesh, loads=loads, params=params)
    dt = stable_timestep(mesh, params, 0.4)
    outputs = [T / 2, T]
    sol = run_tsm(problem, TsmConfig(exchange_interval=1), dt, outputs)
    fd = fd_oracle(problem, 1e-4, dt, outputs)
    assert _series_err(sol.history1.u, fd.u) <= 1e-3
    # stress scales with the stiffness: statically F(xi) = (1+xi) F, so the
    # first-order reaction equals the mean reaction (ring noise averages out)
    F0 = sol.history0.forces["top"][:, 1]
    F1 = sol.history1.forces["top"][:, 1]
    late = slice(len(F0) // 2, None)
    assert F1[late].mean() / F0[late].mean() == pytest.approx(1.0, abs=1e-2)
    # the displacement itself does not scale; what remains of u1 is the
    # undamped ring's phase sensitivity (FD-confirmed above), small vs u0
    assert np.abs(sol.history1.u).max() <= 0.2 * np.abs(sol.history0.u).max()


# ---------------------------------------------------------------------------
# staggered driver and exchange modes
# ---------------------------------------------------------------------------


def _assert_same_history(a: History, b: History):
    """Every array with its dtype and shape, every force series, the step
    grid and the metadata are equal; only the wall time may differ."""
    for name in ("times", "u", "d", "sigma", "force_times"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name
    assert a.forces.keys() == b.forces.keys()
    for name in a.forces:
        x, y = a.forces[name], b.forces[name]
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y), name
    assert (a.dt, a.n_steps, a.meta) == (b.dt, b.n_steps, b.meta)


def test_file_and_memory_modes_agree(tmp_path):
    problem = coarse_plate_problem(T=1e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    outputs = [problem.loads.total_time]
    for K in (1, 25):
        mem = run_tsm(problem, TsmConfig(exchange_interval=K), dt, outputs)
        fil = run_tsm(problem, TsmConfig(exchange_interval=K, exchange_mode="file"),
                      dt, outputs, exchange_path=tmp_path / f"x{K}.tsmx")
        # exact: the file is a binary f64 round trip of the held records
        _assert_same_history(mem.history0, fil.history0)
        _assert_same_history(mem.history1, fil.history1)


@pytest.fixture(scope="module")
def coarse_desk():
    cfg = load_config(overrides={"problem": {"preset": "plate_coarse_desk"}})
    return cfg, ElementQuadrature.build(cfg.problem.mesh)


@pytest.mark.parametrize("force_stride", [1, 3])
@pytest.mark.parametrize("K", [1, 7, 25, 10**9])
def test_lockstep_equals_decoupled_runs_bitwise(coarse_desk, K, force_stride, tmp_path):
    """In-memory TSM advances both orders in one loop, holding order 0's
    live state every K steps; the decoupled order-0 then order-1 runs
    through an exchange file give the same bits."""
    cfg, quad = coarse_desk
    p, config = cfg.problem, TsmConfig(exchange_interval=K)
    sol = run_tsm(p, config, cfg.dt, cfg.snapshot_times, quad=quad,
                  force_stride=force_stride)
    h0, reader = run_order0(p, cfg.dt, cfg.snapshot_times, config, quad=quad,
                            exchange_path=tmp_path / "x.tsmx", force_stride=force_stride)
    h1 = run_order1(p, reader, cfg.dt, cfg.snapshot_times, quad=quad,
                    force_stride=force_stride)
    _assert_same_history(sol.history0, h0)
    _assert_same_history(sol.history1, h1)


def test_lockstep_memory_does_not_grow_with_exchange_rate():
    """An exchange record every step (K=1) costs in-memory TSM less than a
    tenth of the bytes the whole record stream would hold, compared with a
    single record (K=10**9)."""
    problem = coarse_plate_problem(T=1e-3)
    quad = ElementQuadrature.build(problem.mesh)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    outputs = [problem.loads.total_time]

    def traced_peak(K):
        tracemalloc.start()
        try:
            sol = run_tsm(problem, TsmConfig(exchange_interval=K), dt, outputs, quad=quad)
            return tracemalloc.get_traced_memory()[1], sol.history0.n_steps
        finally:
            tracemalloc.stop()

    peak_rare, _ = traced_peak(10**9)
    peak_every, n_steps = traced_peak(1)
    record_bytes = (n_steps + 1) * quad.n_gauss * 56
    assert record_bytes > 4e6
    assert peak_every - peak_rare < 0.1 * record_bytes


@pytest.mark.parametrize("mode, order, start_method", [
    *(pytest.param(mode, order, tsm._START_METHOD, id=f"{mode}-{order}")
      for mode in ("in_memory", "file") for order in (0, 1)),
    pytest.param("file", 0, "spawn", id="file-0-spawn"),
])
def test_tsm_instability_names_the_order(monkeypatch, mode, order, start_method):
    """A non-finite state names its TSM order, in either exchange mode and
    with order 1's process spawned as where the platform cannot fork."""
    monkeypatch.setattr(tsm, "_START_METHOD", start_method)
    if order == 0:
        # far past the CFL limit with damage off, so nothing caps the growth
        problem, dt, step = coarse_plate_problem(T=1000.0, eta=1e300), 1.0, 64
    else:
        # a stable run whose order-1 stress turns non-finite at step 70
        stress1 = FirstOrderKernels.stress

        def poisoned(self, d1, eps1, step):
            sigma = stress1(self, d1, eps1, step)
            return sigma * np.nan if step == 70 else sigma

        monkeypatch.setattr(FirstOrderKernels, "stress", poisoned)
        problem = coarse_plate_problem(T=1e-3)
        dt, step = stable_timestep(problem.mesh, problem.params, 0.5), 128
    config = TsmConfig(exchange_interval=1, exchange_mode=mode)
    with pytest.raises(InstabilityError) as err, np.errstate(over="ignore", invalid="ignore"):
        run_tsm(problem, config, dt, [problem.loads.total_time])
    assert (err.value.step, err.value.xi, err.value.order) == (step, None, order)
    assert str(err.value).endswith(f"in TSM order {order}")
    assert not multiprocessing.active_children()


def test_file_mode_names_order0_when_order1_could_fail_first(monkeypatch):
    """Order 0 diverges at its step-64 scan, right after announcing the
    record of step 63, from which order 1 would fail at its own step-64
    scan.  However long the parent is descheduled around that announcement
    (here 0.5 s, in the parent's poll for the child's failure), the error
    is order 0's: the parent polls before it sends the record.  The parent
    polls once per announcement: the header's, then one per record, so
    the 65th poll is the announcement of the record of step 63."""
    parent, polls = os.getpid(), []
    poll = multiprocessing.connection.Connection.poll

    def delayed(self, *args):
        if os.getpid() == parent:
            polls.append(None)
            if len(polls) == 65:
                time.sleep(0.5)
        return poll(self, *args)

    monkeypatch.setattr(multiprocessing.connection.Connection, "poll", delayed)
    problem = coarse_plate_problem(T=1000.0, eta=1e300)
    config = TsmConfig(exchange_interval=1, exchange_mode="file")
    with pytest.raises(InstabilityError) as err, np.errstate(over="ignore", invalid="ignore"):
        run_tsm(problem, config, 1.0, [problem.loads.total_time])
    assert len(polls) == 65
    assert (err.value.step, err.value.xi, err.value.order) == (64, None, 0)
    assert not multiprocessing.active_children()


def test_file_mode_runs_order1_in_a_child_that_is_joined(tmp_path, monkeypatch):
    """File mode runs order 1 in a child process (its kernels never run in
    this one) and joins it before returning."""
    pids = set()
    stress1 = FirstOrderKernels.stress

    def recording(self, d1, eps1, step):
        pids.add(os.getpid())
        return stress1(self, d1, eps1, step)

    monkeypatch.setattr(FirstOrderKernels, "stress", recording)
    problem = coarse_plate_problem(T=1e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    sol = run_tsm(problem, TsmConfig(exchange_interval=5, exchange_mode="file"), dt,
                  [problem.loads.total_time], exchange_path=tmp_path / "x.tsmx")
    assert not pids  # the parent never evaluated order 1
    assert not multiprocessing.active_children()
    assert sol.order1_wait >= 0.0
    assert sol.order1_peak_rss_mb > 0.0  # the child's own, sent with its history
    assert ExchangeFileReader(tmp_path / "x.tsmx").n_records == sol.history0.n_steps // 5 + 1


@pytest.mark.parametrize("K", [1, 7])
def test_file_mode_spawned_order1_equals_in_memory_bitwise(coarse_desk, K, monkeypatch):
    """Where the platform cannot fork, file mode spawns order 1's process, a
    fresh interpreter that gets everything by argument: an order-1 kernel
    patched in this process does not reach it.  Both histories equal
    in-memory mode's bitwise, and the child is joined."""
    cfg, quad = coarse_desk
    p = cfg.problem
    mem = run_tsm(p, TsmConfig(exchange_interval=K), cfg.dt, cfg.snapshot_times, quad=quad)

    def not_here(self, d1, eps1, step):
        raise AssertionError("order 1 ran in the parent or in a forked copy of it")

    monkeypatch.setattr(FirstOrderKernels, "stress", not_here)
    monkeypatch.setattr(tsm, "_START_METHOD", "spawn")
    fil = run_tsm(p, TsmConfig(exchange_interval=K, exchange_mode="file"), cfg.dt,
                  cfg.snapshot_times, quad=quad)
    _assert_same_history(mem.history0, fil.history0)
    _assert_same_history(mem.history1, fil.history1)
    assert fil.order1_peak_rss_mb > 0.0
    assert not multiprocessing.active_children()


_UNGUARDED_SCRIPT = """
from tsmfem import tsm
from tsmfem.config import load_config

tsm._START_METHOD = "spawn"
cfg = load_config(overrides={"problem": {"preset": "plate_coarse_desk"},
                             "tsm": {"exchange_mode": "file"}})
tsm.run_tsm(cfg.problem, cfg.tsm, cfg.dt, cfg.snapshot_times)
"""


def test_spawned_order1_that_cannot_import_main_fails_not_hangs(tmp_path):
    """A spawned child imports the caller's main module; a script without
    an ``if __name__ == "__main__":`` guard makes the child run file mode
    itself while bootstrapping, and die.  The script then fails with a
    ``ChildProcessError`` naming the exit code, within the timeout."""
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED_SCRIPT)
    src = os.path.dirname(os.path.dirname(tsm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode != 0
    assert "ChildProcessError: the order-1 process exited with code 1" in proc.stderr


def test_file_mode_problem_that_cannot_be_sent_fails_and_stops_the_child():
    """The problem reaches order 1's process over its pipe; one that cannot
    be pickled raises in the caller, and the waiting child is stopped."""
    class LocalTime(float):  # a class defined here does not pickle
        pass

    problem = coarse_plate_problem(T=1e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    outputs = [LocalTime(problem.loads.total_time)]
    with pytest.raises((pickle.PicklingError, AttributeError), match="local"):
        run_tsm(problem, TsmConfig(exchange_interval=5, exchange_mode="file"), dt, outputs)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("mode", ["in_memory", "file"])
def test_one_shot_output_times_reach_both_orders(mode):
    """``output_times`` may be a generator: both orders record the same
    snapshots as from a list, in either exchange mode."""
    problem = coarse_plate_problem(T=1e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    T = problem.loads.total_time
    config = TsmConfig(exchange_interval=5, exchange_mode=mode)
    listed = run_tsm(problem, config, dt, [T / 2, T])
    once = run_tsm(problem, config, dt, (t for t in [T / 2, T]))
    assert listed.history1.d.shape[0] == 2
    _assert_same_history(once.history0, listed.history0)
    _assert_same_history(once.history1, listed.history1)
    uq_summary(once)
    assert not multiprocessing.active_children()


def test_order1_result_arrives_out_of_band_without_a_second_copy(monkeypatch):
    """Order 1's history crosses from its process as a pickle without the
    array data and the data straight into the buffers the arrays keep:
    receiving it traces about one copy of the history, not the pickled
    bytes and then the decoded arrays."""
    peaks = []
    result = tsm._Order1Process.result

    def traced_result(self):
        tracemalloc.start()
        try:
            out = result(self)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(tsm._Order1Process, "result", traced_result)
    problem = coarse_plate_problem(T=4e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    outputs = np.linspace(0.0, problem.loads.total_time, 40)
    sol = run_tsm(problem, TsmConfig(exchange_interval=5, exchange_mode="file"), dt,
                  outputs)
    h1 = sol.history1
    nbytes = sum(a.nbytes for a in (h1.times, h1.u, h1.d, h1.sigma, h1.force_times,
                                    *h1.forces.values()))
    assert nbytes > 5e5
    assert peaks[0] < 1.2 * nbytes, (peaks[0], nbytes)
    assert h1.sigma.flags.writeable


def test_order1_failure_in_pickling_its_result_reaches_the_parent(monkeypatch):
    """A history that cannot be pickled fails in order 1's process before
    anything is sent, so the parent raises the child's own error."""
    run = tsm.run_order1

    def unpicklable(*args, **kwargs):
        hist = run(*args, **kwargs)
        hist.meta["callback"] = lambda: None
        return hist

    monkeypatch.setattr(tsm, "run_order1", unpicklable)
    problem = coarse_plate_problem(T=1e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    with pytest.raises((pickle.PicklingError, AttributeError), match="lambda"):
        run_tsm(problem, TsmConfig(exchange_interval=5, exchange_mode="file"), dt,
                [problem.loads.total_time])
    assert not multiprocessing.active_children()


def test_order1_failure_while_sending_its_result_is_a_child_process_error(monkeypatch):
    """Order 1's process fails after the first message of its result: the
    parent, waiting for the array data, raises ``ChildProcessError``
    naming the exit code, and no child is left."""
    send, parent = tsm._send_out_of_band, os.getpid()

    def failing_in_the_child(conn, head, views):
        if os.getpid() == parent:  # the problem, sent to the child
            return send(conn, head, views)
        conn.send((head, [v.nbytes for v in views]))
        raise RuntimeError("order 1 failed while sending its result")

    monkeypatch.setattr(tsm, "_send_out_of_band", failing_in_the_child)
    problem = coarse_plate_problem(T=1e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    with pytest.raises(ChildProcessError, match="exited with code 1 and no result"):
        run_tsm(problem, TsmConfig(exchange_interval=5, exchange_mode="file"), dt,
                [problem.loads.total_time])
    assert not multiprocessing.active_children()


def test_file_mode_with_a_path_makes_no_temporary_directory(tmp_path, monkeypatch):
    """Given ``exchange_path``, file mode writes there and creates no
    temporary directory."""
    def no_tmp():
        raise AssertionError("file mode created a temporary directory")

    monkeypatch.setattr(tsm.tempfile, "TemporaryDirectory", no_tmp)
    problem = coarse_plate_problem(T=1e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    sol = run_tsm(problem, TsmConfig(exchange_interval=5, exchange_mode="file"), dt,
                  [problem.loads.total_time], exchange_path=tmp_path / "x.tsmx")
    assert ExchangeFileReader(tmp_path / "x.tsmx").n_records == sol.history0.n_steps // 5 + 1


def _interrupting(stress):
    """``stress`` that raises KeyboardInterrupt at step 40."""

    def interrupting(self, d, eps, step):
        if step == 40:
            raise KeyboardInterrupt
        return stress(self, d, eps, step)

    return interrupting


@pytest.mark.parametrize("kernels", [DeterministicKernels, FirstOrderKernels],
                         ids=["order0", "order1"])
def test_file_mode_interrupt_stops_both_processes(monkeypatch, kernels):
    """An interrupt in either order's kernel (order 1's raised in the child
    and sent back) reaches the caller, and no child outlives it."""
    monkeypatch.setattr(kernels, "stress", _interrupting(kernels.stress))
    problem = coarse_plate_problem(T=1e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    with pytest.raises(KeyboardInterrupt):
        run_tsm(problem, TsmConfig(exchange_interval=1, exchange_mode="file"), dt, [])
    assert not multiprocessing.active_children()


def test_order1_failure_stops_order0_at_its_next_record(monkeypatch, tmp_path):
    """Order 1 fails at step 70 in the child, once order 0 has reached
    step 70 (order 1 could otherwise fail there while order 0 is still at
    step 69, the last record it needs).  Order 0, which pauses at step 100
    until the child has failed, stops at its next record: it does not run
    on to its last step."""
    marker, reached = tmp_path / "order1_failed", tmp_path / "order0_at_70"
    stress0, stress1 = DeterministicKernels.stress, FirstOrderKernels.stress
    steps0 = []

    def failing(self, d1, eps1, step):
        if step == 70:
            deadline = time.monotonic() + 60.0
            while not reached.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            marker.touch()
            raise RuntimeError("order 1 failed at step 70")
        return stress1(self, d1, eps1, step)

    def pausing(self, d, eps, step):
        steps0.append(step)
        if step == 70:
            reached.touch()
        if step == 100:
            deadline = time.monotonic() + 60.0
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.5)  # the child's error is sent after the marker
        return stress0(self, d, eps, step)

    monkeypatch.setattr(FirstOrderKernels, "stress", failing)
    monkeypatch.setattr(DeterministicKernels, "stress", pausing)
    problem = coarse_plate_problem(T=4e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    with pytest.raises(RuntimeError, match="order 1 failed at step 70"):
        run_tsm(problem, TsmConfig(exchange_interval=1, exchange_mode="file"), dt, [])
    n_steps = int(np.ceil(problem.loads.total_time / dt))
    assert 70 <= max(steps0) <= 100 < n_steps
    assert not multiprocessing.active_children()


def test_lockstep_wall_times_add_up_to_the_observed_time():
    problem = coarse_plate_problem(T=1e-3)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    t0 = time.perf_counter()
    sol = run_tsm(problem, TsmConfig(exchange_interval=1), dt, [problem.loads.total_time])
    elapsed = time.perf_counter() - t0
    h0, h1 = sol.history0, sol.history1
    assert h0.wall_time > 0.0 and h1.wall_time > 0.0
    assert h0.wall_time + h1.wall_time <= elapsed


def test_first_order_kernels_match_reference_ops(tmp_path):
    """The step callbacks evaluate the material law classes; what that does
    not make true by construction is checked here: the order-0 cache is
    refreshed when the step changes, and the order-1 hold takes a record at
    every K-th step and keeps it in between."""
    rng = np.random.default_rng(3)
    gp = 40
    E0 = MaterialParams(lam=1e9, mu=0.8e9, rho=1e3, eta=1e3).stiffness
    eps = rng.normal(0, 1e-3, (3, gp, 6))
    d = rng.uniform(0, 2, (3, gp))
    dt, eta = 1e-6, 1e3

    # order 0 over two consecutive steps with different states
    E = 1.1 * E0
    det = DeterministicKernels(E, eta, dt)
    for step in (0, 1):
        assert np.array_equal(det.stress(d[step], eps[step], step),
                              Order0Law(E, 1.0, 0.0).stress(d[step], eps[step], 0))
        assert np.array_equal(det.damage(d[step], eps[step], step),
                              Order0Law(E, eta, dt).damage(d[step], eps[step], 0))

    # order 1 at K=2, records at steps 0, 2 and 4, every step in turn
    path = tmp_path / "x.tsmx"
    write_exchange([ExchangeRecord(s, s * dt, eps[i], d[i]) for i, s in enumerate((0, 2, 4))],
                   path, exchange_interval=2)
    kern = FirstOrderKernels(E0, eta, dt, ExchangeFileReader(path))
    eps1, d1 = rng.normal(0, 1e-3, (gp, 6)), rng.uniform(-1, 1, gp)
    for step, held in enumerate((0, 0, 1, 1, 2, 2)):
        assert np.array_equal(kern.stress(d1, eps1, step),
                              Order1Law(E0, 1.0, 0.0).hold(eps[held], d[held]).stress(d1, eps1))
        assert np.array_equal(kern.damage(d1, eps1, step),
                              Order1Law(E0, eta, dt).hold(eps[held], d[held]).damage(d1, eps1))


@pytest.mark.parametrize("K, steps, bad_step", [
    (1, (0, 3, 4), 1),  # a gap: step 1 finds step 3's record
    (3, (0, 3, 5), 6),  # off the K grid
    (2, (0, 2), 4),  # the stream ends early
])
def test_order1_rejects_records_off_the_k_grid(tmp_path, K, steps, bad_step):
    """Order 1 takes a record at every step n with n % K == 0 and checks
    that it is step n's; any other sequence fails there, naming the step."""
    gp = 4
    path = tmp_path / "x.tsmx"
    write_exchange([ExchangeRecord(s, s * 1e-6, np.zeros((gp, 6)), np.zeros(gp))
                    for s in steps], path, exchange_interval=K)
    E0 = MaterialParams(lam=1e9, mu=0.8e9, rho=1e3, eta=1e3).stiffness
    kern = FirstOrderKernels(E0, 1e3, 1e-6, ExchangeFileReader(path))
    for step in range(bad_step):
        kern.stress(np.zeros(gp), np.zeros((gp, 6)), step)
    with pytest.raises(ExchangeFormatError, match=f"step {bad_step} needs"):
        kern.stress(np.zeros(gp), np.zeros((gp, 6)), bad_step)


def test_in_memory_exchange_is_a_one_record_mailbox():
    """The hook posts every K-th step's arrays themselves, not copies, and
    the mailbox holds one record until it is taken."""
    box = InMemoryExchange(2)
    eps, d = np.ones((3, 6)), np.ones(3)
    box.hook(1, 1e-6, eps, d)
    assert next(box, None) is None
    box.hook(2, 2e-6, eps, d)
    rec = next(box)
    assert (rec.step, rec.time) == (2, 2e-6) and rec.eps is eps and rec.d is d
    assert next(box, None) is None


def test_exchange_subsampling_error_study():
    """The order-0 fields (hence the expectations) are exactly K-independent;
    the zero-order hold perturbs only the first-order fields, with an error
    that grows with the exchange interval."""
    problem = coarse_plate_problem()
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    T = problem.loads.total_time
    outputs = [T / 2, T]
    ref = run_tsm(problem, TsmConfig(exchange_interval=1), dt, outputs)
    uref = uq_summary(ref)
    errs = []
    for K in (10, 40, 100):
        sol = run_tsm(problem, TsmConfig(exchange_interval=K), dt, outputs)
        assert np.array_equal(ref.history0.d, sol.history0.d)  # K-independent
        uq = uq_summary(sol)
        assert np.abs(uref.f_mean - uq.f_mean).max() == 0.0
        errs.append(np.abs(uref.f_std - uq.f_std).max() / uref.f_std.max())
    assert errs[0] <= 0.06  # ~1.4% of the ramp held per record
    assert errs[0] < errs[1] < errs[2]


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def _synthetic_solution(d0, d1, xi2):
    ngp, S = 4, 2
    times = np.array([0.5, 1.0])
    f_times = np.array([0.0, 0.5, 1.0])

    def hist(dval, sval, fval):
        return History(
            times=times, u=np.zeros((S, 2, 3)),
            d=np.full((S, ngp), dval), sigma=np.full((S, ngp, 6), sval),
            force_times=f_times, forces={"top": np.full((3, 3), fval)},
            dt=0.1, n_steps=10, meta={"loaded_sets": ["top"]},
        )

    return TsmSolution(history0=hist(d0, 2.0, 5.0), history1=hist(d1, -1.5, -2.0),
                       config=TsmConfig(xi_second_moment=xi2))


def test_uq_zero_variance():
    sol = _synthetic_solution(0.3, 0.9, 0.0)
    uq = uq_summary(sol)
    assert np.all(uq.d_std == 0.0)
    assert np.all(uq.f_std == 0.0)
    assert np.array_equal(uq.d_mean, sol.history0.d)
    assert np.array_equal(uq.f_mean, np.exp(-sol.history0.d))


def test_uq_plug_in_values():
    # d0 = ln 2, d1 = 0.75, sqrt(<xi^2>) = 0.1:
    # <f> = 0.5 and Std(f) = 0.1 * 0.5 * 0.75 = 0.0375
    sol = _synthetic_solution(np.log(2.0), 0.75, 0.01)
    uq = uq_summary(sol)
    assert uq.f_mean[0, 0] == pytest.approx(0.5, rel=1e-14)
    assert uq.f_std[0, 0] == pytest.approx(0.0375, rel=1e-12)
    assert uq.d_std[0, 0] == pytest.approx(0.075, rel=1e-12)
    # standard deviations are nonnegative even though f1 < 0
    assert np.all(uq.f_std >= 0.0)
    assert np.all(uq.force_std >= 0.0)


def test_uq_std_scales_linearly():
    a = uq_summary(_synthetic_solution(0.4, 0.6, 0.01))
    b = uq_summary(_synthetic_solution(0.4, 0.6, 0.04))
    np.testing.assert_allclose(b.d_std, 2.0 * a.d_std, rtol=1e-14)
    np.testing.assert_allclose(b.f_std, 2.0 * a.f_std, rtol=1e-14)
    np.testing.assert_allclose(b.force_std, 2.0 * a.force_std, rtol=1e-14)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _fields(h):
    return [h.times, h.u, h.d, h.sigma, h.force_times, *h.forces.values()]


def test_uq_means_are_order0s_arrays_and_std_fields_are_new(plate_tsm_and_oracle):
    """The means alias history0 (no copies); each Std field is bitwise
    sqrt(<xi^2>) |first-order field|, in an array of its own; and the
    solution is left bitwise as it was."""
    _problem, sol, _oracles = plate_tsm_and_oracle
    h0, h1 = sol.history0, sol.history1
    held = _fields(h0) + _fields(h1)
    before = [a.copy() for a in held]
    uq = uq_summary(sol)
    name = uq.force_set
    for mean, own in ((uq.times, h0.times), (uq.d_mean, h0.d), (uq.sigma_mean, h0.sigma),
                      (uq.force_times, h0.force_times), (uq.force_mean, h0.forces[name])):
        assert np.shares_memory(mean, own)
    s = np.sqrt(sol.config.xi_second_moment)
    f1 = -np.exp(-h0.d) * h1.d
    for std, first in ((uq.d_std, h1.d), (uq.f_std, f1), (uq.sigma_std, h1.sigma),
                       (uq.force_std, h1.forces[name])):
        assert np.array_equal(_bits(std), _bits(s * np.abs(first)))
        assert not any(np.shares_memory(std, a) for a in held)
    assert np.any(f1 < 0.0) and np.any(h1.sigma < 0.0)  # the absolute value is exercised
    assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(held, before))
