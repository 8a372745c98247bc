"""The benchmark under ``bench/`` hooks into the program by name: its span
tracer (``bench/tracing.py``) patches public functions and methods, and
its host-speed pacer (``bench/pacer.py``) ticks after every
``ExplicitEngine.advance``.  Renaming or removing one of those names fails
here, in the test suite, not only in a traced benchmark run."""

import inspect
import sys
from pathlib import Path

import pytest

from tsmfem import cli, config, export, montecarlo, solver, tsm
from tsmfem.config import load_config
from tsmfem.solver import ExplicitEngine, run_deterministic

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import pacer
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return pacer, tracing


def _patchable_state():
    """Every attribute the tracer may patch, by owner."""
    owners = [cli, config, export, montecarlo, solver, tsm, solver.ElementQuadrature,
              solver.ExplicitEngine, solver.DeterministicKernels, tsm.FirstOrderKernels,
              tsm.ExchangeFileWriter, tsm.InMemoryExchange, tsm.ExchangeFileReader]
    state = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    state.update({("generators", k): v for k, v in config._GENERATORS.items()})
    state.update({("dispatch", k): v for k, v in cli._DISPATCH.items()})
    return state


def test_tracer_finds_every_hook_point_and_restores_them(bench):
    _pacer, tracing = bench
    before = _patchable_state()
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        labels = set(tracer.labels)
    finally:
        tracer.restore()
    # the labels the benchmark's per-layer metrics are computed from
    assert {"config.load_config", "solver.quad_build", "solver.strains",
            "solver.engine_init", "solver.initial_state", "solver.evaluate",
            "solver.advance", "solver.run_with_kernels", "solver.run_deterministic",
            "material.stress0", "material.damage0", "material.stress1",
            "material.damage1", "tsm.run_tsm", "tsm.run_order0", "tsm.run_order1",
            "tsm.uq_summary", "tsm.exchange_write", "tsm.exchange_seal",
            "tsm.exchange_hold", "tsm.exchange_verify", "tsm.exchange_read",
            "montecarlo.run_mc", "cli.main"} <= labels
    after = _patchable_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_pacer_ticks_once_per_advance_and_uninstalls(bench):
    pacer, _tracing = bench
    orig = inspect.getattr_static(ExplicitEngine, "advance")
    pc = pacer.Pacer(lambda: 0.0, warmup=0)
    ticks = []
    pc.tick = lambda: ticks.append(1)
    cfg = load_config(overrides={"problem": {"preset": "plate_coarse_desk"},
                                 "load": {"total_time": 2e-4, "ramp_end": 2e-4}})
    p = cfg.problem
    pc.install(ExplicitEngine)
    try:
        hist = run_deterministic(p.mesh, p.loads, p.params, 0.0, cfg.dt, [])
    finally:
        pc.uninstall()
    assert inspect.getattr_static(ExplicitEngine, "advance") is orig
    assert len(ticks) == hist.n_steps > 0
