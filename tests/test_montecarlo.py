"""Sampling, ensemble statistics, the FD oracle, and comparison reports."""

import functools
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from tsmfem import montecarlo
from tsmfem.montecarlo import (
    LineTable,
    McEnsemble,
    XiDistribution,
    compare,
    element_average,
    extract_line,
    fd_oracle,
    mc_statistics,
    run_mc,
    sample_xi,
    sigma_norm,
)
from tsmfem.solver import (
    ElementQuadrature,
    InstabilityError,
    run_deterministic,
    stable_timestep,
)
from tsmfem.tsm import TsmConfig, run_tsm, uq_summary

from test_tsm import coarse_plate_problem


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_deterministic_for_seed():
    d = XiDistribution(seed=42)
    assert np.array_equal(sample_xi(d, 100), sample_xi(d, 100))
    d2 = XiDistribution(seed=43)
    assert not np.array_equal(sample_xi(d, 100), sample_xi(d2, 100))


def test_sampling_moments_and_truncation():
    d = XiDistribution(std=0.1, truncation=0.9, seed=7)
    xi = sample_xi(d, 100_000)
    assert np.abs(xi).max() <= 0.9
    assert np.all(1.0 + xi > 0.1)
    assert abs(xi.mean()) <= 3 * 0.1 / np.sqrt(100_000)  # CLT band
    assert xi.var() == pytest.approx(0.01, rel=0.02)


def test_truncation_near_std_resamples_until_every_draw_is_inside():
    """With the bound at 1.1 std most first draws lie outside it: each is
    drawn again, in place, until none does; the draws inside the bound
    are kept, and a seed gives the same sample every time."""
    d = XiDistribution(std=0.1, truncation=0.11, seed=3)
    first = np.random.default_rng(d.seed).normal(0.0, d.std, size=1000)
    outside = np.abs(first) > d.truncation
    assert outside.sum() > 200  # the resampling loop has work to do
    xi = sample_xi(d, 1000)
    assert np.abs(xi).max() <= d.truncation
    assert np.array_equal(xi[~outside], first[~outside])
    assert np.array_equal(sample_xi(d, 1000), xi)
    assert not np.array_equal(sample_xi(replace(d, seed=4), 1000), xi)


def test_uniform_kind_bounds_and_variance():
    d = XiDistribution(kind="uniform", std=0.1, seed=11)
    xi = sample_xi(d, 100_000)
    half = np.sqrt(3) * 0.1
    assert np.abs(xi).max() <= half
    assert xi.var() == pytest.approx(0.01, rel=0.02)


def test_distribution_validation():
    with pytest.raises(ValueError):
        XiDistribution(std=0.95, truncation=0.9)
    with pytest.raises(ValueError):
        XiDistribution(kind="cauchy")
    with pytest.raises(ValueError):
        XiDistribution(truncation=1.5)
    XiDistribution(kind="uniform", std=0.1, truncation=0.18)  # sqrt(3) * 0.1 = 0.173
    with pytest.raises(ValueError, match=r"uniform half-width sqrt\(3\)\*std exceeds"):
        XiDistribution(kind="uniform", std=0.1, truncation=0.17)
    with pytest.raises(ValueError):
        sample_xi(XiDistribution(), 0)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_problem():
    return coarse_plate_problem(T=1e-3)


@pytest.fixture(scope="module")
def tiny_dt(tiny_problem):
    return stable_timestep(tiny_problem.mesh, tiny_problem.params, 0.4)


def test_single_zero_sample_equals_deterministic(tiny_problem, tiny_dt):
    T = tiny_problem.loads.total_time
    ens = run_mc(tiny_problem, [0.0], tiny_dt, [T])
    det = run_deterministic(tiny_problem.mesh, tiny_problem.loads,
                            tiny_problem.params, 0.0, tiny_dt, [T])
    assert np.array_equal(ens.histories[0].d, det.d)
    assert np.array_equal(ens.histories[0].u, det.u)


def test_statistics_permutation_invariant(tiny_problem, tiny_dt):
    T = tiny_problem.loads.total_time
    xis = [-0.1, 0.05, 0.12]
    a = mc_statistics(run_mc(tiny_problem, xis, tiny_dt, [T]))
    b = mc_statistics(run_mc(tiny_problem, xis[::-1], tiny_dt, [T]))
    np.testing.assert_allclose(a.f_mean, b.f_mean, rtol=1e-12)
    np.testing.assert_allclose(a.f_std, b.f_std, rtol=1e-9, atol=1e-18)


def test_statistics_identical_histories_zero_std(tiny_problem, tiny_dt):
    T = tiny_problem.loads.total_time
    ens = run_mc(tiny_problem, [0.05, 0.05], tiny_dt, [T])
    stats = mc_statistics(ens)
    assert np.all(stats.f_std == 0.0)
    assert np.all(stats.force_std == 0.0)


def test_statistics_equal_the_whole_stack_formulas(tiny_problem, tiny_dt):
    """The moments are taken one snapshot at a time; each must equal, bit
    for bit, numpy's mean and std over the whole stacked ensemble."""
    T = tiny_problem.loads.total_time
    ens = run_mc(tiny_problem, [-0.1, 0.02, 0.05, 0.12], tiny_dt, [T / 3, 2 * T / 3, T])
    stats = mc_statistics(ens)
    d = np.stack([h.d for h in ens.histories])
    sigma = np.stack([h.sigma for h in ens.histories])
    for got, stack in ((("d_mean", "d_std"), d), (("f_mean", "f_std"), np.exp(-d)),
                       (("sigma_mean", "sigma_std"), sigma)):
        mean, std = (getattr(stats, name) for name in got)
        assert mean.shape == std.shape == stack.shape[1:]
        assert np.array_equal(mean, stack.mean(axis=0))
        assert np.array_equal(std, stack.std(axis=0, ddof=1))


def test_statistics_require_two_samples(tiny_problem, tiny_dt):
    ens = run_mc(tiny_problem, [0.0], tiny_dt, [tiny_problem.loads.total_time])
    with pytest.raises(ValueError):
        mc_statistics(ens)


def test_two_point_ensemble_matches_fd_algebra(tiny_problem, tiny_dt):
    """{+h, -h}: mean = q(0) + O(h^2) and the (n-1)-normalized std equals
    sqrt(2) h |q'| where q' is the central difference."""
    T = tiny_problem.loads.total_time
    h = 0.05
    ens = run_mc(tiny_problem, [+h, -h], tiny_dt, [T])
    stats = mc_statistics(ens)
    oracle = fd_oracle(tiny_problem, h, tiny_dt, [T])
    expected_std = np.sqrt(2.0) * h * np.abs(oracle.d)
    np.testing.assert_allclose(stats.d_std, expected_std, rtol=1e-10, atol=1e-300)
    det = run_deterministic(tiny_problem.mesh, tiny_problem.loads,
                            tiny_problem.params, 0.0, tiny_dt, [T])
    gap = np.abs(stats.d_mean - det.d).max()
    assert gap <= 2.0 * h**2 * max(np.abs(det.d).max(), 1.0)


def test_invalid_sample_rejected(tiny_problem, tiny_dt):
    with pytest.raises(ValueError):
        run_mc(tiny_problem, [-1.2], tiny_dt, [tiny_problem.loads.total_time])


def test_fd_oracle_rejects_large_h(tiny_problem, tiny_dt):
    with pytest.raises(ValueError):
        fd_oracle(tiny_problem, 1.5, tiny_dt, [tiny_problem.loads.total_time])


def _unstable_plate(cfl: float):
    """A damage-free coarse plate run for 300 steps at ``cfl`` times the
    mean's CFL estimate: at 1.0 its realizations with xi >= 0.3 diverge to
    a non-finite state well inside the run and those with xi <= -0.5 stay
    finite; at 2.0 both xi = 0.5 and xi = -0.5 diverge."""
    base = coarse_plate_problem(eta=1e300)
    dt = cfl * stable_timestep(base.mesh, base.params, 1.0)
    return coarse_plate_problem(T=300 * dt, eta=1e300), dt


@pytest.mark.parametrize("workers", [1, 2])
def test_run_mc_instability_names_the_first_unstable_sample(workers):
    """The error of an aborted ensemble names the first unstable sample in
    ensemble order, for any worker count: a worker's error reaches the
    caller whole, not as a broken process pool."""
    problem, dt = _unstable_plate(1.0)
    samples = [-0.6, -0.5, 0.5, 0.8, 0.3]
    with pytest.raises(InstabilityError) as err, np.errstate(over="ignore", invalid="ignore"):
        run_mc(problem, samples, dt, [problem.loads.total_time], workers=workers)
    assert (err.value.xi, err.value.order) == (0.5, None)
    assert "(sample xi=0.5)" in str(err.value)


_RUN_SAMPLE = montecarlo._run_sample


def _marked_run_sample(marker_dir, job, quad=None):
    """``montecarlo._run_sample`` that first leaves a marker file in
    ``marker_dir``, one per sample started."""
    fd, _ = tempfile.mkstemp(dir=marker_dir)
    os.close(fd)
    return _RUN_SAMPLE(job, quad)


def test_run_mc_does_not_run_queued_samples_after_an_unstable_one(monkeypatch, tmp_path):
    """With two workers, the first sample diverges at step 256 of 3000 while
    the 15 stable ones behind it wait: only those already handed to a
    worker still run (six here), the rest are cancelled.  (In chunks of
    four samples, 13 of the 16 ran before the error was raised.)"""
    base = coarse_plate_problem(eta=1e300)
    dt = stable_timestep(base.mesh, base.params, 1.0)
    problem = coarse_plate_problem(T=3000 * dt, eta=1e300)
    monkeypatch.setattr(montecarlo, "_run_sample",
                        functools.partial(_marked_run_sample, str(tmp_path)))
    samples = [0.5] + [-0.6] * 15
    with pytest.raises(InstabilityError) as err:
        run_mc(problem, samples, dt, [problem.loads.total_time], workers=2)
    assert (err.value.xi, err.value.step) == (0.5, 256)
    assert len(os.listdir(tmp_path)) <= len(samples) // 2


def test_parallel_run_mc_builds_one_quadrature(monkeypatch):
    """``run_mc`` builds the quadrature once and hands it to each worker,
    so no sample builds its own: with every later build failing, two
    workers still run all four samples, bitwise as one process does."""
    build = ElementQuadrature.build.__func__
    calls = []

    def build_once(cls, mesh):
        calls.append(os.getpid())
        if len(calls) > 1:
            raise RuntimeError("a sample built its own quadrature")
        return build(cls, mesh)

    monkeypatch.setattr(ElementQuadrature, "build", classmethod(build_once))
    problem = coarse_plate_problem(T=2e-4)
    dt = stable_timestep(problem.mesh, problem.params, 0.5)
    samples, times = [-0.2, -0.1, 0.1, 0.2], [problem.loads.total_time]
    par = run_mc(problem, samples, dt, times, workers=2)
    assert calls == [os.getpid()]
    ser = run_mc(problem, samples, dt, times, quad=build(ElementQuadrature, problem.mesh))
    for a, b in zip(par.histories, ser.histories):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.forces["top"], b.forces["top"])


def test_run_mc_starts_at_most_one_process_per_sample(monkeypatch):
    """A pool of ``workers`` processes starts them all at once, so
    ``run_mc`` asks for no more than there are samples.  A stand-in
    executor records the request; no process is started."""
    asked = []

    class Recorder:
        def __init__(self, max_workers, **kwargs):
            asked.append(max_workers)
            raise RuntimeError("recorded")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", Recorder)
    problem = coarse_plate_problem()
    for workers, n in [(64, 3), (2, 5)]:
        with pytest.raises(RuntimeError, match="recorded"):
            run_mc(problem, [0.0] * n, 1e-6, [], workers=workers)
    assert asked == [3, 2]


def test_fd_oracle_instability_names_the_plus_h_run():
    """Both perturbed runs diverge; the error names the first, at +h."""
    problem, dt = _unstable_plate(2.0)
    with pytest.raises(InstabilityError) as err, np.errstate(over="ignore", invalid="ignore"):
        run_deterministic(problem.mesh, problem.loads, problem.params, -0.5, dt, [])
    assert err.value.xi == -0.5
    with pytest.raises(InstabilityError) as err, np.errstate(over="ignore", invalid="ignore"):
        fd_oracle(problem, 0.5, dt, [problem.loads.total_time])
    assert (err.value.xi, err.value.order) == (0.5, None)


# ---------------------------------------------------------------------------
# comparison and line extraction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_campaign(tiny_problem, tiny_dt):
    T = tiny_problem.loads.total_time
    outputs = [T / 2, T]
    xis = sample_xi(XiDistribution(std=0.1, seed=5), 16)
    config = TsmConfig(exchange_interval=1, xi_second_moment=float((xis**2).mean()))
    sol = run_tsm(tiny_problem, config, tiny_dt, outputs)
    ens = run_mc(tiny_problem, xis, tiny_dt, outputs)
    tsm_uq = uq_summary(sol)
    mc_uq = mc_statistics(ens)
    return tiny_problem, tsm_uq, mc_uq


def test_compare_identical_is_zero(small_campaign):
    _problem, tsm_uq, _mc = small_campaign
    rep = compare(tsm_uq, tsm_uq)
    assert rep.summary["f_mean_abs_err_max"] == 0.0
    assert rep.summary["f_std_rel_err_masked"] == 0.0
    assert rep.summary["force_mean_rel_err"] == 0.0


def test_compare_mask_is_exhaustive(small_campaign):
    _problem, tsm_uq, mc_uq = small_campaign
    rep = compare(tsm_uq, mc_uq, mask_threshold=0.5)
    total = rep.masked.size
    assert rep.summary["n_masked"] + rep.summary["n_unmasked"] == total


def test_compare_grid_mismatch_rejected(small_campaign):
    _problem, tsm_uq, mc_uq = small_campaign
    import dataclasses
    shifted = dataclasses.replace(mc_uq, times=mc_uq.times + 1.0)
    with pytest.raises(ValueError):
        compare(tsm_uq, shifted)


def test_extract_line_shapes_and_uniform_field(small_campaign):
    problem, tsm_uq, _mc = small_campaign
    table = extract_line(tsm_uq, problem.mesh, "midline")
    npath = len(problem.mesh.element_paths["midline"])
    assert table.f_mean.shape == (len(tsm_uq.times), npath)
    assert np.all(np.diff(table.positions[:, 0]) > 0)

    import dataclasses
    uniform = dataclasses.replace(
        tsm_uq,
        f_mean=np.full_like(tsm_uq.f_mean, 0.7),
        sigma_mean=np.full_like(tsm_uq.sigma_mean, 1e5),
    )
    t2 = extract_line(uniform, problem.mesh, "midline")
    assert np.all(t2.f_mean == 0.7)
    assert np.ptp(t2.snorm_mean) <= 1e-12 * np.abs(t2.snorm_mean).max()


def test_extract_line_unknown_path(small_campaign):
    problem, tsm_uq, _mc = small_campaign
    with pytest.raises(ValueError, match="unknown"):
        extract_line(tsm_uq, problem.mesh, "diagonal")


def test_sigma_norm_counts_shear_twice():
    v = np.array([1.0, 0, 0, 2.0, 0, 0])
    assert sigma_norm(v) == pytest.approx(np.sqrt(1 + 2 * 4))


@pytest.mark.parametrize("shape", [(6,), (31, 6), (3, 5, 6)])
def test_sigma_norm_is_bitwise_the_weighted_sum_of_squares(shape):
    """One temporary, weighted in place, gives the bits of the formula it
    replaced, also for signed zeros, subnormals, inf and nan, in both
    memory orders; shape (6,) is checked on each row of a (40, 6) batch."""
    w = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, np.nan,
               1e154, -1e-160, 3.0, -7.5]
    rng = np.random.default_rng(7)
    batch = shape if len(shape) > 1 else (40, 6)
    sigma = rng.standard_normal(batch) * 10.0 ** rng.integers(-2, 3, batch)
    flat = sigma.reshape(-1)  # a third of the entries special, each one several times
    flat[rng.choice(flat.size, flat.size // 3, replace=False)] = np.resize(special,
                                                                        flat.size // 3)
    cases = list(sigma) if len(shape) == 1 else [sigma, np.asfortranarray(sigma)]
    with np.errstate(all="ignore"):
        for case in cases:
            got = np.asarray(sigma_norm(case))
            want = np.asarray(np.sqrt((case**2 * w).sum(axis=-1)))
            assert got.shape == shape[:-1]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isnan(sigma_norm(np.array([np.nan, 0, 0, 0, 0, 0])))
    assert sigma_norm(np.array([0.0, 0, 0, np.inf, 0, 0])) == np.inf
    assert sigma_norm(np.array([-0.0, 0, 0, 5e-324, 0, 0])) == 0.0  # 2 * tiny**2 underflows


def test_element_average_block_order():
    gp = np.repeat(np.arange(5.0), 8)  # constant per element
    np.testing.assert_array_equal(element_average(gp), np.arange(5.0))
