"""Monte Carlo reference harness: seeded stiffness sampling, ensemble runs,
sample statistics, a finite-difference sensitivity oracle, and comparison
reports against the time-separated solution."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .solver import ElementQuadrature, History, check_xi, run_deterministic
from .tsm import Problem, UqSummary, loaded_set_name


@dataclass(frozen=True)
class XiDistribution:
    """Zero-mean stiffness fluctuation sampler.

    'normal' is truncated by rejection at |xi| <= truncation; 'uniform'
    spans +/- sqrt(3)*std.  Both keep 1 + xi strictly positive.
    """

    kind: str = "normal"
    std: float = 0.1
    truncation: float = 0.9
    seed: int = 20240 + 1

    def __post_init__(self):
        if self.kind not in ("normal", "uniform"):
            raise ValueError(f"unknown distribution kind '{self.kind}'")
        if not self.std > 0.0:
            raise ValueError(f"std must be positive, got {self.std}")
        if not 0.0 < self.truncation < 1.0:
            raise ValueError("truncation bound must lie in (0, 1) so 1+xi > 0")
        if self.std >= self.truncation:
            raise ValueError("std must be smaller than the truncation bound")
        if self.kind == "uniform" and np.sqrt(3.0) * self.std > self.truncation:
            raise ValueError("uniform half-width sqrt(3)*std exceeds the truncation bound")


def sample_xi(dist: XiDistribution, n: int) -> np.ndarray:
    """Deterministic-for-seed sample of n fluctuation values."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(dist.seed)
    if dist.kind == "uniform":
        half = np.sqrt(3.0) * dist.std
        return rng.uniform(-half, half, size=n)
    xi = rng.normal(0.0, dist.std, size=n)
    while True:
        bad = np.abs(xi) > dist.truncation
        if not bad.any():
            return xi
        xi[bad] = rng.normal(0.0, dist.std, size=int(bad.sum()))


@dataclass
class McEnsemble:
    """Realizations and their histories on one common snapshot grid."""

    xis: np.ndarray
    histories: list[History]

    @property
    def n(self) -> int:
        return len(self.histories)

    @property
    def wall_times(self) -> np.ndarray:
        """Each realization's ``History.wall_time``, in ensemble order."""
        return np.asarray([h.wall_time for h in self.histories])


# a worker process's quadrature, set once by the pool's initializer
_worker_quad: ElementQuadrature | None = None


def _set_worker_quad(quad: ElementQuadrature) -> None:
    global _worker_quad
    _worker_quad = quad


def _run_sample(args, quad: ElementQuadrature | None = None):
    problem, xi, dt, output_times, force_stride = args
    return run_deterministic(problem.mesh, problem.loads, problem.params,
                             xi, dt, output_times, quad=quad or _worker_quad,
                             force_stride=force_stride,
                             mass_damping=problem.mass_damping)


def run_mc(problem: Problem, samples, dt: float, output_times, *,
           workers: int = 1, force_stride: int = 1,
           quad: ElementQuadrature | None = None) -> McEnsemble:
    """One deterministic run per sample, all on an identical step grid.

    Runs are independent; with workers > 1 they execute in separate
    processes, at most one per sample, but the ensemble order (and
    therefore every statistic) is that of ``samples``.  The quadrature is
    built once (unless given) and handed to each worker once, so every
    sample's set-up is the same work for any number of workers.  An
    unstable run aborts the whole ensemble; its ``InstabilityError`` names
    the first unstable realization in that order, for any number of
    workers; the samples not yet handed to a worker by then are cancelled.
    """
    samples = np.asarray(samples, dtype=float)
    for xi in samples:
        check_xi(xi)
    jobs = [(problem, float(xi), dt, output_times, force_stride) for xi in samples]
    quad = quad or ElementQuadrature.build(problem.mesh)
    if workers <= 1:
        histories = [_run_sample(job, quad) for job in jobs]
    else:
        # one sample per task: tasks already handed to a worker cannot be
        # cancelled, and chunks of several samples would hand over most of
        # a small ensemble at once
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs)),
                                 initializer=_set_worker_quad, initargs=(quad,)) as pool:
            try:
                histories = list(pool.map(_run_sample, jobs))
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    return McEnsemble(xis=samples, histories=histories)


def _snapshot_moments(fields) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and Bessel-corrected std over the ensemble of per-sample
    (S, ...) snapshot fields, stacking one snapshot at a time: the ensemble
    is never copied whole, and each entry is the same sum over the samples
    as over the full stack."""
    mean = np.empty(fields[0].shape)
    std = np.empty_like(mean)
    for s in range(mean.shape[0]):
        block = np.stack([x[s] for x in fields])
        mean[s] = block.mean(axis=0)
        std[s] = block.std(axis=0, ddof=1)
    return mean, std


def mc_statistics(ensemble: McEnsemble) -> UqSummary:
    """Sample mean and Bessel-corrected (n-1) standard deviation of damage,
    damage function, stress, and loaded-set reaction force."""
    if ensemble.n < 2:
        raise ValueError("statistics need at least two samples")
    h0 = ensemble.histories[0]
    for h in ensemble.histories[1:]:
        if not (np.array_equal(h.times, h0.times)
                and np.array_equal(h.force_times, h0.force_times)):
            raise ValueError("ensemble histories are not on a common snapshot grid")
    d = [h.d for h in ensemble.histories]
    d_mean, d_std = _snapshot_moments(d)
    f_mean, f_std = _snapshot_moments([np.exp(-x) for x in d])
    sigma_mean, sigma_std = _snapshot_moments([h.sigma for h in ensemble.histories])
    name = loaded_set_name(h0)
    force = np.stack([h.forces[name] for h in ensemble.histories])
    return UqSummary(
        times=h0.times.copy(),
        d_mean=d_mean, d_std=d_std, f_mean=f_mean, f_std=f_std,
        sigma_mean=sigma_mean, sigma_std=sigma_std,
        force_times=h0.force_times.copy(),
        force_mean=force.mean(axis=0), force_std=force.std(axis=0, ddof=1),
        force_set=name,
        meta={"method": "mc", "n": ensemble.n},
    )


def fd_oracle(problem: Problem, h: float, dt: float, output_times, *,
              quad: ElementQuadrature | None = None) -> History:
    """Central finite difference (field(+h) - field(-h)) / (2h) of the full
    deterministic solution: the independent reference for every first-order
    field (u, d, sigma, and reaction forces).  The two runs are the
    ensemble ``run_mc`` gives for the samples +h and -h."""
    if not 0.0 < h < 1.0:
        raise ValueError("need 0 < h < 1 so both perturbed runs are admissible")
    hp, hm = run_mc(problem, [+h, -h], dt, output_times, quad=quad).histories
    inv = 0.5 / h
    return History(
        times=hp.times.copy(),
        u=(hp.u - hm.u) * inv,
        d=(hp.d - hm.d) * inv,
        sigma=(hp.sigma - hm.sigma) * inv,
        force_times=hp.force_times.copy(),
        forces={k: (hp.forces[k] - hm.forces[k]) * inv for k in hp.forces},
        dt=dt, n_steps=hp.n_steps,
        wall_time=hp.wall_time + hm.wall_time,
        meta={"kind": "fd_oracle", "h": h,
              "loaded_sets": hp.meta.get("loaded_sets", [])},
    )


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def element_average(gp_field: np.ndarray) -> np.ndarray:
    """Average the 8 Gauss values of each element: (..., ngp) -> (..., ne)."""
    return gp_field.reshape(*gp_field.shape[:-1], -1, 8).mean(axis=-1)


def sigma_norm(sigma: np.ndarray) -> np.ndarray:
    """Frobenius norm of the stress tensor from its Voigt vector
    (shear components enter twice).  The squares are weighted in place, in
    one temporary of sigma's shape: the same bits as
    ``np.sqrt((sigma**2 * w).sum(axis=-1))``."""
    sq = np.square(sigma)
    sq *= (1.0, 1.0, 1.0, 2.0, 2.0, 2.0)
    return np.sqrt(sq.sum(axis=-1))


def _rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| / |b| with exact-zero pairs counted as zero error."""
    scale = np.abs(b)
    out = np.zeros_like(scale)
    nz = scale > 0
    out[nz] = np.abs(a - b)[nz] / scale[nz]
    out[~nz & (np.abs(a) > 0)] = np.inf
    return out


@dataclass
class ComparisonReport:
    """Element-level TSM-vs-MC errors, split by the mean-damage-function
    mask (accuracy is expected to degrade where <f> drops below it)."""

    times: np.ndarray
    mask_threshold: float
    masked: np.ndarray  # (S, ne) True where <f>_mc > threshold
    f_mean_abs_err: np.ndarray  # (S, ne)
    f_std_rel_err: np.ndarray  # (S, ne)
    snorm_mean_rel_err: np.ndarray  # (S, ne)
    snorm_std_rel_err: np.ndarray  # (S, ne)
    summary: dict


def compare(tsm: UqSummary, mc: UqSummary, mask_threshold: float = 0.5) -> ComparisonReport:
    """Componentwise errors on the common grid; scalars aggregate the worst
    case above and below the mask separately.  The report holds errors
    only: each run's seconds stay in its own manifest.

    The damage-function mean is compared absolutely (it is already a
    fraction in (0, 1]); standard deviations and stress norms relatively.
    Reaction-force series are compared relative to the series maximum.
    """
    if not np.array_equal(tsm.times, mc.times):
        raise ValueError("snapshot grids differ")
    common, ti, mi = np.intersect1d(tsm.force_times, mc.force_times,
                                    return_indices=True)
    if common.size == 0:
        raise ValueError("force series share no time points")

    f_mean_t, f_mean_m = element_average(tsm.f_mean), element_average(mc.f_mean)
    f_std_t, f_std_m = element_average(tsm.f_std), element_average(mc.f_std)
    sn_mean_t = element_average(sigma_norm(tsm.sigma_mean))
    sn_mean_m = element_average(sigma_norm(mc.sigma_mean))
    sn_std_t = element_average(sigma_norm(tsm.sigma_std))
    sn_std_m = element_average(sigma_norm(mc.sigma_std))

    masked = f_mean_m > mask_threshold
    f_mean_err = np.abs(f_mean_t - f_mean_m)
    f_std_err = _rel(f_std_t, f_std_m)
    sn_mean_err = _rel(sn_mean_t, sn_mean_m)
    sn_std_err = _rel(sn_std_t, sn_std_m)

    fscale = max(np.abs(mc.force_mean[mi]).max(), 1e-300)
    force_mean_err = float(np.abs(tsm.force_mean[ti] - mc.force_mean[mi]).max() / fscale)
    sscale = max(np.abs(mc.force_std[mi]).max(), 1e-300)
    force_std_err = float(np.abs(tsm.force_std[ti] - mc.force_std[mi]).max() / sscale)

    def agg(err, sel):
        return float(err[sel].max()) if sel.any() else 0.0

    summary = {
        "f_mean_abs_err_max": float(f_mean_err.max()),
        "f_std_rel_err_masked": agg(f_std_err, masked),
        "f_std_rel_err_unmasked": agg(f_std_err, ~masked),
        "snorm_mean_rel_err_masked": agg(sn_mean_err, masked),
        "snorm_std_rel_err_masked": agg(sn_std_err, masked),
        "force_mean_rel_err": force_mean_err,
        "force_std_rel_err": force_std_err,
        "n_masked": int(masked.sum()),
        "n_unmasked": int((~masked).sum()),
        "mask_threshold": mask_threshold,
    }
    return ComparisonReport(
        times=tsm.times.copy(), mask_threshold=mask_threshold, masked=masked,
        f_mean_abs_err=f_mean_err, f_std_rel_err=f_std_err,
        snorm_mean_rel_err=sn_mean_err, snorm_std_rel_err=sn_std_err,
        summary=summary,
    )


@dataclass
class LineTable:
    """Per-element averages along a named extraction path (no interpolation)."""

    path: str
    element_ids: np.ndarray
    positions: np.ndarray  # (npath, 3) element centroids
    times: np.ndarray
    f_mean: np.ndarray  # (S, npath)
    f_std: np.ndarray
    snorm_mean: np.ndarray
    snorm_std: np.ndarray


def extract_line(summary: UqSummary, mesh: Mesh, path_name: str) -> LineTable:
    if path_name not in mesh.element_paths:
        raise ValueError(f"unknown element path '{path_name}'")
    ids = mesh.element_paths[path_name]
    return LineTable(
        path=path_name,
        element_ids=ids.copy(),
        positions=mesh.element_centroids()[ids],
        times=summary.times.copy(),
        f_mean=element_average(summary.f_mean)[:, ids],
        f_std=element_average(summary.f_std)[:, ids],
        snorm_mean=element_average(sigma_norm(summary.sigma_mean))[:, ids],
        snorm_std=element_average(sigma_norm(summary.sigma_std))[:, ids],
    )
