"""Acceptance gate: every criterion at its target tolerance, one line per
criterion printed on success (run pytest with -rA or -s to see them all).

Criterion 1 carries a strict xfail: the widely quoted closed form
1-(1+at)^-2 (0.75 at a*t=1) for the first-order damage coefficient belongs
to an evolution with a doubled driving term; the exact sensitivity --
confirmed here by brute-force integration, by central finite differences of
the deterministic problem (criterion 2 at 1e-3), and by the Monte Carlo
reference (criterion 3) -- is at/(1+at), i.e. 0.5 at a*t=1.  Both values
cannot hold at once; this suite pins the variant that the oracles confirm
and keeps the other as an expected failure.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tsmfem.config import load_config
from tsmfem.material import (
    MaterialParams,
    Order0Law,
    Order1Law,
    free_energy,
    stiffness_voigt,
)
from tsmfem.mesh import Mesh, _structured_box
from tsmfem.montecarlo import (
    XiDistribution,
    compare,
    element_average,
    extract_line,
    fd_oracle,
    mc_statistics,
    run_mc,
    sample_xi,
)
from tsmfem.solver import (
    ElementQuadrature,
    lumped_mass,
    run_deterministic,
    stable_timestep,
)
from tsmfem.tsm import (
    ExchangeFormatError,
    TsmConfig,
    read_exchange,
    run_tsm,
    uq_summary,
    write_exchange,
)

MC_N = 500
MC_SEED = 20241


def _say(n, msg):
    print(f"[ACCEPTANCE {n}] PASS: {msg}")


# ---------------------------------------------------------------------------
# shared runs (module scope: each executes once)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def acc_cfg():
    cfg = load_config(overrides={"problem": {"preset": "plate_coarse_desk"},
                                 "timestep": {"cfl_safety": 0.45}})
    outputs = np.linspace(cfg.problem.loads.total_time / 4,
                          cfg.problem.loads.total_time, 4)
    return cfg, outputs


@pytest.fixture(scope="module")
def acc_tsm(acc_cfg):
    cfg, outputs = acc_cfg
    return run_tsm(cfg.problem, TsmConfig(exchange_interval=1), cfg.dt, outputs)


@pytest.fixture(scope="module")
def acc_mc(acc_cfg):
    cfg, outputs = acc_cfg
    xis = sample_xi(XiDistribution(std=0.1, truncation=0.9, seed=MC_SEED), MC_N)
    ens = run_mc(cfg.problem, xis, cfg.dt, outputs, force_stride=8)
    return xis, ens


@pytest.fixture(scope="module")
def desk_plate_runs(tmp_path_factory):
    cfg = load_config(overrides={"problem": {"preset": "plate_hole_desk"}})
    outputs = np.linspace(cfg.problem.loads.total_time / 4,
                          cfg.problem.loads.total_time, 4)
    k1000_mem = run_tsm(cfg.problem, TsmConfig(exchange_interval=1000),
                        cfg.dt, outputs)
    xdir = tmp_path_factory.mktemp("exchange")
    k1000_file = run_tsm(cfg.problem,
                         TsmConfig(exchange_interval=1000, exchange_mode="file"),
                         cfg.dt, outputs,
                         exchange_path=str(xdir / "k1000.tsmx"))
    k1_path = str(xdir / "k1.tsmx")
    k1_file = run_tsm(cfg.problem,
                      TsmConfig(exchange_interval=1, exchange_mode="file"),
                      cfg.dt, outputs, exchange_path=k1_path)
    return cfg, k1000_mem, k1000_file, k1_file


@pytest.fixture(scope="module")
def dns_run():
    cfg = load_config(overrides={"problem": {"preset": "double_notch_desk"}})
    outputs = np.linspace(cfg.problem.loads.total_time / 4,
                          cfg.problem.loads.total_time, 4)
    sol = run_tsm(cfg.problem, TsmConfig(exchange_interval=1000), cfg.dt, outputs)
    return cfg, uq_summary(sol), sol


# ---------------------------------------------------------------------------
# criterion 1: material-point closed forms (runtime: seconds)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def material_point_integration():
    """Forward Euler of the coupled (d0, d1) point problem at constant
    strain, eps1 = 0, up to a*t = 1 with dt = 1e-5/a."""
    E0 = stiffness_voigt(1e9, 0.8e9)
    eps = np.array([[2e-3, 0, 0, 0, 0, 0]])
    eta = 1e4
    a = float(free_energy(eps[0], E0)) / eta
    dt = 1e-5 / a
    d0, d1 = np.zeros(1), np.zeros(1)
    z = np.zeros((1, 6))
    for _ in range(100_000):
        d1 = Order1Law(E0, eta, dt).hold(eps, d0).damage(d1, z)
        d0 = Order0Law(E0, eta, dt).damage(d0, eps, 0)
    return float(d0[0]), float(d1[0]), (E0, eps, eta, a)


def test_criterion1_order0_closed_form(material_point_integration):
    d0, _d1, (E0, eps, eta, a) = material_point_integration
    psi = float(free_energy(eps[0], E0))
    ode = solve_ivp(lambda t, y: np.exp(-y) * psi / eta, (0, 1 / a), [0.0],
                    rtol=1e-12, atol=1e-14)
    assert ode.y[0, -1] == pytest.approx(math.log(2.0), rel=1e-9)  # oracle
    err = abs(d0 - math.log(2.0)) / math.log(2.0)
    assert err <= 1e-4
    _say(1, f"d0(a*t=1) = ln2 with rel err {err:.2e} (dt = 1e-5/a)")


def test_criterion1_order1_exact_sensitivity(material_point_integration):
    _d0, d1, (E0, eps, eta, a) = material_point_integration
    psi = float(free_energy(eps[0], E0))

    def rhs(t, y):
        return [np.exp(-y[0]) * psi / eta,
                np.exp(-y[0]) * (1 - y[1]) * psi / eta]

    ode = solve_ivp(rhs, (0, 1 / a), [0.0, 0.0], rtol=1e-12, atol=1e-14)
    assert ode.y[1, -1] == pytest.approx(0.5, rel=1e-9)  # brute-force oracle
    h = 1e-6  # central FD of the exact solution ln(1 + (1+xi) a t)
    fd = (math.log(1 + (1 + h)) - math.log(1 + (1 - h))) / (2 * h)
    assert fd == pytest.approx(0.5, rel=1e-9)
    err = abs(d1 - 0.5) / 0.5
    assert err <= 1e-4
    _say(1, f"d1(a*t=1) = at/(1+at) = 0.5 with rel err {err:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="closed form 1-(1+at)^-2 (0.75 at a*t=1) corresponds to a doubled "
           "first-order driving term; the exact sensitivity 0.5 is confirmed "
           "by integration, finite differences, and the MC reference",
)
def test_criterion1_order1_doubled_variant_closed_form(material_point_integration):
    _d0, d1, _ = material_point_integration
    assert abs(d1 - 0.75) / 0.75 <= 1e-4


def test_criterion1_euler_convergence_order():
    E0 = stiffness_voigt(1e9, 0.8e9)
    eps = np.array([[2e-3, 0, 0, 0, 0, 0]])
    eta = 1e4
    a = float(free_energy(eps[0], E0)) / eta
    errs0, errs1 = [], []
    for n in (250, 500, 1000):
        dt = (1 / a) / n
        d0, d1 = np.zeros(1), np.zeros(1)
        z = np.zeros((1, 6))
        for _ in range(n):
            d1 = Order1Law(E0, eta, dt).hold(eps, d0).damage(d1, z)
            d0 = Order0Law(E0, eta, dt).damage(d0, eps, 0)
        errs0.append(abs(d0[0] - math.log(2.0)))
        errs1.append(abs(d1[0] - 0.5))
    r0 = [errs0[i] / errs0[i + 1] for i in range(2)]
    r1 = [errs1[i] / errs1[i + 1] for i in range(2)]
    for r in (*r0, *r1):
        assert r == pytest.approx(2.0, rel=0.2)  # first order in dt
    _say(1, f"Euler convergence order 1 observed (ratios {r0 + r1})")


# ---------------------------------------------------------------------------
# criterion 2: FD-oracle equivalence (runtime: ~seconds, <=50-element mesh)
# ---------------------------------------------------------------------------


def _rel_gap(a, b):
    scale = np.abs(b).max()
    return float(np.abs(a - b).max() / scale) if scale > 0 else float(np.abs(a - b).max())


def test_criterion2_fd_oracle_equivalence(acc_cfg, acc_tsm):
    cfg, outputs = acc_cfg
    mesh = cfg.problem.mesh
    assert mesh.n_elements <= 50
    tau0 = cfg.problem.params.eta / cfg.problem.params.young
    assert cfg.problem.loads.total_time >= 10 * tau0  # enough damage growth

    h1 = acc_tsm.history1
    fd = fd_oracle(cfg.problem, 1e-4, cfg.dt, outputs)
    errs = {
        "u1": _rel_gap(h1.u, fd.u),
        "d1": _rel_gap(h1.d, fd.d),
        "sigma1": _rel_gap(h1.sigma, fd.sigma),
        "F1": _rel_gap(h1.forces["top"], fd.forces["top"]),
    }
    for name, err in errs.items():
        assert err <= 1e-3, f"{name}: {err}"
    _say(2, "TSM order-1 matches FD oracle at h=1e-4: " +
         ", ".join(f"{k}={v:.2e}" for k, v in errs.items()))


def test_criterion2_fd_gap_second_order(acc_cfg, acc_tsm):
    cfg, outputs = acc_cfg
    d1 = acc_tsm.history1.d
    gaps = [np.abs(fd_oracle(cfg.problem, h, cfg.dt, outputs).d - d1).max()
            for h in (1e-4, 5e-5)]
    ratio = gaps[0] / gaps[1]
    assert ratio == pytest.approx(4.0, rel=0.15)
    _say(2, f"oracle-vs-TSM gap shrinks {ratio:.2f}x when h halves (O(h^2))")


# ---------------------------------------------------------------------------
# criterion 3: TSM vs MC, n = 500 (runtime: minutes)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def campaign(acc_cfg, acc_tsm, acc_mc):
    _cfg, _outputs = acc_cfg
    xis, ens = acc_mc
    xi2 = float((xis**2).mean())  # post-truncation second moment
    tsm_uq = uq_summary(replace(acc_tsm, config=replace(acc_tsm.config, xi_second_moment=xi2)))
    mc_uq = mc_statistics(ens)
    return tsm_uq, mc_uq


def test_criterion3_f_mean_within_1pct(campaign):
    tsm_uq, mc_uq = campaign
    gap = np.abs(tsm_uq.f_mean - mc_uq.f_mean).max()
    assert gap <= 0.01  # f is a fraction in (0, 1]: 1% pointwise
    _say(3, f"<f> TSM vs MC(n={MC_N}): max pointwise gap {gap:.2e} <= 0.01")


def test_criterion3_f_std_within_10pct_in_mask(campaign):
    tsm_uq, mc_uq = campaign
    f_t, f_m = element_average(tsm_uq.f_std), element_average(mc_uq.f_std)
    mask = element_average(mc_uq.f_mean) > 0.5
    rel = np.abs(f_t - f_m)[mask] / f_m[mask]
    worst_masked = rel.max()
    assert worst_masked <= 0.10
    below = ~mask
    worst_below = (np.abs(f_t - f_m)[below] / f_m[below]).max() if below.any() else 0.0
    _say(3, f"Std(f) rel err {worst_masked:.3f} <= 0.10 over <f> > 0.5 "
            f"({int(mask.sum())} element-snapshots); below mask {worst_below:.3f} "
            f"(reported, degradation expected)")


def test_criterion3_reaction_force_within_5pct(campaign):
    tsm_uq, mc_uq = campaign
    _t, ti, mi = np.intersect1d(tsm_uq.force_times, mc_uq.force_times,
                                return_indices=True)
    assert _t.size >= 100
    mean_err = (np.abs(tsm_uq.force_mean[ti] - mc_uq.force_mean[mi]).max()
                / np.abs(mc_uq.force_mean[mi]).max())
    std_err = (np.abs(tsm_uq.force_std[ti] - mc_uq.force_std[mi]).max()
               / np.abs(mc_uq.force_std[mi]).max())
    assert mean_err <= 0.05
    assert std_err <= 0.05
    _say(3, f"reaction force: <F> err {mean_err:.4f}, Std(F) err {std_err:.4f} <= 0.05")


def _clt_gap_sd(f, n):
    """Per-Gauss-point standard deviation of the gap between the moments of
    the first n samples and those of all N samples of f: (N, ...) -> (...).

    Central limit theorem: Var(m_n - m_N) = s^2 (1/n - 1/N) for the mean and,
    by the delta method, Var(s_n - s_N) ~ (mu4 - s^4) / (4 s^2) (1/n - 1/N)
    for the std, with s^2 and mu4 the second and fourth central moments of
    all N samples.  A Gauss point with zero sample spread has zero gap."""
    N = f.shape[0]
    c = f - f.mean(axis=0)
    var = (c**2).mean(axis=0)
    mu4 = (c**4).mean(axis=0)
    shrink = 1.0 / n - 1.0 / N
    var_std = np.divide(mu4 - var**2, 4.0 * var, out=np.zeros_like(var),
                        where=var > 0)
    return {"f_mean": np.sqrt(var * shrink),
            "f_std": np.sqrt(np.maximum(var_std, 0.0) * shrink)}


def test_mc_statistics_stabilize_with_n(acc_mc):
    """Supporting invariant: the masked-region moments of the sub-ensembles
    of the first n = 50 and 200 samples lie within three standard errors of
    the n=500 estimate, in a central-limit band that shrinks like
    sqrt(1/n - 1/500).

    The band is the masked L2 norm of element averages of the per-Gauss-point
    gap standard deviations (by Minkowski's inequality an upper bound on the
    standard deviation of each element average).  One scalar xi drives every
    element, so the gap vector is close to rank one and gap/band behaves like
    |N(0, 1)|; a fixed sample path does not promise a smaller gap at every
    larger n, only one inside the band."""
    from tsmfem.montecarlo import McEnsemble

    xis, ens = acc_mc
    stats = {n: mc_statistics(McEnsemble(xis[:n], ens.histories[:n]))
             for n in (50, 200, 500)}
    mask = element_average(stats[500].f_mean) > 0.5
    f = np.exp(-np.stack([h.d for h in ens.histories]))

    def l2(a):
        return float(np.linalg.norm(a[mask]))

    ratios = {}
    for n in (50, 200):
        sd = _clt_gap_sd(f, n)
        for field in ("f_mean", "f_std"):
            gap = l2(element_average(getattr(stats[n], field))
                     - element_average(getattr(stats[500], field)))
            band = l2(element_average(sd[field]))
            assert np.isfinite(band) and band > 0.0, (field, n, band)
            assert gap <= 3.0 * band, (field, n, gap, band)
            ratios[field, n] = (gap, band)
    # the band must stay tight enough that the check can fail
    power = 3.0 * ratios["f_std", 200][1] / l2(element_average(stats[500].f_std))
    assert power < 0.15
    _say(3, "MC moments stabilize within 3 CLT standard errors of the n=500 "
            "estimate: masked-region gap/band " +
            ", ".join(f"{fld[2:]}@{n} {g:.2e}/{b:.2e}={g / b:.2f}"
                      for (fld, n), (g, b) in ratios.items()) +
            f"; 3*band at n=200 is {power:.1%} of the masked Std(f) norm")


# ---------------------------------------------------------------------------
# criterion 4: speedup (same machine, same mesh)
# ---------------------------------------------------------------------------


def test_criterion4_speedup(acc_cfg, acc_tsm, acc_mc, campaign):
    """TSM costs at most 4 deterministic runs, and the per-sample MC
    campaign at least 100 TSM runs.  The 4x ratio compares the minima of
    three interleaved deterministic and TSM (K=1) runs on the fixtures'
    inputs, so host-speed drift between two single samples cannot decide
    it."""
    import time as _time

    cfg, outputs = acc_cfg
    _xis, ens = acc_mc

    def tsm_seconds(sol):
        t0 = _time.perf_counter()
        uq_summary(sol)
        post = _time.perf_counter() - t0
        return sol.history0.wall_time + sol.history1.wall_time + post

    det_runs, tsm_runs = [], []
    for _ in range(3):
        det = run_deterministic(cfg.problem.mesh, cfg.problem.loads,
                                cfg.problem.params, 0.0, cfg.dt, outputs)
        det_runs.append(det.wall_time)
        tsm_runs.append(tsm_seconds(run_tsm(cfg.problem, TsmConfig(exchange_interval=1),
                                            cfg.dt, outputs)))
    det_min, tsm_min = min(det_runs), min(tsm_runs)
    assert tsm_min <= 4.0 * det_min
    tsm_total = tsm_seconds(acc_tsm)
    mc_total = float(ens.wall_times.sum())
    speedup = mc_total / tsm_total
    assert speedup >= 100.0
    _say(4, f"TSM {tsm_min:.2f}s = {tsm_min / det_min:.2f}x one deterministic "
            f"run ({det_min:.2f}s; minima of 3 interleaved runs); MC({MC_N}) "
            f"aggregate {mc_total:.1f}s / TSM {tsm_total:.2f}s -> speedup "
            f"{speedup:.0f}x >= 100x")


# ---------------------------------------------------------------------------
# criterion 5: exchange-protocol robustness (plate benchmark, 594 elements)
# ---------------------------------------------------------------------------


def test_criterion5_subsampling_and_modes(desk_plate_runs):
    _cfg, k1000_mem, k1000_file, k1_file = desk_plate_runs
    # K=1000 vs K=1: expectations at output instants
    f_a = np.exp(-k1000_mem.history0.d)
    f_b = np.exp(-k1_file.history0.d)
    gap = np.abs(f_a - f_b).max()
    assert gap <= 0.01
    # file vs in-memory at equal K: exact agreement (1e-12 criterion)
    for field in ("u", "d", "sigma"):
        a = getattr(k1000_mem.history1, field)
        b = getattr(k1000_file.history1, field)
        assert _rel_gap(a, b) <= 1e-12
    s_mem = uq_summary(k1000_mem)
    s_k1 = uq_summary(k1_file)
    std_gap = np.abs(s_mem.f_std - s_k1.f_std).max() / max(s_k1.f_std.max(), 1e-300)
    _say(5, f"<f> gap K=1000 vs K=1: {gap:.2e} <= 0.01; file/in-memory exact; "
            f"Std(f) subsampling deviation {std_gap:.3f} (reported)")


def test_criterion5_corrupt_exchange_rejected(tmp_path):
    from tsmfem.tsm import ExchangeRecord

    rng = np.random.default_rng(1)
    recs = [ExchangeRecord(i, i * 1e-6, rng.normal(size=(5, 6)), rng.uniform(0, 1, 5))
            for i in range(4)]
    p = tmp_path / "x.tsmx"
    write_exchange(recs, p, exchange_interval=1)
    read_exchange(p)  # sane file passes

    data = bytearray(p.read_bytes())
    data[40] ^= 0x01
    p.write_bytes(bytes(data))
    with pytest.raises(ExchangeFormatError):
        read_exchange(p)

    write_exchange(recs, p, exchange_interval=1)
    whole = p.read_bytes()
    for cut in (len(whole) - 3, len(whole) - 101):
        p.write_bytes(whole[:cut])
        with pytest.raises(ExchangeFormatError):
            read_exchange(p)
    _say(5, "corrupted and truncated exchange files rejected deterministically")


# ---------------------------------------------------------------------------
# criterion 6: structural FEM correctness
# ---------------------------------------------------------------------------


def test_criterion6_patch_and_mass():
    nodes, elements = _structured_box(2, 2, 2, 1.0, 1.0, 1.0)
    mesh = Mesh(nodes, elements)
    quad = ElementQuadrature.build(mesh)
    A = np.array([[2e-4, 1e-4, 0.0], [0.0, -1e-4, 5e-5], [1e-4, 0.0, 3e-4]])
    u = mesh.nodes @ A.T
    params = MaterialParams(lam=1e9, mu=0.8e9, rho=1000.0, eta=1e9)
    sigma = Order0Law(params.stiffness, 1.0, 0.0).stress(np.zeros(quad.n_gauss), quad.strains(u), 0)
    f = quad.forces(sigma).reshape(-1, 3)
    interior = np.nonzero(np.all((mesh.nodes > 1e-12) & (mesh.nodes < 1 - 1e-12),
                                 axis=1))[0]
    patch_res = np.abs(f[interior]).max() / np.abs(f).max()
    assert patch_res <= 1e-10

    from tsmfem.mesh import generate_plate_with_hole
    bench = generate_plate_with_hole()
    bquad = ElementQuadrature.build(bench)
    m = lumped_mass(bench, params.rho, bquad)
    vol = bquad.detJw.sum()
    mass_err = abs(m.sum() - params.rho * vol) / (params.rho * vol)
    assert mass_err <= 1e-12
    _say(6, f"patch residual {patch_res:.1e} <= 1e-10; lumped-mass total "
            f"rel err {mass_err:.1e} <= 1e-12")


def test_criterion6_no_healing_full_benchmarks(desk_plate_runs, dns_run):
    _cfg, plate_sol, _f, _k1 = desk_plate_runs
    _dcfg, _uq, dns_sol = dns_run
    for sol, name in ((plate_sol, "plate"), (dns_sol, "double notch")):
        d = sol.history0.d
        assert np.all(np.diff(d, axis=0) >= 0.0), name
        f = np.exp(-d)
        assert f.min() > 0.0 and f.max() <= 1.0, name
    _say(6, "d0 nondecreasing at every Gauss point over both full benchmark "
            "runs; f in (0, 1] everywhere")


# ---------------------------------------------------------------------------
# criterion 7: qualitative benchmark behavior (ordering assertions)
# ---------------------------------------------------------------------------


def test_criterion7_dns_damage_band(dns_run):
    cfg, uq, _sol = dns_run
    table = extract_line(uq, cfg.problem.mesh, "centerline")
    prof = table.f_mean[-1]
    n = len(prof)
    # strongest damage near the notch tips: each half attains its minimum in
    # its outer third, and the profile peaks in the middle third
    left, right = prof[: n // 2], prof[n // 2:]
    assert int(np.argmin(left)) <= n // 3
    assert int(np.argmin(right)) >= len(right) - 1 - n // 3
    assert n // 3 <= int(np.argmax(prof)) <= n - 1 - n // 3
    # a damage band forms between the notches
    f_el = element_average(uq.f_mean[-1])
    ids = cfg.problem.mesh.element_paths["centerline"]
    others = np.setdiff1d(np.arange(f_el.size), ids)
    assert f_el[ids].mean() < 0.5 * f_el[others].mean()
    _say(7, f"double notch: ligament minima near both tips, band <f> "
            f"{f_el[ids].mean():.3f} vs elsewhere {f_el[others].mean():.3f}")


def test_criterion7_plate_damage_right_of_hole(desk_plate_runs):
    cfg, sol, _f, _k1 = desk_plate_runs
    uq = uq_summary(sol)
    table = extract_line(uq, cfg.problem.mesh, "midline")
    prof = table.f_mean[-1]
    n = len(prof)
    assert int(np.argmin(prof)) <= n // 3  # concentration at the hole side
    assert prof[: n // 3].mean() < prof[-(n // 3):].mean()
    _say(7, f"plate: <f> minimum at the hole side of the midline "
            f"({prof.min():.3f} at index {int(np.argmin(prof))} of {n})")


@pytest.mark.parametrize("which", ["plate", "dns"])
def test_criterion7_reaction_rises_then_falls(which, desk_plate_runs, dns_run):
    if which == "plate":
        sol = desk_plate_runs[1]
    else:
        sol = dns_run[2]
    Fy = sol.history0.forces["top"][:, 1]
    k = int(np.argmax(Fy))
    assert 0.2 * len(Fy) < k < 0.9 * len(Fy)  # interior peak
    assert Fy[-1] < 0.9 * Fy[k]  # clear softening after the peak
    early = Fy[: len(Fy) // 5]
    assert np.all(np.diff(early[:: max(1, len(early) // 20)]) > -1e-9)  # rising
    _say(7, f"{which}: reaction rises to an interior peak "
            f"(t-fraction {k / len(Fy):.2f}) then falls to "
            f"{Fy[-1] / Fy[k]:.2f} of the peak")
