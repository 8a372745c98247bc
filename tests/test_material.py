"""Material law: closed forms, finite-difference oracles, and properties.

The damage closed forms used as frozen expectations are re-derived in-test
with a tight-tolerance ODE integration (scipy) so the library path never
checks itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp

from tsmfem.material import (
    MaterialParams,
    _dot6,
    characteristic_scales,
    damage_rate_order1,
    free_energy,
    stiffness_voigt,
    stress_order0,
    stress_order1,
    update_damage_order0,
    update_damage_order1,
)

LAM, MU = 1.0e9, 0.8e9

moduli = st.floats(min_value=1e6, max_value=1e12)
small_floats = st.floats(min_value=-1e-2, max_value=1e-2, allow_nan=False)
strains = st.lists(small_floats, min_size=6, max_size=6).map(np.asarray)


# ---------------------------------------------------------------------------
# stiffness and scales
# ---------------------------------------------------------------------------


def test_stiffness_entries():
    E = stiffness_voigt(LAM, MU)
    assert E[0, 0] == pytest.approx(LAM + 2 * MU)
    assert E[0, 0] == pytest.approx(2.6e9)
    assert E[3, 3] == pytest.approx(MU)
    assert E[0, 1] == pytest.approx(LAM)


def test_stiffness_lam_zero_is_diagonal():
    E = stiffness_voigt(0.0, MU)
    assert np.allclose(E, np.diag([2 * MU] * 3 + [MU] * 3))


@given(lam=moduli, mu=moduli)
@settings(max_examples=50)
def test_stiffness_symmetric_positive_definite(lam, mu):
    E = stiffness_voigt(lam, mu)
    assert np.all(E - E.T == 0.0)
    assert np.linalg.eigvalsh(E).min() > 0.0


@pytest.mark.parametrize("lam,mu", [(0.0, 0.0), (1e9, -1.0), (-1e9, 1e9)])
def test_stiffness_rejects_bad_moduli(lam, mu):
    with pytest.raises(ValueError):
        stiffness_voigt(lam, mu)


def test_characteristic_scales_closed_forms():
    p = MaterialParams(lam=LAM, mu=MU, rho=1000.0, eta=1e9)
    s = characteristic_scales(p)
    E_exact = MU * (3 * LAM + 2 * MU) / (LAM + MU)
    assert s["young_E"] == pytest.approx(E_exact, rel=1e-14)
    assert s["young_E"] == pytest.approx(2.0444e9, rel=1e-4)
    assert s["wave_speed"] == pytest.approx(math.sqrt(E_exact / 1000.0), rel=1e-14)
    assert s["wave_speed"] == pytest.approx(1430.0, rel=1e-3)
    assert s["char_time"] == pytest.approx(0.489, rel=2e-3)
    # algebraic identity l_v = v * tau0
    assert s["internal_length"] == pytest.approx(s["wave_speed"] * s["char_time"], rel=1e-12)


def test_material_params_validation():
    with pytest.raises(ValueError):
        MaterialParams(lam=LAM, mu=MU, rho=0.0, eta=1e9)


# ---------------------------------------------------------------------------
# free energy
# ---------------------------------------------------------------------------


def test_free_energy_zero_strain():
    assert free_energy(np.zeros(6), stiffness_voigt(LAM, MU)) == 0.0


def test_free_energy_uniaxial():
    e = 1e-3
    eps = np.array([e, 0, 0, 0, 0, 0])
    assert free_energy(eps, stiffness_voigt(LAM, MU)) == pytest.approx(
        0.5 * (LAM + 2 * MU) * e * e, rel=1e-14
    )


@given(eps=strains)
def test_free_energy_quadratic_homogeneity(eps):
    E = stiffness_voigt(LAM, MU)
    assert free_energy(2.0 * eps, E) == pytest.approx(4.0 * free_energy(eps, E), rel=1e-12, abs=1e-30)


@given(eps=strains)
def test_free_energy_nonnegative(eps):
    assert free_energy(eps, stiffness_voigt(LAM, MU)) >= 0.0


voigt_shapes = st.one_of(st.just((6,)), st.integers(1, 40).map(lambda n: (n, 6)))
voigt_entries = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@given(shape=voigt_shapes, data=st.data())
def test_voigt_contraction_is_bitwise_the_numpy_sum(shape, data):
    """The unrolled contraction the laws use adds the six products in the
    order numpy's ``sum(axis=-1)`` does; this fails if numpy changes its
    reduction order for short rows."""
    a, b = (data.draw(hnp.arrays(np.float64, shape, elements=voigt_entries))
            for _ in range(2))
    ref = (a * b).sum(axis=-1)
    got = _dot6(a, b)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)


def test_free_energy_of_one_vector_is_a_scalar():
    E = stiffness_voigt(LAM, MU)
    eps = np.array([1e-3, -2e-4, 5e-4, 1e-4, 0.0, 3e-4])
    psi = free_energy(eps, E)
    assert np.ndim(psi) == 0
    assert psi == free_energy(eps[None, :], E)[0]


# ---------------------------------------------------------------------------
# damage evolution, order 0
# ---------------------------------------------------------------------------


def _uniaxial_setup(eta=1.0e3, e=1.0e-3):
    E0 = stiffness_voigt(LAM, MU)
    eps = np.array([[e, 0, 0, 0, 0, 0]])
    a = float(free_energy(eps[0], E0)) / eta  # growth rate Psi0/eta
    return E0, eps, a, eta


def test_damage0_zero_strain_is_fixed_point():
    E0, _, _, eta = _uniaxial_setup()
    d = np.array([0.7])
    assert update_damage_order0(d, np.zeros((1, 6)), 1e-3, E0, eta)[0] == d[0]


def test_damage0_closed_form_and_oracle():
    """d(t) = ln(1 + a t) under constant strain; a*t = 1 gives ln 2.

    Cross-checked against a tight-tolerance integration of the same ODE.
    """
    E0, eps, a, eta = _uniaxial_setup()
    T = 1.0 / a
    psi = float(free_energy(eps[0], E0))
    ode = solve_ivp(lambda t, d: np.exp(-d) * psi / eta, (0.0, T), [0.0],
                    rtol=1e-12, atol=1e-14)
    assert ode.y[0, -1] == pytest.approx(math.log(2.0), rel=1e-9)

    dt = 1e-5 / a
    d = np.zeros(1)
    for _ in range(100_000):
        d = update_damage_order0(d, eps, dt, E0, eta)
    assert d[0] == pytest.approx(math.log(2.0), rel=1e-4)


def test_damage0_euler_first_order_convergence():
    E0, eps, a, eta = _uniaxial_setup()
    T = 1.0 / a
    errs = []
    for n in (200, 400, 800):
        d = np.zeros(1)
        dt = T / n
        for _ in range(n):
            d = update_damage_order0(d, eps, dt, E0, eta)
        errs.append(abs(d[0] - math.log(2.0)))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)


@given(d=st.floats(min_value=0.0, max_value=20.0), eps=strains,
       dt=st.floats(min_value=1e-9, max_value=1e-2))
def test_damage0_never_heals(d, eps, dt):
    E0 = stiffness_voigt(LAM, MU)
    d_new = update_damage_order0(np.array([d]), eps[None, :], dt, E0, 1e3)
    assert d_new[0] >= d


# ---------------------------------------------------------------------------
# damage evolution, order 1 (sensitivity)
# ---------------------------------------------------------------------------


def test_damage1_zero_strain_is_fixed_point():
    E0, _, _, eta = _uniaxial_setup()
    z = np.zeros((1, 6))
    assert update_damage_order1(np.array([0.3]), np.array([0.2]), z, z, 1e-3, E0, eta)[0] == 0.2


def test_damage1_closed_form_and_oracle():
    """Constant eps0, eps1 = 0: the exact sensitivity is d1 = a t / (1 + a t)
    (integrating factor (1 + a t)), i.e. 0.5 at a*t = 1.

    The value is cross-checked two independent ways: tight integration of the
    coupled (d0, d1) system, and a central finite difference of the exact
    deterministic solution d(t; xi) = ln(1 + (1 + xi) a t).
    """
    E0, eps, a, eta = _uniaxial_setup()
    T = 1.0 / a
    psi = float(free_energy(eps[0], E0))

    def rhs(t, y):
        d0, d1 = y
        return [np.exp(-d0) * psi / eta, np.exp(-d0) * (1 - d1) * psi / eta]

    ode = solve_ivp(rhs, (0.0, T), [0.0, 0.0], rtol=1e-12, atol=1e-14)
    assert ode.y[1, -1] == pytest.approx(0.5, rel=1e-9)

    h = 1e-6
    fd = (math.log(1 + (1 + h) * a * T) - math.log(1 + (1 - h) * a * T)) / (2 * h)
    assert fd == pytest.approx(0.5, rel=1e-9)

    dt = 1e-5 / a
    d0 = np.zeros(1)
    d1 = np.zeros(1)
    z = np.zeros((1, 6))
    for _ in range(100_000):
        d1 = update_damage_order1(d0, d1, eps, z, dt, E0, eta)
        d0 = update_damage_order0(d0, eps, dt, E0, eta)
    assert d0[0] == pytest.approx(math.log(2.0), rel=1e-4)
    assert d1[0] == pytest.approx(0.5, rel=1e-4)


def test_damage1_matches_fd_of_coupled_scalar_problem():
    """With eps1 = eps0 the strain itself scales with xi; the integrated d1
    must match the central finite difference of the coupled problem, with
    the gap shrinking ~4x when h halves."""
    E0, eps, a, eta = _uniaxial_setup()
    T = 1.0 / a
    n = 20_000
    dt = T / n

    def coupled_d(xi):
        # deterministic damage with stiffness (1+xi)E0 and strain eps0*(1+xi),
        # integrated with the same Euler scheme and step
        e = eps * (1 + xi)
        Er = (1 + xi) * E0
        d = np.zeros(1)
        for _ in range(n):
            d = update_damage_order0(d, e, dt, Er, eta)
        return d[0]

    d0 = np.zeros(1)
    d1 = np.zeros(1)
    for _ in range(n):
        d1 = update_damage_order1(d0, d1, eps, eps, dt, E0, eta)
        d0 = update_damage_order0(d0, eps, dt, E0, eta)

    gaps = []
    for h in (2e-3, 1e-3):
        fd = (coupled_d(h) - coupled_d(-h)) / (2 * h)
        gaps.append(abs(fd - d1[0]))
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.2)
    assert gaps[1] / abs(d1[0]) < 1e-5


# ---------------------------------------------------------------------------
# stress laws
# ---------------------------------------------------------------------------


def test_stress0_limits():
    E0 = stiffness_voigt(LAM, MU)
    eps = np.array([[1e-3, 2e-4, 0, 0, 0, 5e-4]])
    elastic = eps @ E0.T
    assert np.array_equal(stress_order0(np.zeros(1), eps, E0), elastic)
    np.testing.assert_allclose(stress_order0(np.array([math.log(2)]), eps, E0),
                               0.5 * elastic, rtol=1e-15)
    assert np.all(stress_order0(np.array([0.3]), np.zeros((1, 6)), E0) == 0.0)


@given(d0=st.floats(min_value=0, max_value=5), eps=strains)
def test_stress1_reduces_to_stress0(d0, eps):
    E0 = stiffness_voigt(LAM, MU)
    s0 = stress_order0(np.array([d0]), eps[None, :], E0)
    s1 = stress_order1(np.array([d0]), np.zeros(1), eps[None, :], np.zeros((1, 6)), E0)
    assert np.array_equal(s0, s1)


def test_stress1_fully_compensated():
    E0 = stiffness_voigt(LAM, MU)
    eps = np.array([[1e-3, 0, 0, 0, 0, 0]])
    s1 = stress_order1(np.array([0.2]), np.ones(1), eps, np.zeros((1, 6)), E0)
    assert np.all(s1 == 0.0)


def test_stress1_matches_fd_of_stress_law():
    """sigma(xi) = exp(-(d0 + xi d1)) (1+xi) E0 (eps0 + xi eps1): the
    first-order stress equals the central FD at xi=0 to O(h^2)."""
    E0 = stiffness_voigt(LAM, MU)
    d0, d1 = 0.4, 0.6
    eps0 = np.array([1e-3, -2e-4, 0, 3e-4, 0, 5e-4])
    eps1 = np.array([2e-4, 1e-4, 0, 0, -1e-4, 0])

    def sigma(xi):
        return math.exp(-(d0 + xi * d1)) * (1 + xi) * ((eps0 + xi * eps1) @ E0.T)

    s1 = stress_order1(np.array([d0]), np.array([d1]), eps0[None], eps1[None], E0)[0]
    gaps = []
    for h in (1e-3, 5e-4):
        fd = (sigma(h) - sigma(-h)) / (2 * h)
        gaps.append(np.linalg.norm(fd - s1))
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.05)
    assert gaps[1] / np.linalg.norm(s1) < 1e-6


def test_damage1_rate_cross_term_has_no_half():
    """The eps1 cross contribution enters as eps1 : E0 : eps0 (the quadratic
    form derivative doubles the half)."""
    E0 = stiffness_voigt(LAM, MU)
    eps0 = np.array([[1e-3, 0, 0, 0, 0, 0]])
    eps1 = np.array([[2e-4, 0, 0, 0, 0, 0]])
    eta = 1e3
    r = damage_rate_order1(np.zeros(1), np.zeros(1), eps0, eps1, E0, eta)
    psi0 = free_energy(eps0[0], E0)
    cross = eps1[0] @ E0 @ eps0[0]
    assert r[0] == pytest.approx((psi0 + cross) / eta, rel=1e-14)
