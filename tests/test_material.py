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
    Order0Law,
    Order1Law,
    _contract,
    characteristic_scales,
    free_energy,
    stiffness_voigt,
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


def dot6(a, b):
    """a : b over the last (Voigt) axis, the reference the laws' one-pass
    contraction is checked against: the six products added left to right,
    starting from +0.0 as ``np.add.reduce`` does (so a point whose six
    products are all -0.0 sums to +0.0)."""
    p = np.asarray(a) * np.asarray(b)
    return (((((0.0 + p[..., 0]) + p[..., 1]) + p[..., 2]) + p[..., 3]) + p[..., 4]) + p[..., 5]


def _same_bits(a, b):
    """Equal shapes and equal bit patterns, signbits of zeros included."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


voigt_shapes = st.integers(1, 40).map(lambda n: (n, 6))
voigt_entries = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


def _memory_orders(a):
    """``a`` as drawn (Gauss-point-major) and component-major."""
    return (a, np.ascontiguousarray(a.T).T)


@given(shape=voigt_shapes, data=st.data())
def test_voigt_contraction_is_bitwise_the_numpy_sum(shape, data):
    """The laws' contraction adds the six products in the reference order,
    which is numpy's ``sum(axis=-1)``'s, for any number of points, one
    included, in either memory order; this fails if numpy's einsum
    reorders or fuses the sum."""
    a, b = (data.draw(hnp.arrays(np.float64, shape, elements=voigt_entries))
            for _ in range(2))
    ref = dot6(a, b)
    assert np.array_equal(ref, (a * b).sum(axis=-1))
    for x in _memory_orders(a):
        for y in _memory_orders(b):
            assert _same_bits(_contract(x, y), ref)


def test_voigt_contraction_of_one_point_is_the_reference():
    """One point at a time, over products of mixed magnitudes whose sum
    depends on the order of addition, the contraction is the reference."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((200, 6)) * 10.0 ** rng.integers(-5, 6, (200, 6))
    b = rng.standard_normal((200, 6))
    for i in range(200):
        assert _same_bits(_contract(a[i:i + 1], b[i:i + 1]), dot6(a[i:i + 1], b[i:i + 1])), i


def _signed_zero_and_subnormal_rows(n, rng):
    """(n, 6) operands with whole Voigt components of +0.0, of -0.0 and of
    subnormals next to normal ones; every 7th point has six products of
    -0.0, and the points 3 past those have subnormal products only."""
    tiny = np.finfo(np.float64).smallest_subnormal
    a, b = rng.standard_normal((2, n, 6)) * 1e-3
    a[:, 1], b[:, 2] = 0.0, -0.0
    a[:, 3] = tiny * rng.integers(-64, 64, n)
    b[:, 4] = tiny * rng.integers(1, 8, n)
    a[::7], b[::7] = -0.0, 1.0 + rng.random((len(b[::7]), 6))
    a[3::7] = rng.integers(-3, 4, (len(a[3::7]), 6))
    b[3::7] = tiny * rng.integers(-5, 6, (len(b[3::7]), 6))
    return a, b


@pytest.mark.parametrize("n", [4752, 5168])
def test_voigt_contraction_keeps_signed_zeros_and_subnormals(n):
    """At the desk meshes' Gauss-point counts, the contraction equals the
    reference bit for bit, signbits of zeros included, on rows of +-0.0 and
    of subnormals, for component-major and Gauss-point-major operands."""
    a, b = _signed_zero_and_subnormal_rows(n, np.random.default_rng(n))
    p = a * b
    assert (p[::7] == 0.0).all() and np.signbit(p[::7]).all()
    ref = dot6(a, b)
    assert (ref[::7] == 0.0).all() and not np.signbit(ref[::7]).any()
    subnormal = ref[3::7][ref[3::7] != 0.0]
    assert subnormal.size > n // 8 and (np.abs(subnormal) < np.finfo(np.float64).tiny).all()
    for x in _memory_orders(a):
        for y in _memory_orders(b):
            assert _same_bits(_contract(x, y), ref)


def test_free_energy_of_one_vector_is_a_scalar():
    E = stiffness_voigt(LAM, MU)
    eps = np.array([1e-3, -2e-4, 5e-4, 1e-4, 0.0, 3e-4])
    psi = free_energy(eps, E)
    assert np.ndim(psi) == 0
    assert psi == free_energy(eps[None, :], E)[0]
    assert _same_bits(psi, 0.5 * dot6(eps, eps @ E.T))


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
    assert Order0Law(E0, eta, 1e-3).damage(d, np.zeros((1, 6)), 0)[0] == d[0]


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
        d = Order0Law(E0, eta, dt).damage(d, eps, 0)
    assert d[0] == pytest.approx(math.log(2.0), rel=1e-4)


def test_damage0_euler_first_order_convergence():
    E0, eps, a, eta = _uniaxial_setup()
    T = 1.0 / a
    errs = []
    for n in (200, 400, 800):
        d = np.zeros(1)
        dt = T / n
        for _ in range(n):
            d = Order0Law(E0, eta, dt).damage(d, eps, 0)
        errs.append(abs(d[0] - math.log(2.0)))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)


@given(d=st.floats(min_value=0.0, max_value=20.0), eps=strains,
       dt=st.floats(min_value=1e-9, max_value=1e-2))
def test_damage0_never_heals(d, eps, dt):
    E0 = stiffness_voigt(LAM, MU)
    d_new = Order0Law(E0, 1e3, dt).damage(np.array([d]), eps[None, :], 0)
    assert d_new[0] >= d


# ---------------------------------------------------------------------------
# damage evolution, order 1 (sensitivity)
# ---------------------------------------------------------------------------


def test_damage1_zero_strain_is_fixed_point():
    E0, _, _, eta = _uniaxial_setup()
    z = np.zeros((1, 6))
    assert Order1Law(E0, eta, 1e-3).hold(z, np.array([0.3])).damage(np.array([0.2]), z)[0] == 0.2


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
        d1 = Order1Law(E0, eta, dt).hold(eps, d0).damage(d1, z)
        d0 = Order0Law(E0, eta, dt).damage(d0, eps, 0)
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
            d = Order0Law(Er, eta, dt).damage(d, e, 0)
        return d[0]

    d0 = np.zeros(1)
    d1 = np.zeros(1)
    for _ in range(n):
        d1 = Order1Law(E0, eta, dt).hold(eps, d0).damage(d1, eps)
        d0 = Order0Law(E0, eta, dt).damage(d0, eps, 0)

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
    assert np.array_equal(Order0Law(E0, 1.0, 0.0).stress(np.zeros(1), eps, 0), elastic)
    np.testing.assert_allclose(Order0Law(E0, 1.0, 0.0).stress(np.array([math.log(2)]), eps, 0),
                               0.5 * elastic, rtol=1e-15)
    assert np.all(Order0Law(E0, 1.0, 0.0).stress(np.array([0.3]), np.zeros((1, 6)), 0) == 0.0)


@given(d0=st.floats(min_value=0, max_value=5), eps=strains)
def test_stress1_reduces_to_stress0(d0, eps):
    E0 = stiffness_voigt(LAM, MU)
    s0 = Order0Law(E0, 1.0, 0.0).stress(np.array([d0]), eps[None, :], 0)
    law1 = Order1Law(E0, 1.0, 0.0).hold(eps[None, :], np.array([d0]))
    s1 = law1.stress(np.zeros(1), np.zeros((1, 6)))
    assert np.array_equal(s0, s1)


def test_stress1_fully_compensated():
    E0 = stiffness_voigt(LAM, MU)
    eps = np.array([[1e-3, 0, 0, 0, 0, 0]])
    s1 = Order1Law(E0, 1.0, 0.0).hold(eps, np.array([0.2])).stress(np.ones(1), np.zeros((1, 6)))
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

    law1 = Order1Law(E0, 1.0, 0.0).hold(eps0[None], np.array([d0]))
    s1 = law1.stress(np.array([d1]), eps1[None])[0]
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
    r = Order1Law(E0, eta, 0.0).hold(eps0, np.zeros(1)).rate(np.zeros(1), eps1)
    psi0 = free_energy(eps0[0], E0)
    cross = eps1[0] @ E0 @ eps0[0]
    assert r[0] == pytest.approx((psi0 + cross) / eta, rel=1e-14)


# ---------------------------------------------------------------------------
# memory layout: the laws give the same bits for any input order
# ---------------------------------------------------------------------------


def _gauss_batch(n):
    values = st.floats(min_value=-1e-2, max_value=1e-2, allow_nan=False)
    return hnp.arrays(np.float64, (n, 6), elements=values)


@st.composite
def law_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    E = stiffness_voigt(draw(moduli), draw(moduli)) * draw(st.floats(0.1, 1.9))
    d = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 5.0)))
    d1 = draw(hnp.arrays(np.float64, n, elements=st.floats(-5.0, 5.0)))
    return E, d, d1, draw(_gauss_batch(n)), draw(_gauss_batch(n))


def _check_order0_bits(E, d, eps, eta=1e3, dt=1e-6):
    """Bitwise equal for C- and F-ordered strains, and to the gp-major
    formula exp(-d)[:, None] * (eps @ E.T): (E @ eps.T).T must stay the
    same dgemm as eps @ E.T.  The stress comes out component-major."""
    s = eps @ E.T
    stress = np.exp(-d)[:, None] * s
    damage = d + (0.5 * dt / eta) * (np.exp(-d) * dot6(eps, s))
    for e in (eps, np.asfortranarray(eps)):
        law = Order0Law(E, eta, dt)
        out = law.stress(d, e, 0)
        assert out.T.flags.c_contiguous
        assert np.array_equal(out, stress)
        assert np.array_equal(law.damage(d, e, 0), damage)


def _check_order1_bits(E0, d0, d1, eps0, eps1, eta=1e3, dt=1e-6):
    s0, s1 = eps0 @ E0.T, eps1 @ E0.T
    expd0 = np.exp(-d0)
    stress = expd0[:, None] * ((1.0 - d1)[:, None] * s0 + s1)
    rate = expd0 / eta * ((1.0 - d1) * (0.5 * dot6(eps0, s0)) + dot6(eps1, s0))
    damage = d1 + dt * rate
    for e0 in (eps0, np.asfortranarray(eps0)):
        for e1 in (eps1, np.asfortranarray(eps1)):
            law = Order1Law(E0, eta, dt).hold(e0, d0)
            out = law.stress(d1, e1)
            assert out.T.flags.c_contiguous
            assert np.array_equal(out, stress)
            assert np.array_equal(law.damage(d1, e1), damage)


@given(law_inputs())
@settings(max_examples=60, deadline=None)
def test_order0_law_same_bits_for_c_and_f_order(inputs):
    E, d, _d1, eps, _eps1 = inputs
    _check_order0_bits(E, d, eps)


@given(law_inputs())
@settings(max_examples=60, deadline=None)
def test_order1_law_same_bits_for_c_and_f_order(inputs):
    _check_order1_bits(*inputs)


def _desk_state(n, seed):
    rng = np.random.default_rng(seed)
    return stiffness_voigt(LAM, MU) * 1.15, rng.random(n) * 3.0, rng.standard_normal((n, 6)) * 1e-3


def test_order0_repeated_stress_is_the_formula():
    """A second stress call in one step forms its own array, with the same
    bits as the first: exp(-d) * (E @ eps.T).T."""
    E, d, eps = _desk_state(5168, 3)
    law = Order0Law(E, 1e3, 1e-6)
    first, second = law.stress(d, eps, 0), law.stress(d, eps, 0)
    sigma = (np.exp(-d) * (E @ eps.T)).T
    assert _same_bits(first, sigma) and _same_bits(second, sigma)
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("n", [4752, 5168])
def test_laws_same_bits_at_desk_mesh_sizes(n):
    """The Gauss-point counts of plate_hole_desk and double_notch_desk."""
    rng = np.random.default_rng(n)
    E = stiffness_voigt(LAM, MU) * 1.15
    d, d1 = rng.random(n) * 3.0, rng.standard_normal(n)
    eps0, eps1 = rng.standard_normal((2, n, 6)) * 1e-3
    _check_order0_bits(E, d, eps0)
    _check_order1_bits(E, d, d1, eps0, eps1)
