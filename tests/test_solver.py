"""Structural FEM correctness: mass lumping, assembly, patch test, CFL,
the explicit integrator against closed-form dynamics, and energy bookkeeping.
"""

import numpy as np
import pytest

from tsmfem import hexa
from tsmfem.config import load_config
from tsmfem.material import MaterialParams, stress_order0
from tsmfem.mesh import DirichletRamp, LoadCase, Mesh, _structured_box, generate_plate_with_hole
from tsmfem.solver import (
    ElementQuadrature,
    ExplicitEngine,
    InstabilityError,
    internal_force,
    lumped_mass,
    reaction_force,
    run_deterministic,
    stable_timestep,
)

PARAMS = MaterialParams(lam=1.0e9, mu=0.8e9, rho=1000.0, eta=1e9)
RIGID = MaterialParams(lam=1.0e9, mu=0.8e9, rho=1000.0, eta=1e30)  # damage off


def _box_mesh(nx, ny, nz, w, h, t):
    nodes, elements = _structured_box(nx, ny, nz, w, h, t)
    m = Mesh(nodes, elements)
    tol = 1e-9
    m.node_sets["bottom"] = np.nonzero(np.abs(nodes[:, 1]) < tol)[0]
    m.node_sets["top"] = np.nonzero(np.abs(nodes[:, 1] - h) < tol)[0]
    m.node_sets["all"] = np.arange(m.n_nodes)
    return m


def _unit_cube():
    return _box_mesh(1, 1, 1, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------


def test_lumped_mass_unit_cube():
    m = lumped_mass(_unit_cube(), 1000.0)
    assert m.sum() == pytest.approx(1000.0, rel=1e-13)
    np.testing.assert_allclose(m, 125.0, rtol=1e-13)


def test_lumped_mass_two_stacked_cubes():
    mesh = _box_mesh(1, 2, 1, 1.0, 2.0, 1.0)
    m = lumped_mass(mesh, 1000.0)
    shared = np.nonzero(np.abs(mesh.nodes[:, 1] - 1.0) < 1e-12)[0]
    np.testing.assert_allclose(m[shared], 250.0, rtol=1e-13)
    assert m.sum() == pytest.approx(2000.0, rel=1e-13)


def test_mass_conservation_plate():
    mesh = generate_plate_with_hole()
    quad = ElementQuadrature.build(mesh)
    m = lumped_mass(mesh, PARAMS.rho, quad)
    vol = quad.element_volumes().sum()
    assert abs(m.sum() - PARAMS.rho * vol) <= 1e-12 * PARAMS.rho * vol


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_zero_stress_zero_force():
    mesh = _unit_cube()
    quad = ElementQuadrature.build(mesh)
    f = internal_force(mesh, quad, np.zeros((quad.n_gauss, 6)))
    assert np.all(f == 0.0)


def test_uniform_uniaxial_stress_face_forces():
    mesh = _unit_cube()
    quad = ElementQuadrature.build(mesh)
    sig = 2.0e6
    stress = np.zeros((quad.n_gauss, 6))
    stress[:, 0] = sig
    f = internal_force(mesh, quad, stress)
    # divergence-free: forces sum to zero
    np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-9 * sig)
    right = np.nonzero(np.abs(mesh.nodes[:, 0] - 1.0) < 1e-12)[0]
    left = np.nonzero(np.abs(mesh.nodes[:, 0]) < 1e-12)[0]
    assert f[right, 0].sum() == pytest.approx(sig, rel=1e-12)  # area 1
    assert f[left, 0].sum() == pytest.approx(-sig, rel=1e-12)


def test_patch_test_uniform_strain():
    """Linear displacement on a 2x2x2 block: exact uniform strain/stress and
    vanishing interior residual."""
    mesh = _box_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    quad = ElementQuadrature.build(mesh)
    A = np.array([[2e-4, 1e-4, 0.0], [0.0, -1e-4, 5e-5], [1e-4, 0.0, 3e-4]])
    u = mesh.nodes @ A.T
    eps = quad.strains(u)
    exact = np.array([A[0, 0], A[1, 1], A[2, 2],
                      A[1, 2] + A[2, 1], A[0, 2] + A[2, 0], A[0, 1] + A[1, 0]])
    np.testing.assert_allclose(eps, np.broadcast_to(exact, eps.shape), rtol=0,
                               atol=1e-10 * np.abs(exact).max())

    sigma = stress_order0(np.zeros(quad.n_gauss), eps, PARAMS.stiffness)
    f = internal_force(mesh, quad, sigma)
    interior = np.nonzero(np.all((mesh.nodes > 1e-12) & (mesh.nodes < 1 - 1e-12), axis=1))[0]
    scale = np.abs(f).max()
    assert np.abs(f[interior]).max() <= 1e-10 * scale


def test_rigid_translation_zero_strain_and_force():
    mesh = generate_plate_with_hole(width=0.1, height=0.1, thickness=0.01,
                                    hole_radius=0.03, nx=6, ny=6)
    quad = ElementQuadrature.build(mesh)
    u = np.broadcast_to(np.array([1e-3, -2e-3, 5e-4]), (mesh.n_nodes, 3)).copy()
    eps = quad.strains(u)
    assert np.abs(eps).max() <= 1e-13  # pure roundoff at 1/h ~ 1e2 gradients
    sigma = stress_order0(np.zeros(quad.n_gauss), eps, PARAMS.stiffness)
    assert np.abs(internal_force(mesh, quad, sigma)).max() <= 1e-9


DESK_PRESETS = ["plate_coarse_desk", "plate_hole_desk", "double_notch_desk"]


def _desk_mesh(preset):
    return load_config(overrides={"problem": {"preset": preset}}).problem.mesh


@pytest.mark.parametrize("preset", DESK_PRESETS)
def test_operators_store_only_structural_nonzeros(preset):
    """Each Gauss point's 6 strain rows hold 8 (normal) or 16 (shear)
    entries, columns ascending, none an explicit zero; force_op is bitwise
    the detJw-weighted transpose of strain_op."""
    quad = ElementQuadrature.build(_desk_mesh(preset))
    S = quad.strain_op
    assert S.nnz == S.count_nonzero() == 72 * quad.n_gauss
    per_row = np.diff(S.indptr).reshape(quad.n_gauss, 6)
    assert np.array_equal(per_row, np.broadcast_to([8, 8, 8, 16, 16, 16], per_row.shape))
    steps = np.diff(S.indices)
    within_row = np.ones(steps.size, dtype=bool)
    within_row[S.indptr[1:-1] - 1] = False
    assert (steps[within_row] > 0).all()

    back = quad.force_op.T.tocsr()  # strain_op's layout
    assert quad.force_op.nnz == S.nnz
    assert np.array_equal(back.indptr, S.indptr)
    assert np.array_equal(back.indices, S.indices)
    w = np.repeat(quad.detJw.ravel(), 6)
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    assert np.array_equal(back.data, S.data * w[rows])


def _dense_b_reference(mesh):
    """Per-element dense 6x24 B blocks and detJ*w, Gauss point by Gauss point."""
    blocks, weights = [], []
    for X in mesh.element_coords():
        for g in range(8):
            dN = hexa.DN_AT_GP[g]  # (8 nodes, 3) reference gradients
            J = dN.T @ X
            dx, dy, dz = (dN @ np.linalg.inv(J).T).T
            B = np.zeros((6, 24))
            B[0, 0::3], B[1, 1::3], B[2, 2::3] = dx, dy, dz
            B[3, 1::3], B[3, 2::3] = dz, dy
            B[4, 0::3], B[4, 2::3] = dz, dx
            B[5, 0::3], B[5, 1::3] = dy, dx
            blocks.append(B)
            weights.append(np.linalg.det(J) * hexa.GAUSS_WEIGHTS[g])
    return np.array(blocks).reshape(mesh.n_elements, 8, 6, 24), np.array(weights)


def test_operator_products_match_dense_b_elementwise():
    mesh = _desk_mesh("plate_coarse_desk")
    quad = ElementQuadrature.build(mesh)
    B, w = _dense_b_reference(mesh)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((mesh.n_nodes, 3))
    s = rng.standard_normal((quad.n_gauss, 6))

    dofs = (3 * mesh.elements[:, :, None] + np.arange(3)).reshape(mesh.n_elements, 24)
    eps_ref = np.einsum("egij,ej->egi", B, u.ravel()[dofs]).reshape(quad.n_gauss, 6)
    f_ref = np.zeros(3 * mesh.n_nodes)
    s_w = s.reshape(mesh.n_elements, 8, 6) * w.reshape(mesh.n_elements, 8, 1)
    np.add.at(f_ref, dofs, np.einsum("egij,egi->ej", B, s_w))

    eps = quad.strains(u)
    assert np.abs(eps - eps_ref).max() <= 1e-13 * np.abs(eps_ref).max()
    f = internal_force(mesh, quad, s).ravel()
    assert np.abs(f - f_ref).max() <= 1e-13 * np.abs(f_ref).max()


# ---------------------------------------------------------------------------
# stable timestep
# ---------------------------------------------------------------------------


def test_stable_timestep_scalings():
    coarse = _box_mesh(2, 2, 1, 1.0, 1.0, 0.5)
    fine = _box_mesh(4, 4, 2, 1.0, 1.0, 0.5)  # every edge halved
    assert stable_timestep(fine, PARAMS) == pytest.approx(
        0.5 * stable_timestep(coarse, PARAMS), rel=1e-12)
    heavy = MaterialParams(lam=PARAMS.lam, mu=PARAMS.mu, rho=4000.0, eta=PARAMS.eta)
    assert stable_timestep(coarse, heavy) == pytest.approx(
        2.0 * stable_timestep(coarse, PARAMS), rel=1e-12)


@pytest.mark.parametrize("gen,ref_dt", [("dns", 1.6e-6), ("plate", 1.8e-6)])
def test_stable_timestep_benchmark_sanity(gen, ref_dt):
    from tsmfem.mesh import generate_double_notch
    mesh = generate_double_notch() if gen == "dns" else generate_plate_with_hole()
    dt = stable_timestep(mesh, PARAMS, safety=0.5)
    assert ref_dt / 4 <= dt <= ref_dt * 4


# ---------------------------------------------------------------------------
# explicit stepping
# ---------------------------------------------------------------------------


def _eval_pair(engine, state, stress_fn):
    eps, _s, _f, a = engine.evaluate(state, stress_fn)
    return eps, a


def _fix_all(mesh, total_time):
    return LoadCase(dirichlet=(
        DirichletRamp("bottom", 0, 0.0, total_time),
        DirichletRamp("bottom", 1, 0.0, total_time),
        DirichletRamp("bottom", 2, 0.0, total_time),
    ), total_time=total_time)


def test_zero_state_is_fixed_point():
    mesh = _unit_cube()
    loads = _fix_all(mesh, 1.0)
    eng = ExplicitEngine(mesh, loads, PARAMS.rho, 1e-4)
    E0 = PARAMS.stiffness

    def stress_fn(d, eps, n):
        return stress_order0(d, eps, E0)

    def damage_fn(d, eps, n):
        return d

    state = eng.initial_state()
    for _ in range(50):
        state = eng.advance(state, *_eval_pair(eng, state, stress_fn), damage_fn)
    assert np.all(state.u == 0.0)
    assert np.all(state.v == 0.0)
    assert np.all(state.d == 0.0)


def _column_problem():
    """Two stacked cubes, x/z fixed everywhere, bottom fixed, top y ramped:
    the four mid-layer y dofs form one symmetric oscillator."""
    mesh = _box_mesh(1, 2, 1, 1.0, 2.0, 1.0)
    return mesh


def _measure_k(mesh, quad, pattern):
    """Nodal y-force at a mid node for a given unit nodal y-pattern."""
    E0 = RIGID.stiffness
    u = np.zeros((mesh.n_nodes, 3))
    u[:, 1] = pattern
    eps = quad.strains(u)
    sigma = stress_order0(np.zeros(quad.n_gauss), eps, E0)
    return internal_force(mesh, quad, sigma)


def test_central_difference_matches_discrete_oscillator():
    mesh = _column_problem()
    quad = ElementQuadrature.build(mesh)
    mid = np.nonzero(np.abs(mesh.nodes[:, 1] - 1.0) < 1e-12)[0]
    top = mesh.node_sets["top"]

    # stiffness coefficients of the symmetric mode from the assembled operator
    pat_mid = np.zeros(mesh.n_nodes)
    pat_mid[mid] = 1.0
    k_mm = _measure_k(mesh, quad, pat_mid)[mid[0], 1]
    pat_top = np.zeros(mesh.n_nodes)
    pat_top[top] = 1.0
    k_mt = _measure_k(mesh, quad, pat_top)[mid[0], 1]
    m_node = lumped_mass(mesh, RIGID.rho, quad)[mid[0]]
    omega = np.sqrt(k_mm / m_node)

    T10 = 10 * 2 * np.pi / omega
    amp = 1e-3
    c = amp / T10
    loads = LoadCase(dirichlet=(
        DirichletRamp("all", 0, 0.0, T10),
        DirichletRamp("all", 2, 0.0, T10),
        DirichletRamp("bottom", 1, 0.0, T10),
        DirichletRamp("top", 1, amp, T10),
    ), total_time=T10)

    dt = omega and 0.02 / omega  # omega*dt = 0.02 -> phase error well under 1e-3
    hist = run_deterministic(mesh, loads, RIGID, 0.0, dt, output_times=[], force_stride=10**9)

    # re-run capturing the mid dof trajectory through the engine directly
    eng = ExplicitEngine(mesh, loads, RIGID.rho, dt)
    E0 = RIGID.stiffness

    def stress_fn(d, eps, n):
        return stress_order0(d, eps, E0)

    def damage_fn(d, eps, n):
        return d

    state = eng.initial_state()
    n_steps = int(np.ceil(T10 / dt))
    times, u_num = [], []
    for _ in range(n_steps):
        state = eng.advance(state, *_eval_pair(eng, state, stress_fn), damage_fn)
        times.append(state.time)
        u_num.append(state.u[mid[0], 1])
    times = np.asarray(times)
    u_num = np.asarray(u_num)
    # m u'' + k_mm u = -k_mt * c t  ->  u = -(k_mt/k_mm) c (t - sin(w t)/w)
    u_exact = -(k_mt / k_mm) * c * (times - np.sin(omega * times) / omega)
    err = np.abs(u_num - u_exact).max() / np.abs(u_exact).max()
    assert err <= 1e-3
    assert hist.n_steps == n_steps


def test_energy_drift_after_ramp_hold():
    """Ramp then hold: with damage disabled the staggered-velocity energy
    stays within 1% over 1e5 steps at dt = 0.5 * stable."""
    mesh = _column_problem()
    quad = ElementQuadrature.build(mesh)
    dt = stable_timestep(mesh, RIGID, safety=0.5)
    n_steps = 100_000
    T = n_steps * dt
    t_ramp = T / 5
    loads = LoadCase(dirichlet=(
        DirichletRamp("all", 0, 0.0, t_ramp),
        DirichletRamp("all", 2, 0.0, t_ramp),
        DirichletRamp("bottom", 1, 0.0, t_ramp),
        DirichletRamp("top", 1, 1e-3, t_ramp),
    ), total_time=T)
    eng = ExplicitEngine(mesh, loads, RIGID.rho, dt, quad=quad)
    E0 = RIGID.stiffness
    m3 = eng.mass3

    def stress_fn(d, eps, n):
        return stress_order0(d, eps, E0)

    def damage_fn(d, eps, n):
        return d

    state = eng.initial_state()
    energies = []
    v_prev = state.v.ravel().copy()
    for i in range(n_steps):
        new = eng.advance(state, *_eval_pair(eng, state, stress_fn), damage_fn)
        if new.time > t_ramp + 2 * dt:
            ke = 0.5 * float(m3 @ (v_prev * new.v.ravel()))
            eps = quad.strains(new.u)
            sigma = stress_order0(new.d, eps, E0)
            f = eng.quad.force_op @ sigma.ravel()
            pe = 0.5 * float(new.u.ravel() @ f)
            energies.append(ke + pe)
        v_prev = new.v.ravel().copy()
        state = new
    energies = np.asarray(energies)
    drift = np.abs(energies - energies[0]).max() / abs(energies[0])
    assert drift <= 0.01


# ---------------------------------------------------------------------------
# reaction forces
# ---------------------------------------------------------------------------


def test_reaction_static_uniaxial():
    """Uniform axial stress state: |F| = sigma * A on the loaded face and
    top/bottom reactions cancel to machine precision."""
    mesh = _unit_cube()
    quad = ElementQuadrature.build(mesh)
    mass = lumped_mass(mesh, PARAMS.rho, quad)
    e = 1e-3
    u = np.zeros((mesh.n_nodes, 3))
    u[:, 1] = e * mesh.nodes[:, 1]  # uniaxial constrained stretch
    eps = quad.strains(u)
    sigma = stress_order0(np.zeros(quad.n_gauss), eps, PARAMS.stiffness)
    accel = np.zeros((mesh.n_nodes, 3))
    F_top = reaction_force(mesh, quad, mass, sigma, accel, mesh.node_sets["top"])
    F_bot = reaction_force(mesh, quad, mass, sigma, accel, mesh.node_sets["bottom"])
    sig_yy = (PARAMS.lam + 2 * PARAMS.mu) * e
    assert F_top[1] == pytest.approx(sig_yy * 1.0, rel=1e-12)
    assert np.linalg.norm(F_top + F_bot) <= 1e-6 * np.linalg.norm(F_top)


def test_reaction_includes_mass_damping():
    mesh = _box_mesh(1, 2, 1, 1.0, 2.0, 1.0)
    quad = ElementQuadrature.build(mesh)
    mass = lumped_mass(mesh, PARAMS.rho, quad)
    rng = np.random.default_rng(7)
    sigma = rng.normal(0.0, 1e6, (quad.n_gauss, 6))
    accel = rng.normal(0.0, 1e2, (mesh.n_nodes, 3))
    velocity = rng.normal(0.0, 1.0, (mesh.n_nodes, 3))
    alpha = 50.0
    f_int = internal_force(mesh, quad, sigma)
    for name in ("top", "bottom"):
        ids = mesh.node_sets[name]
        expected = (f_int[ids] + mass[ids, None] * (accel[ids] + alpha * velocity[ids])).sum(axis=0)
        F = reaction_force(mesh, quad, mass, sigma, accel, ids,
                           velocity=velocity, mass_damping=alpha)
        np.testing.assert_allclose(F, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
        undamped = reaction_force(mesh, quad, mass, sigma, accel, ids, velocity=velocity)
        assert np.abs(F - undamped).min() > 1e-6 * np.abs(expected).max()


def test_reaction_zero_state():
    mesh = _unit_cube()
    quad = ElementQuadrature.build(mesh)
    mass = lumped_mass(mesh, PARAMS.rho, quad)
    F = reaction_force(mesh, quad, mass, np.zeros((quad.n_gauss, 6)),
                       np.zeros((mesh.n_nodes, 3)), mesh.node_sets["top"])
    assert np.all(F == 0.0)


def test_reaction_empty_set_rejected():
    mesh = _unit_cube()
    quad = ElementQuadrature.build(mesh)
    mass = lumped_mass(mesh, PARAMS.rho, quad)
    with pytest.raises(ValueError):
        reaction_force(mesh, quad, mass, np.zeros((quad.n_gauss, 6)),
                       np.zeros((mesh.n_nodes, 3)), np.array([], dtype=int))


# ---------------------------------------------------------------------------
# deterministic runs
# ---------------------------------------------------------------------------


def _coarse_plate_problem(T=2e-3, amp=5e-4):
    mesh = generate_plate_with_hole(width=0.1, height=0.075, thickness=0.0125,
                                    hole_radius=0.03125, nx=8, ny=6)
    params = MaterialParams(lam=1e9, mu=0.8e9, rho=1000.0, eta=2e4)
    loads = LoadCase(dirichlet=(
        DirichletRamp("symmetry_x", 0, 0.0, T),
        DirichletRamp("symmetry_y", 1, 0.0, T),
        DirichletRamp("front", 2, 0.0, T),
        DirichletRamp("top", 1, amp, T),
    ), total_time=T)
    return mesh, loads, params


def test_run_deterministic_reproducible_bitwise():
    mesh, loads, params = _coarse_plate_problem()
    dt = stable_timestep(mesh, params, 0.5)
    h1 = run_deterministic(mesh, loads, params, 0.0, dt, [loads.total_time])
    h2 = run_deterministic(mesh, loads, params, 0.0, dt, [loads.total_time])
    assert np.array_equal(h1.u, h2.u)
    assert np.array_equal(h1.d, h2.d)
    assert np.array_equal(h1.forces["top"], h2.forces["top"])


def test_xi_runs_bracket_damage():
    mesh, loads, params = _coarse_plate_problem()
    dt = stable_timestep(mesh, params, 0.4)
    t_out = [loads.total_time / 2]
    d_lo = run_deterministic(mesh, loads, params, -0.1, dt, t_out).d[0]
    d_mid = run_deterministic(mesh, loads, params, 0.0, dt, t_out).d[0]
    d_hi = run_deterministic(mesh, loads, params, 0.1, dt, t_out).d[0]
    assert np.all(d_hi >= d_mid - 1e-15)
    assert np.all(d_mid >= d_lo - 1e-15)


def test_instability_detected():
    # with damage frozen nothing caps the exponential growth, so the
    # non-finite guard must fire and report the step
    from tsmfem.solver import run_with_kernels

    mesh, loads, _ = _coarse_plate_problem(T=3e-2)
    dt = 20 * stable_timestep(mesh, RIGID, 0.5)  # far past the CFL limit
    E0 = RIGID.stiffness
    with pytest.raises(InstabilityError) as err, np.errstate(over="ignore", invalid="ignore"):
        run_with_kernels(mesh, loads, RIGID.rho, dt, [loads.total_time],
                         lambda d, eps, n: stress_order0(d, eps, E0),
                         lambda d, eps, n: d)
    assert err.value.step > 0


def test_invalid_xi_rejected():
    mesh, loads, params = _coarse_plate_problem()
    with pytest.raises(ValueError):
        run_deterministic(mesh, loads, params, -1.0, 1e-6, [])
