"""Structural FEM correctness: mass lumping, assembly, patch test, CFL,
the explicit integrator against closed-form dynamics, and energy bookkeeping.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from tsmfem import hexa, solver
from tsmfem.config import load_config
from tsmfem.material import MaterialParams, Order0Law
from tsmfem.mesh import DirichletRamp, LoadCase, Mesh, _structured_box, generate_plate_with_hole
from tsmfem.montecarlo import XiDistribution, run_mc
from tsmfem.solver import (
    ElementQuadrature,
    ExplicitEngine,
    InstabilityError,
    _csr_product,
    _Dirichlet,
    deterministic_kernels,
    lumped_mass,
    reaction_sums,
    run_deterministic,
    run_engines,
    set_sum_operator,
    stable_timestep,
    to_public_order,
)
from tsmfem.tsm import FirstOrderKernels, InMemoryExchange, Problem, TsmConfig, run_tsm

from test_material import dot6

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


def _engine_order(a):
    """Gauss-point values (ngp, ...) in the public order 8 e + q, in the
    engine's order q * nelem + e: ``to_public_order`` undone."""
    ne = a.shape[0] // 8
    return a.reshape(ne, 8, *a.shape[1:]).swapaxes(0, 1).reshape(a.shape)


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
    vol = quad.detJw.sum()
    assert abs(m.sum() - PARAMS.rho * vol) <= 1e-12 * PARAMS.rho * vol


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_zero_stress_zero_force():
    mesh = _unit_cube()
    quad = ElementQuadrature.build(mesh)
    f = quad.forces(np.zeros((quad.n_gauss, 6)))
    assert np.all(f == 0.0)


def test_uniform_uniaxial_stress_face_forces():
    mesh = _unit_cube()
    quad = ElementQuadrature.build(mesh)
    sig = 2.0e6
    stress = np.zeros((quad.n_gauss, 6))
    stress[:, 0] = sig
    f = quad.forces(stress).reshape(-1, 3)
    # divergence-free: forces sum to zero
    np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-9 * sig)
    right = np.nonzero(np.abs(mesh.nodes[:, 0] - 1.0) < 1e-12)[0]
    left = np.nonzero(np.abs(mesh.nodes[:, 0]) < 1e-12)[0]
    assert f[right, 0].sum() == pytest.approx(sig, rel=1e-12)  # area 1
    assert f[left, 0].sum() == pytest.approx(-sig, rel=1e-12)


def _assert_linear_patch(F=np.eye(3)):
    """Linear displacement u = A x on a 2x2x2 block mapped by x -> F x:
    exact uniform strain/stress and vanishing interior residual."""
    mesh = _box_mesh(2, 2, 2, 1.0, 1.0, 1.0)
    interior = np.nonzero(np.all((mesh.nodes > 1e-12) & (mesh.nodes < 1 - 1e-12), axis=1))[0]
    mesh.nodes = mesh.nodes @ F.T
    quad = ElementQuadrature.build(mesh)
    A = np.array([[2e-4, 1e-4, 0.0], [0.0, -1e-4, 5e-5], [1e-4, 0.0, 3e-4]])
    u = mesh.nodes @ A.T
    eps = quad.strains(u)
    exact = np.array([A[0, 0], A[1, 1], A[2, 2],
                      A[1, 2] + A[2, 1], A[0, 2] + A[2, 0], A[0, 1] + A[1, 0]])
    np.testing.assert_allclose(eps, np.broadcast_to(exact, eps.shape), rtol=0,
                               atol=1e-10 * np.abs(exact).max())

    sigma = Order0Law(PARAMS.stiffness, 1.0, 0.0).stress(np.zeros(quad.n_gauss), eps, 0)
    f = quad.forces(sigma).reshape(-1, 3)
    scale = np.abs(f).max()
    assert np.abs(f[interior]).max() <= 1e-10 * scale


def test_patch_test_uniform_strain():
    _assert_linear_patch()


def test_patch_test_sheared_mesh():
    """Sheared elements have a non-symmetric Jacobian, so this fails unless
    the shape-function gradients use inv(J).T."""
    _assert_linear_patch(np.array([[1.0, 0.3, 0.1], [0.05, 1.0, 0.2], [0.1, 0.4, 1.0]]))


def test_patch_test_rotated_mesh():
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    K = np.cross(np.eye(3), axis)  # K @ v = axis x v
    R = np.eye(3) + np.sin(0.7) * K + (1.0 - np.cos(0.7)) * K @ K
    assert np.allclose(R @ R.T, np.eye(3)) and np.isclose(np.linalg.det(R), 1.0)
    _assert_linear_patch(R)


def test_rigid_translation_zero_strain_and_force():
    mesh = generate_plate_with_hole(width=0.1, height=0.1, thickness=0.01,
                                    hole_radius=0.03, nx=6, ny=6)
    quad = ElementQuadrature.build(mesh)
    u = np.broadcast_to(np.array([1e-3, -2e-3, 5e-4]), (mesh.n_nodes, 3)).copy()
    eps = quad.strains(u)
    assert np.abs(eps).max() <= 1e-13  # pure roundoff at 1/h ~ 1e2 gradients
    sigma = Order0Law(PARAMS.stiffness, 1.0, 0.0).stress(np.zeros(quad.n_gauss), eps, 0)
    assert np.abs(quad.forces(sigma)).max() <= 1e-9


DESK_PRESETS = ["plate_coarse_desk", "plate_hole_desk", "double_notch_desk"]


def _desk_mesh(preset):
    return load_config(overrides={"problem": {"preset": preset}}).problem.mesh


@pytest.mark.parametrize("preset", DESK_PRESETS)
def test_operators_store_only_structural_nonzeros(preset):
    """Each Gauss point's 6 strain rows (row c * ngp + g for component c of
    Gauss point g = q * nelem + e) hold 8 (normal) or 16 (shear) entries,
    columns ascending, none an explicit zero; force_op is bitwise the
    canonical (sorted) transpose of the detJw-weighted strain_op."""
    quad = ElementQuadrature.build(_desk_mesh(preset))
    ngp = quad.n_gauss
    S = quad.strain_op
    assert S.nnz == S.count_nonzero() == 72 * ngp
    per_row = np.diff(S.indptr).reshape(6, ngp)
    assert np.array_equal(per_row, np.broadcast_to([[8], [8], [8], [16], [16], [16]],
                                                   per_row.shape))
    steps = np.diff(S.indices)
    within_row = np.ones(steps.size, dtype=bool)
    within_row[S.indptr[1:-1] - 1] = False
    assert (steps[within_row] > 0).all()

    F = quad.force_op
    w = np.tile(quad.detJw.T.ravel(), 6)  # detJw[e, q] at q * nelem + e
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    weighted = sp.csr_matrix((S.data * w[rows], S.indices, S.indptr), shape=S.shape)
    expected = weighted.T.tocsr()
    assert F.shape == expected.shape and F.has_canonical_format
    for a, b in ((F.indptr, expected.indptr), (F.indices, expected.indices),
                 (F.data, expected.data)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_element_with_a_repeated_node_rejected():
    """A collapsed hexahedron (node 6 listed twice) can keep positive
    Jacobians at the Gauss points; each strain row would then hold two
    entries for one column, so the build's validation rejects it by
    element."""
    mesh = _box_mesh(2, 1, 1, 2.0, 1.0, 1.0)
    mesh.elements[1, 6] = mesh.elements[1, 7]
    with pytest.raises(ValueError, match="element 1 repeats a node"):
        ElementQuadrature.build(mesh)


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

    eps = quad.strains(u)  # in the engine's order q * nelem + e
    assert eps.T.flags.c_contiguous  # a component-major view
    eps = to_public_order(eps)
    assert np.abs(eps - eps_ref).max() <= 1e-13 * np.abs(eps_ref).max()
    s = _engine_order(s)
    f = quad.forces(s)
    assert np.abs(f - f_ref).max() <= 1e-13 * np.abs(f_ref).max()
    assert np.array_equal(f, quad.forces(np.asfortranarray(s)))  # same bits, any order


def _distorted(mesh):
    """A copy of ``mesh`` with one node that belongs to no node set moved
    along x by 1e-3 of the shortest edge, so its elements take more than
    one shape."""
    free = np.setdiff1d(np.arange(mesh.n_nodes), np.concatenate(list(mesh.node_sets.values())))
    coords = mesh.element_coords()
    nodes = mesh.nodes.copy()
    nodes[free[0], 0] += 1e-3 * np.linalg.norm(coords[:, 1] - coords[:, 0], axis=1).min()
    return replace(mesh, nodes=nodes)


def _csr_only(quad):
    """The same quadrature without its element gemm form."""
    return replace(quad, element_dofs=None, strain_block=None, force_block=None,
                   assembly=None)


@pytest.mark.parametrize("preset", DESK_PRESETS)
def test_product_form_follows_the_element_shapes(preset):
    """Every desk mesh has one element shape and takes the element gemm
    form; its copy with one node moved by 1e-3 of an edge takes the CSR
    form, whose products are bitwise ``op @ x``."""
    mesh = _desk_mesh(preset)
    assert ElementQuadrature.build(mesh).product == "element_gemm"
    quad = ElementQuadrature.build(_distorted(mesh))
    assert quad.product == "csr" and quad.element_dofs is None
    rng = np.random.default_rng(5)
    u = rng.standard_normal((mesh.n_nodes, 3))
    s = rng.standard_normal((6, quad.n_gauss)).T
    assert np.array_equal(quad.strains(u),
                          (quad.strain_op @ u.ravel()).reshape(6, quad.n_gauss).T)
    assert np.array_equal(quad.forces(s), quad.force_op @ s.T.ravel())


def test_csr_operators_are_built_on_first_access_on_one_shape_meshes():
    """On a mesh of one element shape no step reads the CSR operators, so
    ``build`` leaves them out and the quadrature pickles without them; the
    first access builds them once.  On a mesh of more shapes ``build``
    makes them."""
    import pickle

    mesh = _desk_mesh("plate_hole_desk")
    quad = ElementQuadrature.build(mesh)
    assert quad.product == "element_gemm" and "_csr" not in vars(quad)
    lean = len(pickle.dumps(quad))
    S, F = quad.strain_op, quad.force_op
    assert quad.strain_op is S and quad.force_op is F
    stored = sum(a.nbytes for op in (S, F) for a in (op.data, op.indices, op.indptr))
    assert len(pickle.dumps(quad)) >= lean + stored
    assert "_csr" in vars(ElementQuadrature.build(_distorted(mesh)))


def test_snapshots_are_in_the_public_gauss_point_order():
    """The engine steps with Gauss point q of element e at q * nelem + e
    and records ``d`` and ``sigma`` at 8 e + q (``to_public_order``)."""
    c = load_config(overrides={"problem": {"preset": "plate_coarse_desk"}})
    p = c.problem
    quad = ElementQuadrature.build(p.mesh)
    kern = deterministic_kernels(p.params, 0.0, c.dt)
    seen = []
    engine = ExplicitEngine(p.mesh, p.loads, p.params.rho, c.dt, [30 * c.dt],
                            _recorded(kern.stress, seen), kern.damage, quad=quad,
                            mass_damping=p.mass_damping)
    for _ in range(31):
        d = engine.d
        engine.step()
    hist = engine.history
    assert d.max() > 0.0
    assert np.array_equal(hist.d[0], to_public_order(d))
    assert np.array_equal(hist.sigma[0], to_public_order(seen[-1]))
    # detJw[e, q] lies at 8 e + q in the public order, at q * nelem + e in the engine's
    assert np.array_equal(_engine_order(quad.detJw.ravel()), quad.detJw.T.ravel())
    assert np.array_equal(to_public_order(quad.detJw.T.ravel()), quad.detJw.ravel())


@pytest.mark.parametrize("preset", DESK_PRESETS)
def test_element_gemm_products_match_csr(preset):
    """Both element gemm products agree with the CSR operators to 1e-13
    relative, for stresses in either memory order."""
    quad = ElementQuadrature.build(_desk_mesh(preset))
    csr = _csr_only(quad)
    rng = np.random.default_rng(9)
    u = rng.standard_normal((quad.strain_op.shape[1] // 3, 3))
    s = rng.standard_normal((6, quad.n_gauss)).T
    eps, eps_csr = quad.strains(u), csr.strains(u)
    assert eps.T.flags.c_contiguous  # the same component-major view
    assert np.abs(eps - eps_csr).max() <= 1e-13 * np.abs(eps_csr).max()
    f, f_csr = quad.forces(s), csr.forces(s)
    assert np.abs(f - f_csr).max() <= 1e-13 * np.abs(f_csr).max()
    assert np.array_equal(f, quad.forces(np.ascontiguousarray(s)))


def test_element_gemm_run_within_bound_of_csr():
    """A whole plate_coarse_desk run with element gemm products stays within
    1e-12 (u, d, sigma, relative to the field's maximum) and 1e-11 (each
    reaction series, relative to its own maximum) of the same run with the
    CSR products; the history names its form."""
    c = load_config(overrides={"problem": {"preset": "plate_coarse_desk"}})
    p = c.problem
    quad = ElementQuadrature.build(p.mesh)
    runs = [run_deterministic(p.mesh, p.loads, p.params, 0.0, c.dt, c.snapshot_times,
                              quad=q, mass_damping=p.mass_damping) for q in (quad, _csr_only(quad))]
    gemm, csr = runs
    assert (gemm.meta["product"], csr.meta["product"]) == ("element_gemm", "csr")
    assert gemm.d.max() > 0.0
    for field in ("u", "d", "sigma"):
        a, b = getattr(gemm, field), getattr(csr, field)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), field
    for name, b in csr.forces.items():
        assert np.abs(gemm.forces[name] - b).max() <= 1e-11 * np.abs(b).max(), name


def test_element_gemm_history_does_not_depend_on_blas_threads():
    """The bits of the element gemm products do not depend on the number
    of BLAS threads: a double_notch_desk run (646 elements, so the
    (48, 24) x (24, 646) strain and (24, 48) x (48, 646) force products are
    large enough for OpenBLAS to use both threads) gives the same bits with
    1 and 2 OpenBLAS threads, each in a process of its own."""
    import os
    import subprocess
    import sys

    code = """
import hashlib
from tsmfem.config import load_config
from tsmfem.solver import run_deterministic
c = load_config(overrides={"problem": {"preset": "double_notch_desk"},
                           "load": {"total_time": 6e-4, "ramp_end": 6e-4}})
p = c.problem
h = run_deterministic(p.mesh, p.loads, p.params, 0.0, c.dt, c.snapshot_times,
                      mass_damping=p.mass_damping)
assert h.meta["product"] == "element_gemm" and h.d.max() > 0.0
digest = hashlib.sha256()
for a in (h.u, h.d, h.sigma, *h.forces.values()):
    digest.update(a.tobytes())
print(digest.hexdigest())
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


def test_direct_kernel_is_the_scipy_product():
    """``_csr_product`` gives the bits of ``op @ x`` for strain_op, for
    force_op, for the element-force assembly (whose indices are
    deliberately unsorted), for a set-sum operator, and for an
    int64-indexed operator; on a column block (n, k), in C or Fortran
    order, those of ``op @ x`` of each column and of the block, signs of
    zero included, with -0.0 entries in the block and the operator and an
    empty row, for int32 and int64 indices."""
    mesh = _desk_mesh("plate_coarse_desk")
    quad = ElementQuadrature.build(mesh)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(quad.strain_op.shape[1])
    s = rng.standard_normal(quad.force_op.shape[1])
    wide = quad.strain_op.copy()
    wide.indices, wide.indptr = wide.indices.astype(np.int64), wide.indptr.astype(np.int64)
    op, dofs = set_sum_operator([mesh.node_sets["top"], mesh.node_sets["symmetry_x"], []])
    cases = [(quad.strain_op, u), (quad.force_op, s), (wide, u),
             (quad.assembly, rng.standard_normal(quad.assembly.shape[1])),
             (op, rng.standard_normal(dofs.size))]
    for a, x in cases:
        got = _csr_product(a, x)
        assert got.dtype == np.float64 and np.array_equal(got, a @ x)
    assert not quad.assembly.has_sorted_indices
    assert wide.indices.dtype == wide.indptr.dtype == np.int64

    def same_bits(a, b):
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    signed = quad.force_op.copy()
    signed.data[::7] = -0.0
    assert (np.diff(op.indptr) == 0).any()  # the empty set's rows
    for a in (quad.strain_op, wide, signed, quad.assembly, op):
        for k in (1, 5):
            x = rng.standard_normal((a.shape[1], k))
            x[::3, 0] = -0.0
            x[1::3, -1] = 0.0
            for block in (x, np.asfortranarray(x)):
                got = _csr_product(a, block)
                assert got.shape == (a.shape[0], k) and got.flags.c_contiguous
                assert same_bits(got, a @ block)
                for j in range(k):
                    assert same_bits(got[:, j], _csr_product(a, np.ascontiguousarray(x[:, j])))
                    assert same_bits(got[:, j], a @ x[:, j])
        assert a.indices.dtype == (np.int64 if a is wide else np.int32)


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


def _frozen_damage(d, eps, n):
    return d


def _fix_all(mesh, total_time):
    return LoadCase(dirichlet=(
        DirichletRamp("bottom", 0, 0.0, total_time),
        DirichletRamp("bottom", 1, 0.0, total_time),
        DirichletRamp("bottom", 2, 0.0, total_time),
    ), total_time=total_time)


def test_zero_state_is_fixed_point():
    mesh = _unit_cube()
    loads = _fix_all(mesh, 1.0)
    eng = ExplicitEngine(mesh, loads, PARAMS.rho, 1e-4, [],
                         Order0Law(PARAMS.stiffness, 1.0, 0.0).stress, _frozen_damage)
    for _ in range(50):
        eng.step()
    assert eng.n == 50
    assert np.all(eng.u == 0.0)
    assert np.all(eng.v == 0.0)
    assert np.all(eng.d == 0.0)


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
    sigma = Order0Law(E0, 1.0, 0.0).stress(np.zeros(quad.n_gauss), eps, 0)
    return quad.forces(sigma).reshape(-1, 3)


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
    eng = ExplicitEngine(mesh, loads, RIGID.rho, dt, [],
                         Order0Law(RIGID.stiffness, 1.0, 0.0).stress, _frozen_damage,
                         force_stride=10**9)
    n_steps = int(np.ceil(T10 / dt))
    times, u_num = [], []
    for _ in range(n_steps):
        eng.step()
        times.append(eng.time)
        u_num.append(eng.u[mid[0], 1])
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
    E0 = RIGID.stiffness
    eng = ExplicitEngine(mesh, loads, RIGID.rho, dt, [], Order0Law(E0, 1.0, 0.0).stress,
                         _frozen_damage, quad=quad, force_stride=10**9)
    m3 = eng.mass3
    energies = []
    for i in range(n_steps):
        v_prev = eng.v.ravel()
        eng.step()
        if eng.time > t_ramp + 2 * dt:
            ke = 0.5 * float(m3 @ (v_prev * eng.v.ravel()))
            eps = quad.strains(eng.u)
            sigma = Order0Law(E0, 1.0, 0.0).stress(eng.d, eps, 0)
            f = eng.quad.forces(sigma)
            pe = 0.5 * float(eng.u.ravel() @ f)
            energies.append(ke + pe)
    energies = np.asarray(energies)
    drift = np.abs(energies - energies[0]).max() / abs(energies[0])
    assert drift <= 0.01


class _ReferenceStep:
    """The explicit step written out from its formulas: the two element
    products in the form the quadrature selected (gather, ``@`` with the
    stored blocks and scipy ``@`` with the 0/1 assembly; or scipy ``@``
    with the CSR operators), the closed-form ramp
    amp * min(t, t_end) / t_end, the velocity update
    v' = c * v + w * (f_body - f) with w = dt / m and c = 1 - alpha * dt
    (dt / 2 in both at the first step), f_body from the body force times
    ``scale``, as the ramps, the three reaction terms at the sets'
    constrained dofs (f, m * a and m * v, a the ramp's central difference)
    summed by three separate products of the set-sum operator's columns
    there, plus the sum of f_body over the sets' free dofs, and each law
    evaluated from scratch.  ``stress(d, eps)`` and ``damage(d, eps)`` are
    the law; ``self.u``, ``self.v``, ``self.d`` the state after
    ``step()``."""

    def __init__(self, mesh, loads, rho, dt, stress, damage, scale, alpha, quad):
        self.quad, self.dt, self.alpha = quad, dt, alpha
        self.stress, self.damage = stress, damage
        mass = lumped_mass(mesh, rho, quad)
        self.mass3 = np.repeat(mass, 3)
        body = scale * np.asarray(loads.body_force)
        self.f_body = (mass[:, None] / rho * body[None, :]).ravel()
        ramp_of = {3 * int(n) + r.axis: (scale * r.amplitude, r.ramp_end)
                   for r in loads.dirichlet for n in mesh.node_sets[r.node_set]}
        self.dofs = np.array(sorted(ramp_of))
        self.amp = np.array([ramp_of[k][0] for k in self.dofs])
        self.t_end = np.array([ramp_of[k][1] for k in self.dofs])
        names = sorted({r.node_set for r in loads.dirichlet})
        op, dofs = set_sum_operator([mesh.node_sets[n] for n in names])
        fixed = np.isin(dofs, self.dofs)
        self.sums, self.sum_dofs = op[:, fixed], dofs[fixed]
        self.free_body = (op[:, ~fixed] @ self.f_body[dofs[~fixed]]).reshape(-1, 3)
        self.u = np.zeros(3 * mesh.n_nodes)
        self.u[self.dofs] = self.ramp(0.0)
        self.v = np.zeros(3 * mesh.n_nodes)
        self.d = np.zeros(quad.n_gauss)
        self.t, self.n = 0.0, 0

    def ramp(self, t):
        return self.amp * np.minimum(t, self.t_end) / self.t_end

    def step(self):
        """Returns the step's (eps, sigma, reactions) and advances."""
        q, dt, t, alpha = self.quad, self.dt, self.t, self.alpha
        if q.element_dofs is None:
            eps = (q.strain_op @ self.u).reshape(6, q.n_gauss).T
        else:
            eps = (q.strain_block @ self.u[q.element_dofs]).reshape(6, q.n_gauss).T
        sigma = self.stress(self.d, eps)
        if q.element_dofs is None:
            f = q.force_op @ sigma.T.ravel()
        else:
            block = np.ascontiguousarray(sigma.T).reshape(48, -1)  # (component, q, e)
            f = q.assembly @ (q.force_block @ block).ravel()
        a = (self.ramp(t + dt) - 2.0 * self.ramp(t) + self.ramp(t - dt)) / dt**2
        k, m = self.sum_dofs, self.mass3[self.sum_dofs]
        a = a[np.searchsorted(self.dofs, k)]
        reactions = (self.sums @ f[k] + self.sums @ (m * a)
                     + alpha * (self.sums @ (m * self.v[k]))).reshape(-1, 3) + self.free_body
        h = 0.5 * dt if self.n == 0 else dt
        v = (1.0 - alpha * h) * self.v + h / self.mass3 * (self.f_body - f)
        v[self.dofs] = (self.ramp(t + dt) - self.ramp(t)) / dt
        u = self.u + dt * v
        u[self.dofs] = self.ramp(t + dt)
        self.u, self.v, self.d = u, v, self.damage(self.d, eps)
        self.t, self.n = t + dt, self.n + 1
        return eps, sigma, reactions


def _recorded(fn, log):
    def stress(d, eps, n):
        sigma = fn(d, eps, n)
        log.append(sigma)
        return sigma
    return stress


@pytest.mark.parametrize("product", ["element_gemm", "csr"])
def test_step_is_bitwise_the_formulas(product):
    """Order 0 with mass damping, an exchange hook and reactions at every
    step, and order 1 fed through ``FirstOrderKernels`` and a plain
    ``InMemoryExchange`` every K-th step, K = 1 and 3, run in lockstep on
    plate_coarse_desk (one element shape: element gemm products) and on
    its copy with one node moved (CSR products), with ramps that end at
    step 20 and a body force: u, v, d, sigma and the reactions equal
    ``_ReferenceStep`` bit for bit at each of 50 steps.  At K = 1 order 0
    scales its E : eps in place into the stress at every step while order
    1 holds that step's strain."""
    c = load_config(overrides={"problem": {"preset": "plate_coarse_desk"}})
    p, dt = c.problem, c.dt
    if product == "csr":
        p = replace(p, mesh=_distorted(p.mesh))
    loads = replace(p.loads, body_force=(1e5, -2e5, 3e4),
                    dirichlet=tuple(replace(r, ramp_end=20.5 * dt) for r in p.loads.dirichlet))
    quad = ElementQuadrature.build(p.mesh)
    assert quad.product == product
    for K in (1, 3):
        _check_lockstep_step(p, loads, quad, dt, K)


def _check_lockstep_step(p, loads, quad, dt, K):
    """One lockstep run of ``test_step_is_bitwise_the_formulas`` at
    exchange interval K."""
    E0, eta, alpha = p.params.stiffness, p.params.eta, p.mass_damping
    assert alpha > 0.0

    kern0 = deterministic_kernels(p.params, 0.0, dt)
    mailbox = InMemoryExchange(K)
    kern1 = FirstOrderKernels(E0, eta, dt, mailbox)
    sig0, sig1 = [], []
    engines = [
        ExplicitEngine(p.mesh, loads, p.params.rho, dt, [], _recorded(kern0.stress, sig0),
                       kern0.damage, quad=quad, mass_damping=alpha,
                       exchange_hook=mailbox.hook),
        ExplicitEngine(p.mesh, loads, p.params.rho, dt, [], _recorded(kern1.stress, sig1),
                       kern1.damage, quad=quad, load_scale=0.0, mass_damping=alpha),
    ]

    def stress0(d, eps):
        return np.exp(-d)[:, None] * (E0 @ eps.T).T

    def damage0(d, eps):
        return d + (0.5 * dt / eta) * (np.exp(-d) * dot6(eps, (E0 @ eps.T).T))

    held = {}

    def stress1(d1, eps1):
        s0 = (E0 @ held["eps"].T).T
        return np.exp(-held["d"])[:, None] * ((1.0 - d1)[:, None] * s0 + (E0 @ eps1.T).T)

    def damage1(d1, eps1):
        s0 = (E0 @ held["eps"].T).T
        psi0 = 0.5 * dot6(held["eps"], s0)
        rate = np.exp(-held["d"]) / eta * ((1.0 - d1) * psi0 + dot6(eps1, s0))
        return d1 + dt * rate

    refs = [_ReferenceStep(p.mesh, loads, p.params.rho, dt, stress0, damage0, 1.0, alpha, quad),
            _ReferenceStep(p.mesh, loads, p.params.rho, dt, stress1, damage1, 0.0, alpha, quad)]
    reactions = ([], [])
    for n in range(50):
        d_top = refs[0].d
        for k, (eng, ref, sig) in enumerate(zip(engines, refs, (sig0, sig1))):
            eps, sigma, r = ref.step()
            if k == 0 and n % K == 0:
                held.update(eps=eps, d=d_top)
            eng.step()
            assert np.array_equal(sig[-1], sigma), (k, n)
            assert np.array_equal(eng.u.ravel(), ref.u), (k, n)
            assert np.array_equal(eng.v.ravel(), ref.v), (k, n)
            assert np.array_equal(eng.d, ref.d), (k, n)
            reactions[k].append(r)
    assert refs[1].d.max() > 0.0 and np.abs(refs[1].u).max() > 0.0  # order 1 is driven
    for eng, r in zip(engines, reactions):
        forces = eng.finish().forces
        got = np.stack([forces[name][:50] for name in sorted(forces)], axis=1)
        assert np.array_equal(got, np.array(r))


# ---------------------------------------------------------------------------
# reaction forces
# ---------------------------------------------------------------------------


def _set_reactions(mesh, names, mass, f_int, accel, velocity=None, alpha=0.0):
    """``reaction_sums`` of nodal vectors (nn, 3) on the sets ``names``:
    each term gathered at every dof of the sets."""
    op, k = set_sum_operator([mesh.node_sets[n] for n in names])
    m = np.repeat(mass, 3)[k]
    terms = [f_int.ravel()[k], m * accel.ravel()[k]]
    if alpha:
        terms.append(m * velocity.ravel()[k])
    return reaction_sums(op, np.array(terms), alpha)


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
    sigma = Order0Law(PARAMS.stiffness, 1.0, 0.0).stress(np.zeros(quad.n_gauss), eps, 0)
    F_top, F_bot = _set_reactions(mesh, ["top", "bottom"], mass, quad.forces(sigma),
                                  np.zeros((mesh.n_nodes, 3)))
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
    f_int = quad.forces(sigma)
    names = ["top", "bottom"]
    F = _set_reactions(mesh, names, mass, f_int, accel, velocity, alpha)
    undamped = _set_reactions(mesh, names, mass, f_int, accel)
    f_int = f_int.reshape(-1, 3)
    for k, n in enumerate(mesh.node_sets[name] for name in names):
        expected = (f_int[n] + mass[n, None] * (accel[n] + alpha * velocity[n])).sum(axis=0)
        np.testing.assert_allclose(F[k], expected, rtol=0, atol=1e-12 * np.abs(expected).max())
        assert np.abs(F[k] - undamped[k]).min() > 1e-6 * np.abs(expected).max()


def test_reaction_zero_state():
    mesh = _unit_cube()
    quad = ElementQuadrature.build(mesh)
    mass = lumped_mass(mesh, PARAMS.rho, quad)
    F = _set_reactions(mesh, ["top"], mass, quad.forces(np.zeros((quad.n_gauss, 6))),
                       np.zeros((mesh.n_nodes, 3)))
    assert np.all(F == 0.0)


def _block_product_reactions(op, dofs, mass3, f_int, accel, velocity, alpha):
    """Reactions as a gather of each term at ``dofs``, the columns of
    ``op``, summed by one block product with one term per column."""
    terms = np.stack([f_int.ravel()[dofs], mass3[dofs] * accel.ravel()[dofs],
                      mass3[dofs] * velocity.ravel()[dofs]], axis=1)
    sums = op @ terms
    r = sums[:, 0] + sums[:, 1]
    if alpha:
        r += alpha * sums[:, 2]
    return r.reshape(-1, 3)


@pytest.mark.parametrize("preset", DESK_PRESETS)
def test_one_pass_reactions_are_the_block_product_bitwise(preset):
    """``reaction_sums``, one product of the set-sum operator per term
    gathered at the sets' dofs, gives the bits of the block product with
    one term per column over the ascending dofs, on a damped and an
    undamped random state and on a zero state, signs of zero included,
    also on every other column of the operator, as the engine sums its
    constrained dofs: each row's sum keeps its ascending order.  The
    operator's entries are all 1.0, so the kernel only adds."""
    mesh = _desk_mesh(preset)
    quad = ElementQuadrature.build(mesh)
    mass = lumped_mass(mesh, PARAMS.rho, quad)
    mass3 = np.repeat(mass, 3)
    names = sorted(mesh.node_sets)
    op, dofs = set_sum_operator([mesh.node_sets[n] for n in names])
    rng = np.random.default_rng(5)
    f_int = quad.forces(rng.normal(0.0, 1e6, (quad.n_gauss, 6))).reshape(-1, 3)
    accel, velocity = rng.normal(0.0, 1e2, (2, mesh.n_nodes, 3))
    zero = np.zeros((mesh.n_nodes, 3))
    for state, alpha in (((f_int, accel, velocity), 50.0),
                         ((f_int, accel, velocity), 0.0), ((zero, zero, zero), 50.0)):
        want = _block_product_reactions(op, dofs, mass3, *state, alpha)
        assert want.shape == (len(names), 3)
        got = _set_reactions(mesh, names, mass, *state, alpha)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        some = np.arange(dofs.size) % 2 == 0
        k = dofs[some]
        want = _block_product_reactions(op[:, some], k, mass3, *state, alpha)
        f, a, v = (x.ravel()[k] for x in state)
        got = reaction_sums(op[:, some], np.array([f, mass3[k] * a, mass3[k] * v]), alpha)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _full_set_reactions(eng, f_int):
    """The reactions as the sum of f_int + m * a + alpha * m * v over every
    dof of each set, a the update's acceleration (f_body - f_int) / m -
    alpha * v at the free dofs and the ramp's central difference at the
    constrained ones, each term summed on its own."""
    mesh, mass3, bc = eng.mesh, eng.mass3, eng.bc
    a = (eng.f_body - f_int) / mass3 - eng.alpha * eng.v.ravel()
    a[bc.dofs] = bc.acceleration(np.array([eng.time]), eng.dt)[0]
    return _set_reactions(mesh, eng._set_names, mass3[::3], f_int, a, eng.v, eng.alpha)


@pytest.mark.parametrize("preset", DESK_PRESETS)
def test_constrained_dof_reactions_are_the_full_set_sums(preset):
    """Summing only the constrained dofs, plus the sets' free-dof f_body,
    gives the reactions of the sums over every set dof within 1e-12 of
    each set's largest, under mass damping and a body force, at each of
    the 40 steps of a run whose ramps end at step 20, all recorded and
    summed as one block; a component whose set dofs are all constrained
    is bitwise the same."""
    c = load_config(overrides={"problem": {"preset": preset}})
    p, dt = c.problem, c.dt
    loads = replace(p.loads, body_force=(1e5, -2e5, 3e4), total_time=39 * dt,
                    dirichlet=tuple(replace(r, ramp_end=20.5 * dt) for r in p.loads.dirichlet))
    kern = deterministic_kernels(p.params, 0.0, dt)
    eng = ExplicitEngine(p.mesh, loads, p.params.rho, dt, [], kern.stress, kern.damage,
                         mass_damping=p.mass_damping)
    assert eng.alpha > 0.0 and np.abs(eng._free_body).max() > 0.0
    assert eng.n_steps + 1 == 40 <= eng._block
    names = eng._set_names
    constrained = np.zeros(3 * p.mesh.n_nodes, dtype=bool)
    constrained[eng.bc.dofs] = True
    pinned = np.array([[constrained[3 * p.mesh.node_sets[n] + j].all() for j in range(3)]
                       for n in names])
    assert pinned.any() and not pinned.all()
    wants = []
    for _ in range(40):
        eps, sigma, f_int = eng.evaluate()
        wants.append(_full_set_reactions(eng, f_int))
        eng.step()
    hist = eng.finish()
    for n, want in enumerate(wants):
        got = np.array([hist.forces[name][n] for name in names])
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert (np.abs(got - want) <= 1e-12 * scale).all()
        assert np.array_equal(got[pinned], want[pinned])
        assert np.array_equal(np.signbit(got[pinned]), np.signbit(want[pinned]))
    assert np.abs(want).max() > 0.0


@pytest.mark.parametrize("scale", [1.0, 0.0])
@pytest.mark.parametrize("amp", [0.0, -0.0, 0.004])
def test_dirichlet_rows_are_the_ramp_formula(amp, scale):
    """The rows of the constraint table for a block of times are the bits
    of the elementwise ramp formula of each time, the sign of zero
    included, at t = 0 (where t - dt < 0), at dt, mid-ramp, at the ramp
    end and after it, for zero and nonzero amplitudes at scale 1 and at
    scale 0 (the first-order problem): the velocity and value rows, all a
    step that records no reactions reads, and the acceleration row at
    every dof and at chosen ones.  A zero amplitude's rows have the same
    bits at every t."""
    mesh = _unit_cube()
    t_end, dt = 0.5, 1e-3
    lc = LoadCase(dirichlet=(DirichletRamp("bottom", 1, 0.0, t_end),
                             DirichletRamp("top", 1, amp, t_end)), total_time=1.0)
    table = _Dirichlet(mesh, lc, scale)
    amps = np.where(np.isin(table.dofs, 3 * mesh.node_sets["top"] + 1), scale * amp,
                    scale * 0.0)
    some = np.arange(0, table.dofs.size, 3)

    def ramp(t):
        return amps * np.minimum(t, t_end) / t_end

    def same_bits(a, b):
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    times = np.array([0.0, dt, 0.25, t_end, 0.7])
    steps, accels = table.steps(times, dt), table.acceleration(times, dt)
    assert same_bits(table.acceleration(times, dt, table._which[some]), accels[:, some])
    rows = []
    for t, velocity, value, accel in zip(times.tolist(), *steps, accels):
        assert same_bits(velocity, (ramp(t + dt) - ramp(t)) / dt)
        assert same_bits(value, ramp(t + dt))
        assert same_bits(accel, (ramp(t + dt) - 2.0 * ramp(t) + ramp(t - dt)) / dt**2)
        rows.append((accel, velocity, value))
    zero = amps == 0.0
    assert zero.any()
    for row in rows:
        for a, a0 in zip(row, rows[0]):
            assert same_bits(a[zero], a0[zero])


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _per_step_run(eng):
    """The snapshots (u, d, sigma) and the reaction rows and their times of
    ``eng``'s run, stepped here one step at a time from its set-up alone:
    a Python-float clock t += dt, each step's ramp rows from the scalar
    ramp law at t + dt, t and t - dt, and each recording step's reactions
    from ``reaction_sums`` of that step's rows, recorded at n * dt.
    ``eng`` is not stepped."""
    bc, dt, alpha, k, m = eng.bc, eng.dt, eng.alpha, eng._set_dofs, eng._set_mass

    def at(t):  # every load-table row's value at t
        return np.array([amp * min(t, t_end) / t_end for amp, t_end in bc._ramps])

    u, v, d, t = eng.u.ravel().copy(), eng.v.ravel().copy(), eng.d.copy(), eng.time
    snaps, forces, force_times = [], [], []
    for n in range(eng.n_steps + 1):
        eps = eng.quad.strains(u.reshape(-1, 3))
        sigma = eng.stress_fn(d, eps, n)
        f_int = eng.quad.forces(sigma)
        up, u0 = at(t + dt), at(t)
        if n % eng._force_stride == 0 or n == eng.n_steps:
            accel = ((up - 2.0 * u0 + at(t - dt)) / dt**2)[eng._set_slots]
            terms = [f_int[k], m * accel] + ([m * v[k]] if alpha else [])
            r = reaction_sums(eng._set_sums, terms, alpha)
            r += eng._free_body
            forces.append(r)
            force_times.append(n * dt)
        if n in eng._snap_at:
            snaps.append((u.reshape(-1, 3), to_public_order(d), to_public_order(sigma)))
        if n == eng.n_steps:
            break
        w, c = (eng._w, eng._c) if n else (0.5 * eng._w, 1.0 - alpha * (0.5 * dt))
        v_next = eng.f_body - f_int
        v_next *= w
        v_next += c * v if alpha else v
        v_next[bc.dofs] = ((up - u0) / dt)[bc._which]
        u_next = dt * v_next
        u_next += u
        u_next[bc.dofs] = up[bc._which]
        d = eng.damage_fn(d, eps, n)
        u, v, t = u_next, v_next, t + dt
    return snaps, np.array(forces).swapaxes(0, 1), np.array(force_times)


def _desk_run(stride, ramp_end=1.0, damped=True, n_steps=None):
    """An engine on ``plate_coarse_desk`` and one built alike for the
    per-step reference: ramps ending at ``ramp_end`` of the total time, a
    total time of ``n_steps`` steps when given."""
    c = load_config(overrides={"problem": {"preset": "plate_coarse_desk"}})
    p, dt = c.problem, c.dt
    total = p.loads.total_time if n_steps is None else n_steps * dt
    loads = replace(p.loads, total_time=total, dirichlet=tuple(
        replace(r, ramp_end=ramp_end * total) for r in p.loads.dirichlet))
    quad = ElementQuadrature.build(p.mesh)

    def engine():
        kern = deterministic_kernels(p.params, 0.0, dt)
        return ExplicitEngine(p.mesh, loads, p.params.rho, dt, c.snapshot_times, kern.stress,
                              kern.damage, quad=quad, force_stride=stride,
                              mass_damping=p.mass_damping if damped else 0.0)

    return engine(), engine()


_BLOCK_CASES = {
    # recordings not a multiple of the block's rows, damped and undamped
    "stride7": dict(stride=7),
    "stride7_undamped": dict(stride=7, damped=False),
    # 63 steps, 64 recordings: exactly one block of each kind
    "one_block": dict(stride=1, n_steps=63),
    # two recordings, the first and the last step
    "stride_past_the_end": dict(stride=10**9),
    # every block one row
    "one_row_blocks": dict(stride=3, block_bytes=1),
    # ramps ending inside a block, damped and undamped
    "ramp_ends_mid_block": dict(stride=8, ramp_end=0.37),
    "ramp_ends_mid_block_undamped": dict(stride=1, ramp_end=0.37, damped=False),
}


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_block_runs_are_the_per_step_run_bitwise(case, monkeypatch):
    """A run whose ramp rows and reaction sums are formed a block of steps
    at a time gives the bits, signs of zero included, of the per-step loop
    (``_per_step_run``): every reaction row, ``force_times`` and the
    snapshots of u, d and sigma, across block boundaries, with a last
    block part full, one block, one-row blocks and a ramp ending inside a
    block, damped and undamped.  At every step the engine's clock is the
    sequential sum of dt and the time its block's rows were formed for."""
    options = dict(_BLOCK_CASES[case])
    if "block_bytes" in options:
        monkeypatch.setattr(solver, "_BLOCK_BYTES", options.pop("block_bytes"))
    eng, ref = _desk_run(**options)
    snaps, forces, force_times = _per_step_run(ref)
    recordings = force_times.size
    if case == "stride7":
        assert eng._block == 64 and recordings % eng._block
    if case == "one_block":
        assert eng.n_steps + 1 == recordings == eng._block
    if case == "one_row_blocks":
        assert eng._block == 1
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(eng.n_steps + 1):
            assert eng.time.hex() == t.hex()
            eng.step()
            if n < eng.n_steps:
                t += eng.dt
                assert eng.time == eng._clock[n % eng._block + 1]
    hist = eng.finish()
    assert _same_bits(hist.force_times, force_times)
    for name, want in zip(eng._set_names, forces):
        assert _same_bits(hist.forces[name], want), name
    assert np.abs(forces).max() > 0.0
    assert len(snaps) == len(hist.times) >= 1
    for i, snap in enumerate(snaps):
        for field, want in zip(("u", "d", "sigma"), snap):
            assert _same_bits(getattr(hist, field)[i], want), (field, i)


def test_lockstep_tsm_blocks_are_the_one_row_blocks_bitwise(monkeypatch):
    """Both orders of a lockstep TSM run (K = 7, force stride 3, ramps ending at
    0.37 of the total time, mass damping) give the same bits, signs of zero
    included, with the engines' own blocks as with one-row blocks, which
    form each step's rows and sum each recording step alone; order 0's
    reactions and snapshots are those of the per-step loop."""
    c = load_config(overrides={"problem": {"preset": "plate_coarse_desk"}})
    p = c.problem
    loads = replace(p.loads, dirichlet=tuple(
        replace(r, ramp_end=0.37 * p.loads.total_time) for r in p.loads.dirichlet))
    problem = replace(p, loads=loads)
    cfg = TsmConfig(exchange_interval=7, exchange_mode="in_memory",
                    xi_second_moment=c.tsm.xi_second_moment)
    blocks = run_tsm(problem, cfg, c.dt, c.snapshot_times, force_stride=3)
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 1)
    rows = run_tsm(problem, cfg, c.dt, c.snapshot_times, force_stride=3)
    for got, want in ((blocks.history0, rows.history0), (blocks.history1, rows.history1)):
        for field in ("times", "u", "d", "sigma", "force_times"):
            assert _same_bits(getattr(got, field), getattr(want, field)), field
        assert got.forces.keys() == want.forces.keys()
        for name in want.forces:
            assert _same_bits(got.forces[name], want.forces[name]), name
    kern = deterministic_kernels(p.params, 0.0, c.dt)
    ref = ExplicitEngine(p.mesh, loads, p.params.rho, c.dt, c.snapshot_times, kern.stress,
                         kern.damage, force_stride=3, mass_damping=p.mass_damping)
    snaps, forces, force_times = _per_step_run(ref)
    h0 = blocks.history0
    assert _same_bits(h0.force_times, force_times)
    for name, want in zip(ref._set_names, forces):
        assert _same_bits(h0.forces[name], want), name
    for i, snap in enumerate(snaps):
        for field, want in zip(("u", "d", "sigma"), snap):
            assert _same_bits(getattr(h0, field)[i], want), (field, i)


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


def test_force_schedule_is_every_stride_th_step_and_the_last():
    """Reactions are recorded at steps 0, s, 2s, ... and at the last step,
    for s = 1, a stride that does not divide the step count, the step count
    and larger ones, with mass damping and snapshots: rows, ``force_times``
    and ``forces`` are bitwise those of a list of the recorded steps s and
    their times s * dt, with the reactions of a stride-1 run at those
    steps, and the snapshots of u, d and sigma are bitwise the same at
    every stride (accelerations are formed only on recording steps, and
    recording never changes the trajectory)."""
    mesh, loads, params = _coarse_plate_problem(T=4e-4)
    dt = stable_timestep(mesh, params, 0.5)
    alpha = 3.0e4
    snaps = [0.0, 0.37 * loads.total_time, 0.8 * loads.total_time, loads.total_time]
    every = run_deterministic(mesh, loads, params, 0.0, dt, snaps, mass_damping=alpha)
    n_steps = every.n_steps
    assert every.d[-1].max() > 0.0 and len(every.times) == len(snaps)
    odd = next(s for s in range(3, n_steps) if n_steps % s)
    for stride in (1, odd, n_steps, n_steps + 1, 10**30):
        hist = run_deterministic(mesh, loads, params, 0.0, dt, snaps, force_stride=stride,
                                 mass_damping=alpha)
        steps = [s for s in range(n_steps + 1) if s % stride == 0 or s == n_steps]
        times = np.asarray([s * dt for s in steps])
        assert hist.force_times.dtype == times.dtype and np.array_equal(hist.force_times, times)
        assert hist.forces.keys() == every.forces.keys()
        for name, series in hist.forces.items():
            assert series.shape == (len(steps), 3)
            assert np.array_equal(series, every.forces[name][steps])
            assert np.array_equal(np.signbit(series), np.signbit(every.forces[name][steps]))
        for field in ("times", "u", "d", "sigma"):
            a, b = getattr(hist, field), getattr(every, field)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), field


def test_finish_hands_out_views_of_the_reaction_rows():
    """Each set's reaction series is a contiguous view of the engine's own
    rows, not a copy: finish() allocates no second set of series."""
    eng = _coarse_engine()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(eng.n_steps + 1):
            eng.step()
    tracemalloc.start()
    try:
        hist = eng.finish()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(hist.forces) == eng._set_names and len(hist.forces) > 1
    for k, series in enumerate(hist.forces.values()):
        assert np.shares_memory(series, eng._forces)
        assert series.flags.c_contiguous and series.shape == (eng.n_steps + 1, 3)
        assert np.array_equal(series, eng._forces[k])
    assert peak < 0.1 * eng._forces.nbytes


def test_engine_set_up_follows_the_mesh_and_the_output_not_the_step_count():
    """Building the engine of the full-scale double notch, 714,921 steps,
    allocates its reaction rows and their times and at most 8 MB beside
    them: nothing per step but the recorded reactions."""
    cfg = load_config(overrides={"problem": {"preset": "double_notch"}})
    p = cfg.problem
    quad = ElementQuadrature.build(p.mesh)
    kern = deterministic_kernels(p.params, 0.0, cfg.dt)
    tracemalloc.start()
    try:
        engine = ExplicitEngine(p.mesh, p.loads, p.params.rho, cfg.dt, cfg.snapshot_times,
                                kern.stress, kern.damage, quad=quad,
                                mass_damping=p.mass_damping)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.n_steps == 714921
    assert peak <= engine._forces.nbytes + engine.history.force_times.nbytes + 8e6


def test_order0_step_allocates_under_three_gauss_point_arrays():
    """After warm-up, a step of order 0 on double_notch_desk, reactions
    recorded, peaks less than three (6, ngp) float arrays above where it
    started: the strains, the stress scaled in place in the law's E : eps,
    the element forces (half an array) and arrays of one row each.  A law
    that forms an (ngp, 6) product array and a fresh stress each step
    peaks at about 3.34."""
    c = load_config(overrides={"problem": {"preset": "double_notch_desk"}})
    p = c.problem
    kern = deterministic_kernels(p.params, 0.0, c.dt)
    eng = ExplicitEngine(p.mesh, p.loads, p.params.rho, c.dt, [], kern.stress, kern.damage,
                         mass_damping=p.mass_damping)
    full = 6 * eng.quad.n_gauss * 8
    peaks = []
    tracemalloc.start()  # numpy reports its data buffers to tracemalloc
    try:
        for n in range(8):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            eng.step()
            if n >= 4:
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert eng._force_stride == 1
    assert max(peaks) < 3 * full, max(peaks) / full


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
    with pytest.raises(InstabilityError) as err, np.errstate(over="ignore", invalid="ignore"):
        run_with_kernels(mesh, loads, RIGID.rho, dt, [loads.total_time],
                         Order0Law(RIGID.stiffness, 1.0, 0.0).stress,
                         lambda d, eps, n: d)
    assert err.value.step > 0


def test_invalid_xi_rejected():
    mesh, loads, params = _coarse_plate_problem()
    with pytest.raises(ValueError):
        run_deterministic(mesh, loads, params, -1.0, 1e-6, [])


def _coarse_engine(**options):
    mesh, loads, params = _coarse_plate_problem()
    dt = options.pop("dt", stable_timestep(mesh, params, 0.5))
    kern = deterministic_kernels(params, 0.0, dt)
    return ExplicitEngine(mesh, loads, params.rho, dt, [], kern.stress, kern.damage,
                          **options)


def test_step_results_survive_the_next_steps():
    """The strains and damage a ``step()`` returns are never overwritten by
    later steps, so order 1 can hold order 0's arrays without a copy."""
    eng = _coarse_engine()
    kept = []
    for _ in range(20):
        eps, d = eng.step()
        kept.append((eps, d, eps.copy(), d.copy()))
    assert eng.n == 20 and kept[-1][1].max() > 0.0  # the damage evolves
    for eps, d, eps_then, d_then in kept:
        assert np.array_equal(eps, eps_then) and np.array_equal(d, d_then)


def test_run_engines_needs_one_step_grid():
    """Engines stepped in lockstep share dt and the step count; a second
    engine on another grid is rejected before any step runs."""
    first = _coarse_engine()
    with pytest.raises(ValueError, match="one step grid"):
        run_engines(first, _coarse_engine(dt=0.5 * first.dt))
    assert first.n == 0


def test_engine_rejects_a_damping_factor_of_modulus_one():
    """mass_damping * dt >= 2 makes |1 - mass_damping * dt| >= 1, so the
    engine rejects it at set-up, naming both values; below 2 it is
    accepted."""
    dt = _coarse_engine().dt
    with pytest.raises(ValueError, match="mass_damping \\* dt must be < 2") as err:
        _coarse_engine(mass_damping=2.5 / dt)
    assert f"mass_damping={2.5 / dt} and dt={dt}" in str(err.value)
    assert _coarse_engine(mass_damping=1.5 / dt).alpha == 1.5 / dt


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: _coarse_engine(dt=_NAN),
    lambda: _coarse_engine(dt=_INF),
    lambda: _coarse_engine(mass_damping=_NAN),
    lambda: _coarse_engine(mass_damping=_INF),
    lambda: MaterialParams(lam=1e9, mu=0.8e9, rho=1e3, eta=_NAN),
    lambda: MaterialParams(lam=_INF, mu=0.8e9, rho=1e3, eta=1e4),
    lambda: LoadCase(dirichlet=(), total_time=_NAN),
    lambda: LoadCase(dirichlet=(DirichletRamp("top", 1, _NAN, 1.0),), total_time=1.0),
    lambda: LoadCase(dirichlet=(), total_time=1.0, body_force=(0.0, _NAN, 0.0)),
    lambda: TsmConfig(xi_second_moment=_NAN),
    lambda: XiDistribution(std=_NAN),
    lambda: deterministic_kernels(PARAMS, _NAN, 1e-6),
    lambda: deterministic_kernels(PARAMS, _INF, 1e-6),
    lambda: run_mc(Problem(*_coarse_plate_problem()), [0.1, _NAN], 1e-6, []),
], ids=["engine.dt=nan", "engine.dt=inf", "engine.mass_damping=nan",
        "engine.mass_damping=inf", "material.eta=nan", "material.lam=inf",
        "load.total_time=nan", "ramp.amplitude=nan", "load.body_force=nan",
        "tsm.xi_second_moment=nan", "mc.std=nan", "kernels.xi=nan", "kernels.xi=inf",
        "run_mc.xi=nan"])
def test_non_finite_inputs_rejected(make):
    """nan and inf fail where they enter the API, not steps later."""
    with pytest.raises(ValueError):
        make()
