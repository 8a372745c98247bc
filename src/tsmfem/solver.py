"""Explicit central-difference structural dynamics on hexahedral meshes.

The element loop is flattened into two products per step, both owned by
``ElementQuadrature``: ``strains`` maps the global displacements to all
Gauss-point strains (engineering shear), and ``forces`` maps Gauss-point
stresses back to nodal internal forces.  ``build`` selects one of two forms
from the mesh:

* **Element gemm** (Hughes, Levit & Winget, CMAME 36, 1983), when the mesh
  has one element shape: every element's dN/dx (in its own VTK node order)
  and detJ * w lie within ``CONGRUENT_RTOL`` (relative, a roundoff-level
  constant) of element 0's, as on every structured generator grid.  Each
  product is then one plain 2-D BLAS product with element 0's B, on the
  arrays as they lie, with no transposing copy: the (48, 24) B, row
  8 c + q, times the (24, n_elements) gathered element displacements for
  the strains; the (24, 48) weighted B^T times the (48, n_elements)
  element stresses, then a 0/1 operator that sums each dof's element
  forces in ascending element order, for the forces.  The results differ
  from the CSR form at roundoff: BLAS sums in its own order, and element
  0's B stands in for blocks that differ from it by at most the
  tolerance.  Each product runs over all elements in one call and is
  never split into calls over fewer columns: BLAS can give a column other
  bits in a product of another size (a single-column product takes
  another routine).  The number of BLAS threads does not change the bits
  (1 and 2 OpenBLAS threads are tested).
* **CSR** otherwise (a distorted or unstructured mesh): the
  pre-assembled sparse operators ``strain_op``, which stores only the
  structural nonzeros of the strain-displacement matrix B, 72 per Gauss
  point (8 in each normal-strain row, 16 in each shear row), and
  ``force_op``, its detJw-weighted transpose: on every mesh, as the
  fallback and the reference (see ``ElementQuadrature``).

``ElementQuadrature.product`` names the form, and ``History.meta["product"]``
records it.  ``ElementQuadrature.build`` validates the mesh, so a
simulation validates it once per quadrature.  Stress and damage laws enter
as per-Gauss-point callbacks, so the deterministic and the first-order
(sensitivity) problems share one integrator, ``ExplicitEngine``: one object
per simulation that holds the state, records the history and times itself,
driven one ``step()`` at a time by ``run_engines``, the one integrator
loop, for one simulation (``run_with_kernels``) or two in lockstep
(``tsm.run_tsm``).

Memory layout: Gauss-point strains and stresses are (ngp, 6) arrays stored
component-major, i.e. as the transpose of a C-ordered (6, ngp) array, so
each Voigt component is one contiguous row and the laws run long inner
loops.  Inside each component row the engine numbers Gauss point q of
element e as g = q * n_elements + e, in both forms, so a component-major
array is the C-ordered (48, n_elements) block (component, point,
element) that the element gemm products read and write; ``strain_op``
row ``c * ngp + g`` holds component c of Gauss point g, columns
ascending.  The laws act point by point and never see the order.
``History``, and everything built on it, keeps the public order
g = 8 e + q: ``ExplicitEngine`` permutes ``d`` and ``sigma`` to it
(``to_public_order``) only when it records a snapshot.  The exchange
stream carries the engine's order (``tsm``).

Sparse products call scipy's CSR kernels ``csr_matvec`` (a vector) and
``csr_matvecs`` (a column block) directly, through ``_csr_product``.
That is bitwise what ``op @ x`` computes, because scipy's ``@`` for a CSR
matrix and a dense vector or block is exactly a zeroed output plus the
same kernel call; skipping its dispatch saves a few microseconds per
product.  So the CSR form is bitwise ``op @ x``.  The block kernel sums
each column in the vector kernel's order, so a column of a block product
has the bits of the product of that column alone.  Reactions, and the
element gemm form's per-dof sums, are such products of 0/1 operators:
the reaction set-sum operator (``set_sum_operator``) on the reaction
sets' constrained dofs, on each term gathered there (the internal forces
and the numpy products ``m * a`` and ``m * v``), and the element-force
assembly operator.  Each row is the same ascending sequential sum of the
same rounded terms as summing the gathered terms; as the operators'
entries are 1.0, a kernel compiled with fused multiply-adds computes the
same sums.

The explicit update is one fused velocity update per step,
v' = c * v + w * (f_body - f_int), with the per-dof w = dt / m and
c = 1 - alpha * dt formed at set-up: the central difference with
mass-proportional damping (Belytschko, Liu & Moran, *Nonlinear Finite
Elements for Continua and Structures*, 2000), rearranged, so no
acceleration vector is formed.  Dirichlet ramps are imposed by direct
overwrite of the velocity and displacement after the update, with the
boundary velocity taken from a finite difference of the ramp.  Reactions
are formed only on the steps that record them, and only at the reaction
sets' constrained dofs, with the ramp's central-difference acceleration;
at a free dof the momentum balance makes the reaction f_body, whose
per-set sum is a constant formed at set-up.

What a step does not draw from the state is formed a block of steps at a
time, at most ``_BLOCK_STEPS`` steps whose rows take at most
``_BLOCK_BYTES`` (1 MB) whatever the step count: the block's clock, one
sequential sum of dt (``np.cumsum``) that the engine's time is read from,
and the ramps' rows at its times; and the reactions of the recording
steps, whose terms that depend on the state a step only gathers, summed
when the block fills and on the last step, one set-sum product per term.
Every number is the same IEEE expression, in the same order, as a step's
own, so a run's outputs do not depend on the block's rows, and recording
never changes the trajectory.  The program starts no thread of its own,
and its results are bitwise reproducible.  Set-up follows the mesh and
the output, not the step count: the reaction schedule is arithmetic on
the step number.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import hexa
from .material import MaterialParams, characteristic_scales
from .material import Order0Law as DeterministicKernels  # order-0 step callbacks
from .mesh import LoadCase, Mesh, constrained_dofs, validate_load_case, validate_mesh

_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
          (0, 4), (1, 5), (2, 6), (3, 7)]

_NAN_CHECK_INTERVAL = 64

# An engine forms its boundary rows and sums its reactions a block of
# steps at a time: at most _BLOCK_STEPS steps, whose rows and held terms
# take at most _BLOCK_BYTES.
_BLOCK_BYTES = 1 << 20
_BLOCK_STEPS = 64

# Relative spread across elements of dN/dx and of detJ * w under which a
# mesh has one element shape and its products take the element gemm form.
# Roundoff level: structured generator grids spread by at most 7.5e-15.
CONGRUENT_RTOL = 1e-12

# The 9 nonzeros of a node's 6x3 block of the strain-displacement matrix B:
# (strain row, displacement axis, k of the dN/dx_k that fills the entry)
_B_ROW, _B_AXIS, _B_DERIV = np.array([
    (0, 0, 0), (1, 1, 1), (2, 2, 2),  # normal strains
    (3, 1, 2), (3, 2, 1),  # gamma_yz = du_y/dz + du_z/dy
    (4, 0, 2), (4, 2, 0),  # gamma_xz
    (5, 0, 1), (5, 1, 0),  # gamma_xy
]).T


class InstabilityError(RuntimeError):
    """Non-finite values appeared during time integration; ``xi`` names the
    Monte Carlo sample, ``order`` the TSM order, where known.  The four
    fields are its args, so it pickles whole."""

    def __init__(self, step: int, time: float, xi: float | None = None,
                 order: int | None = None):
        super().__init__(step, time, xi, order)
        self.step, self.time, self.xi, self.order = step, time, xi, order

    def __str__(self) -> str:
        tag = "" if self.xi is None else f" (sample xi={self.xi:.6g})"
        tag += "" if self.order is None else f" in TSM order {self.order}"
        return f"non-finite state at step {self.step} (t={self.time:.6g} s){tag}"


def _csr_product(op: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``op @ x`` for a float64 CSR matrix and a float64 vector (n,) or
    column block (n, k), into a fresh array: scipy's own kernel on a zeroed
    output, as ``@`` does, without its dispatch.  A block is read in C
    order, copied first when it lies otherwise, as ``@`` does; each of its
    columns is summed in the order the vector kernel sums a vector."""
    m, n = op.shape
    if x.ndim == 1:
        out = np.zeros(m)
        _sparsetools.csr_matvec(m, n, op.indptr, op.indices, op.data, x, out)
        return out
    out = np.zeros((m, x.shape[1]))
    _sparsetools.csr_matvecs(m, n, x.shape[1], op.indptr, op.indices, op.data,
                             x.ravel(), out.ravel())
    return out


def _one_shape(a: np.ndarray) -> bool:
    """Whether the per-element values ``a[e]`` spread by at most
    ``CONGRUENT_RTOL`` of element 0's largest, entry by entry."""
    spread = a.max(axis=0) - a.min(axis=0)
    return bool(spread.max() <= CONGRUENT_RTOL * np.abs(a[0]).max())


@dataclass
class ElementQuadrature:
    """Per-element 2x2x2 Gauss data of a validated mesh and its two
    products, in one of two forms (the module docstring has the layout).

    ``strains`` and ``forces`` are the two products.  On the CSR path they
    are bitwise ``strain_op @ u`` and ``force_op @ sigma``; on the element
    gemm path they agree with those to roundoff (1e-13 relative on the
    generator meshes).  ``strain_op`` and ``force_op`` exist on every
    mesh; on a mesh of one element shape they are built from ``mesh`` on
    first access, as no step reads them there."""

    mesh: Mesh  # the mesh it was built for
    detJw: np.ndarray  # (nelem, 8) Jacobian determinant * weight, [e, q]
    n_gauss: int
    # the element gemm form; None on a mesh of more than one element shape
    element_dofs: np.ndarray | None = None  # (24, nelem): row 3a + axis, VTK node a
    strain_block: np.ndarray | None = None  # (48, 24): element 0's B, row 8c + q
    force_block: np.ndarray | None = None  # (24, 48): element 0's detJw-weighted B^T
    assembly: sp.csr_matrix | None = None  # (ndof, 24 nelem) 0/1: element forces -> f_int

    @property
    def product(self) -> str:
        """The form of both products: ``"element_gemm"`` or ``"csr"``."""
        return "csr" if self.element_dofs is None else "element_gemm"

    @property
    def strain_op(self) -> sp.csr_matrix:
        """(6 ngp, ndof): u -> all strains, row c * ngp + g."""
        return self._csr[0]

    @property
    def force_op(self) -> sp.csr_matrix:
        """(ndof, 6 ngp): stresses, column c * ngp + g -> f_int."""
        return self._csr[1]

    @cached_property
    def _csr(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        J = hexa.jacobians(self.mesh.element_coords())
        return _csr_operators(self.mesh, _gradients(J), self.detJw)

    @classmethod
    def build(cls, mesh: Mesh) -> "ElementQuadrature":
        """The quadrature of ``mesh``, which ``mesh.validate_mesh`` checks
        first, its Jacobians then reused."""
        J, detJ = validate_mesh(mesh)
        dNdx = _gradients(J)
        detJw = detJ * hexa.GAUSS_WEIGHTS[None, :]
        if _one_shape(dNdx) and _one_shape(detJw):
            return cls(mesh=mesh, detJw=detJw, n_gauss=detJw.size,
                       **_element_blocks(mesh, dNdx[0], detJw[0]))
        quad = cls(mesh=mesh, detJw=detJw, n_gauss=detJw.size)
        quad._csr = _csr_operators(mesh, dNdx, detJw)  # the products read them
        return quad

    def strains(self, u: np.ndarray) -> np.ndarray:
        """Gauss-point strains (ngp, 6) from nodal displacements (nn, 3): a
        component-major view, Gauss points in the engine's order."""
        if self.element_dofs is None:
            return _csr_product(self.strain_op, u.ravel()).reshape(6, self.n_gauss).T
        # one (48, 24) x (24, nelem) product: component c of Gauss point q of
        # element e lands at [8c + q, e], i.e. at c * ngp + q * nelem + e
        eps = self.strain_block @ u.ravel().take(self.element_dofs)
        return eps.reshape(6, self.n_gauss).T

    def forces(self, sigma: np.ndarray) -> np.ndarray:
        """Nodal internal forces (3 * nn,) from Gauss-point stresses (ngp, 6)
        in the engine's order.  A component-major ``sigma`` is read without
        a copy; any other is copied into that order first, so its memory
        order never changes a bit."""
        if self.element_dofs is None:
            return _csr_product(self.force_op, sigma.T.ravel())
        # sigma.T is (6, 8, nelem): the (48, nelem) element stresses as they lie
        block = np.ascontiguousarray(sigma.T).reshape(48, -1)
        return _csr_product(self.assembly, (self.force_block @ block).ravel())


def _gradients(J: np.ndarray) -> np.ndarray:
    """dN/dx (nelem, 8 gp, 8 nodes, 3) from the Jacobians J = dx/dxi:
    dN_a/dx_j = sum_k dN_a/dxi_k * inv(J)[j, k] (chain rule)."""
    return np.einsum("gak,egjk->egaj", hexa.DN_AT_GP, np.linalg.inv(J))


def _index_type(mesh: Mesh):
    """The index dtype of the sparse operators of ``mesh``."""
    return np.int32 if max(576 * mesh.n_elements, 3 * mesh.n_nodes) < 2**31 else np.int64


def _csr_operators(mesh: Mesh, dNdx: np.ndarray,
                   detJw: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """``strain_op`` and its detJw-weighted transpose ``force_op`` from every
    element's dN/dx and detJ * w (the layout is the module docstring's)."""
    ne, ngp, ndof, idx_t = mesh.n_elements, detJw.size, 3 * mesh.n_nodes, _index_type(mesh)
    # each element's nodes by ascending id, so every row's columns ascend
    order = np.argsort(mesh.elements, axis=1)
    nodes = np.take_along_axis(mesh.elements, order, axis=1)
    dNdx = np.take_along_axis(dNdx, order[:, None, :, None], axis=2).transpose(1, 0, 2, 3)
    # component c's rows: (8 gp, ne, 8 nodes, its B-table entries, axes ascending)
    indptr = np.insert(np.cumsum(np.repeat(8 * np.bincount(_B_ROW), ngp)), 0, 0).astype(idx_t)
    blocks = [(_B_ROW == c, slice(indptr[c * ngp], indptr[(c + 1) * ngp])) for c in range(6)]
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=idx_t)

    def operator(weight) -> sp.csr_matrix:
        """B times the per-Gauss-point ``weight``, in ``data`` and ``indices``."""
        for t, rows in blocks:
            np.multiply(dNdx[..., _B_DERIV[t]], weight, out=data[rows].reshape(8, ne, 8, -1))
            indices[rows].reshape(8, ne, 8, -1)[...] = 3 * nodes[:, :, None] + _B_AXIS[t]
        return sp.csr_matrix((data, indices, indptr), shape=(6 * ngp, ndof))

    # the transpose copies the weighted entries out; the same buffers then
    # take strain_op's, so no third operator-sized array is ever held
    force_op = operator(detJw.T[:, :, None, None]).T.tocsr()
    return operator(1.0), force_op


def _element_blocks(mesh: Mesh, dNdx0: np.ndarray, detJw0: np.ndarray) -> dict:
    """The element gemm form's fields of ``ElementQuadrature``, from element
    0's dN/dx (8 gp, 8 nodes, 3) and detJ * w (8 gp)."""
    ne = mesh.n_elements
    idx_t = _index_type(mesh)
    B = np.zeros((6, 8, 8, 3))  # (component, gp, node, axis)
    B[_B_ROW, :, :, _B_AXIS] = dNdx0[:, :, _B_DERIV].transpose(2, 0, 1)
    B = B.reshape(48, 24)
    dofs = (3 * mesh.elements[:, :, None] + np.arange(3)).reshape(ne, 24)
    # row k of the assembly sums the forces on dof k in ascending element
    # order; element e's force on its local dof j is entry j * ne + e of the
    # (24, ne) element forces
    flat = dofs.ravel()
    entries = np.argsort(flat, kind="stable")  # 24 e + j
    cols = ((entries % 24) * ne + entries // 24).astype(idx_t)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=3 * mesh.n_nodes))])
    return dict(element_dofs=np.ascontiguousarray(dofs.T),
                strain_block=B,
                force_block=np.ascontiguousarray((B * np.tile(detJw0, 6)[:, None]).T),
                assembly=sp.csr_matrix((np.ones(flat.size), cols, indptr.astype(idx_t)),
                                       shape=(3 * mesh.n_nodes, flat.size)))


def to_public_order(a: np.ndarray) -> np.ndarray:
    """The values of a Gauss-point array (ngp, ...) in the engine's order
    q * nelem + e, in the public order 8 e + q."""
    ne = a.shape[0] // 8
    return a.reshape(8, ne, *a.shape[1:]).swapaxes(0, 1).reshape(a.shape)


def lumped_mass(mesh: Mesh, rho: float, quad: ElementQuadrature | None = None) -> np.ndarray:
    """Row-sum lumped nodal masses (kg), one entry per node.

    The total equals rho times the quadrature volume exactly.
    """
    if not 0.0 < rho < np.inf:
        raise ValueError("density must be finite and positive")
    quad = quad or ElementQuadrature.build(mesh)
    # per element-node weight: sum_g N[g, a] * detJw[e, g]
    w = np.einsum("ga,eg->ea", hexa.N_AT_GP, quad.detJw)
    return rho * np.bincount(mesh.elements.ravel(), weights=w.ravel(),
                             minlength=mesh.n_nodes)


def stable_timestep(mesh: Mesh, params: MaterialParams, safety: float = 0.5) -> float:
    """CFL-style step estimate: safety * min element edge / wave speed."""
    coords = mesh.element_coords()
    edges = np.stack([np.linalg.norm(coords[:, a] - coords[:, b], axis=1)
                      for a, b in _EDGES], axis=1)
    v = characteristic_scales(params)["wave_speed"]
    return float(safety * edges.min() / v)


def set_sum_operator(node_sets) -> tuple[sp.csr_matrix, np.ndarray]:
    """Per-set sums of a nodal vector (3 entries per node), as
    ``(op, dofs)``: ``dofs`` is the union of the sets' dofs, ascending, and
    rows 3k, 3k+1 and 3k+2 of the 0/1 matrix ``op`` sum the x, y and z
    entries of ``vector[dofs]`` over node_sets[k], in ascending dof
    order."""
    ids = [np.asarray(n, dtype=np.int64) for n in node_sets]
    nodes = np.concatenate([np.zeros(0, dtype=np.int64), *ids])
    owner = np.repeat(np.arange(len(ids)), [n.size for n in ids])
    rows = (3 * owner[:, None] + np.arange(3)).ravel()
    cols = (3 * nodes[:, None] + np.arange(3)).ravel()
    dofs = np.unique(cols)
    op = sp.csr_matrix((np.ones(rows.size), (rows, np.searchsorted(dofs, cols))),
                       shape=(3 * len(ids), dofs.size))
    return op, dofs


def reaction_sums(op: sp.csr_matrix, terms, mass_damping: float = 0.0) -> np.ndarray:
    """Reactions: internal plus inertial (plus damping, when active) nodal
    forces.  ``terms`` holds, at the dofs of the columns of ``op`` (a
    set-sum operator of ``set_sum_operator``, or some of its columns), the
    terms f_int, m * a and, with ``mass_damping``, m * v: each a row
    (n_dofs,) of one step, giving (n_sets, 3), or a block (B, n_dofs) of B
    steps, giving (n_sets, B, 3).

    Each term is summed on its own, over the set's nodes in ascending
    order, before the terms are added; summing the combined vector instead
    moves finite-difference quotients of reactions by roundoff amplified
    1/(2h).  A block is summed by one product, whose every column is the
    sum of that step's row (``_csr_product``), so a step's reactions have
    the same bits in a block of any size.  The products ``m * a`` and
    ``m * v`` are formed before the sums, so the 0/1 kernel only adds."""
    sums = [_csr_product(op, np.asarray(term).T) for term in terms]
    r = sums[0] + sums[1]
    if mass_damping:
        r += mass_damping * sums[2]
    return np.moveaxis(r.reshape(-1, 3, *r.shape[1:]), 1, -1)


@dataclass
class History:
    """Snapshots at requested instants plus reaction-force time series;
    Gauss points in the public order 8 e + q."""

    times: np.ndarray  # (S,)
    u: np.ndarray  # (S, nn, 3)
    d: np.ndarray  # (S, ngp)
    sigma: np.ndarray  # (S, ngp, 6)
    force_times: np.ndarray  # (F,)
    forces: dict[str, np.ndarray]  # set name -> (F, 3)
    dt: float
    n_steps: int
    wall_time: float = 0.0
    meta: dict = field(default_factory=dict)


class _Dirichlet:
    """Compiled constraint table: the constrained flat dofs, ascending, and
    the row of the load table each follows (``_which``, the last row that
    names the dof, ``mesh.constrained_dofs``), whose ramp is
    value(t) = amplitude * min(t, ramp_end) / ramp_end.

    ``steps`` and ``acceleration`` evaluate the rows of a vector of step
    times t >= 0 at once, one row per time: for the step from t to
    t + dt the velocity (u(t + dt) - u(t)) / dt and the value u(t + dt),
    and the central difference (u(t + dt) - 2 u(t) + u(t - dt)) / dt**2.
    The ramp law is evaluated once per row of the load table and time, and
    spread to the dofs with one ``take``; each value is the same IEEE
    expression, in the same order, as the elementwise numpy form of one
    time.  Only rows of nonzero amplitude are evaluated: for t >= 0 a zero
    amplitude's rows are constant, acceleration and velocity +0.0 and the
    value the amplitude, its sign of zero kept.  Without a nonzero
    amplitude, as in the first-order problem (scale 0), no ramp is
    evaluated."""

    def __init__(self, mesh: Mesh, loads: LoadCase, scale: float):
        self.dofs, self._which = constrained_dofs(loads, mesh)
        self._ramps = [(scale * r.amplitude, r.ramp_end) for r in loads.dirichlet]
        amp, t_end = np.array(self._ramps, dtype=float).reshape(-1, 2).T
        self._moving = np.flatnonzero(amp != 0.0)
        self._amp, self._t_end = amp[self._moving], t_end[self._moving]
        self._rest = np.zeros((3, amp.size))  # per row: acceleration, velocity, value
        self._rest[2] = amp

    def value(self, t: float) -> np.ndarray:
        """The prescribed displacements at time t."""
        return np.take([amp * min(t, t_end) / t_end for amp, t_end in self._ramps],
                       self._which)

    def _ramp(self, times: np.ndarray) -> np.ndarray:
        """The moving rows' values (B, n_moving) at ``times`` (B,)."""
        return self._amp * np.minimum(times[:, None], self._t_end) / self._t_end

    def _rows(self, times: np.ndarray, k: int) -> np.ndarray:
        """Row ``k`` of ``_rest`` repeated for each of ``times``: (B, n_rows)."""
        return np.repeat(self._rest[None, k], times.size, axis=0)

    def steps(self, times: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """The rows (B, n_dofs) of the steps from ``times`` (B,) to
        ``times`` + dt: the velocities of the updates and the values at
        their ends."""
        velocity, value = self._rows(times, 1), self._rows(times, 2)
        if self._moving.size:
            up = self._ramp(times + dt)
            velocity[:, self._moving] = (up - self._ramp(times)) / dt
            value[:, self._moving] = up
        return velocity.take(self._which, axis=1), value.take(self._which, axis=1)

    def acceleration(self, times: np.ndarray, dt: float, rows=None) -> np.ndarray:
        """The acceleration rows (B, n) at ``times`` (B,), the central
        difference of the ramp: at every dof, or at the dofs whose
        load-table rows (``_which[positions]``) ``rows`` lists."""
        accel = self._rows(times, 0)
        if self._moving.size:
            u0 = self._ramp(times)
            accel[:, self._moving] = (self._ramp(times + dt) - 2.0 * u0
                                      + self._ramp(times - dt)) / dt**2
        return accel.take(self._which if rows is None else rows, axis=1)


def step_at(t: float, dt: float) -> int:
    """The first step whose time reaches t (to roundoff): ceil(t/dt - 1e-9)."""
    return int(np.ceil(t / dt - 1e-9))


class ExplicitEngine:
    """One explicit central-difference simulation, driven a step at a time.

    Construction is the set-up: constraints, lumped mass, the update's
    factors, the snapshot and reaction schedules, an empty ``history`` and,
    by ``initial_state()``, the state: displacements ``u``, velocities
    ``v`` at the preceding half step, Gauss-point damage ``d`` (in the
    engine's order, as every Gauss-point array of a step), ``time`` and
    the step count ``n``.  Each ``step()`` then runs step n = 0, 1, ...,
    ``n_steps``: ``evaluate()``, the optional
    ``exchange_hook(n, time, eps, d)``, the reactions (every
    ``force_stride`` steps and at the last; see below) and snapshot of
    step n (``d`` and ``sigma`` in the public order), then, except after
    the last step,
    ``advance()`` to step n + 1 and, every ``_NAN_CHECK_INTERVAL`` steps, a
    scan for non-finite values.  ``finish()`` checks that the final state
    is finite and returns the ``History``, whose ``wall_time`` is the time
    spent in the set-up, the steps and ``finish()``.

    ``stress_fn(d, eps, n)`` returns Gauss-point stresses and
    ``damage_fn(d, eps, n)`` the advanced damage; both are evaluated with
    the state at the top of the step (the one-step lag of classic explicit
    stress updates vanishes with dt and is covered by convergence tests).

    ``mass_damping`` is an optional mass-proportional damping rate alpha
    (1/s) that drains the element-scale transients explicit integration
    keeps alive forever (the usual noise-control device of explicit
    codes).  It does not depend on the stiffness fluctuation, so the
    sensitivity problem uses exactly the same term.  alpha * dt must stay
    below 2, where the damping factor 1 - alpha * dt reaches -1.

    The update is the central difference with mass-proportional damping
    (Belytschko, Liu & Moran, 2000), rearranged into one fused velocity
    update, v' = c * v + w * (f_body - f_int), with the per-dof
    w = dt / m and c = 1 - alpha * dt formed at set-up (dt / 2m and
    1 - alpha * dt / 2 for the first half step).  This is
    v + dt * ((f_body - f_int) / m - alpha * v) rearranged, and no
    acceleration vector is formed.  The constrained dofs are then
    overwritten with the ramp's velocity and value (``_Dirichlet``).
    ``load_scale`` multiplies the ramp amplitudes and the body force: 1
    for a realization, 0 for the first-order problem, whose loads do not
    depend on xi.

    A set's reaction is the sum of f_int + m * a + alpha * m * v over its
    dofs.  At a free dof the update's momentum balance makes that f_body,
    so the reaction is formed where the supports act (Belytschko, Liu &
    Moran, 2000): f_int, m times the ramp's central-difference
    acceleration and, when damped, m * v at the set's constrained dofs,
    each term summed by ``reaction_sums``, plus the sum of f_body over the
    set's free dofs, formed once at set-up.

    The steps run in blocks of ``_block`` steps, sized at set-up from the
    constrained and reaction dofs within ``_BLOCK_BYTES`` (the module
    docstring).  A block's first ``advance()`` forms its clock and its
    ramps' velocity and value rows (``_Dirichlet.steps``); each step then
    reads one row and takes its time from the clock.  A recording step
    only holds f_int (and v, when damped) at the sets' constrained dofs and
    its time; when ``_block`` steps are held, and on the last step, the
    held steps' acceleration rows are formed and their reactions summed as
    one block into the reaction rows, so ``finish()`` only hands them out.
    """

    def __init__(self, mesh: Mesh, loads: LoadCase, rho: float, dt: float,
                 output_times, stress_fn, damage_fn, *,
                 quad: ElementQuadrature | None = None,
                 load_scale: float = 1.0,
                 force_stride: int = 1,
                 mass_damping: float = 0.0,
                 exchange_hook=None,
                 meta: dict | None = None):
        t0 = _time.perf_counter()
        # a quadrature is built from a mesh it validates; a given one was
        quad = quad or ElementQuadrature.build(mesh)
        validate_load_case(loads, mesh)
        if not 0.0 < dt < np.inf:
            raise ValueError(f"dt must be finite and positive, got {dt}")
        if not 0.0 <= mass_damping < np.inf:
            raise ValueError(f"mass_damping must be finite and >= 0, got {mass_damping}")
        if not mass_damping * dt < 2.0:
            raise ValueError(f"mass_damping * dt must be < 2, got mass_damping="
                             f"{mass_damping} and dt={dt}")
        if not force_stride >= 1:
            raise ValueError(f"force_stride must be >= 1, got {force_stride}")
        self.mesh = mesh
        self.dt = dt
        self.stress_fn, self.damage_fn = stress_fn, damage_fn
        self.exchange_hook = exchange_hook
        self.quad = quad
        mass = lumped_mass(mesh, rho, quad)
        self.mass3 = np.repeat(mass, 3)
        self.bc = _Dirichlet(mesh, loads, load_scale)
        self.alpha = mass_damping
        body = load_scale * np.asarray(loads.body_force)
        self.f_body = (mass[:, None] / rho * body[None, :]).ravel()
        self._w, self._c = dt / self.mass3, 1.0 - mass_damping * dt

        self.n_steps = n_steps = step_at(loads.total_time, dt)
        snap_steps = sorted({s for s in (min(n_steps, step_at(t, dt)) for t in output_times)
                             if s >= 0})
        self._snap_at = {s: i for i, s in enumerate(snap_steps)}
        nn, ngp, S = mesh.n_nodes, quad.n_gauss, len(snap_steps)
        # reactions at steps 0, s, 2s, ... and the last (exact in float64)
        self._force_stride = s = min(force_stride, n_steps)
        force_times = np.minimum(np.arange(0.0, n_steps + s, s), n_steps) * dt
        self._set_names = sorted({r.node_set for r in loads.dirichlet})
        # the reaction terms are summed at the sets' constrained dofs; their
        # free dofs add the constant sum of f_body
        op, k = set_sum_operator([mesh.node_sets[name] for name in self._set_names])
        fixed = np.isin(k, self.bc.dofs)
        self._set_sums, self._set_dofs = op[:, fixed], k[fixed]
        self._set_mass = self.mass3[self._set_dofs]
        self._set_slots = self.bc._which[np.searchsorted(self.bc.dofs, self._set_dofs)]
        free = ~fixed
        self._free_body = _csr_product(op[:, free], self.f_body[k[free]]).reshape(-1, 3)
        # one contiguous (rows, 3) series per set, handed out by finish()
        self._forces = np.zeros((len(self._set_names), force_times.size, 3))
        # a block's steps: its ramp rows and the terms held of its recording
        # steps, within _BLOCK_BYTES whatever the step count
        terms = 2 if self.alpha else 1
        row_bytes = 8 * (1 + 2 * self.bc.dofs.size) + 8 * (1 + terms * self._set_dofs.size)
        self._block = max(1, min(_BLOCK_STEPS, _BLOCK_BYTES // row_bytes))
        self.history = History(
            times=np.asarray([s * dt for s in snap_steps]),
            u=np.zeros((S, nn, 3)), d=np.zeros((S, ngp)), sigma=np.zeros((S, ngp, 6)),
            force_times=force_times, forces={},
            dt=dt, n_steps=n_steps, meta=dict(meta or {}),
        )
        self.history.meta["loaded_sets"] = sorted({r.node_set for r in loads.dirichlet
                                                   if r.amplitude != 0.0})
        self.history.meta["product"] = quad.product  # the two forms differ at roundoff
        self.initial_state()
        self.history.wall_time = _time.perf_counter() - t0

    def initial_state(self) -> None:
        """At rest and undamaged at step 0, the ramps at their t = 0 values."""
        nn, ngp = self.mesh.n_nodes, self.quad.n_gauss
        self.u, self.v, self.d = np.zeros((nn, 3)), np.zeros((nn, 3)), np.zeros(ngp)
        self.u.ravel()[self.bc.dofs] = self.bc.value(0.0)
        self.time, self.n = 0.0, 0
        # the recording steps held since the last sum: f_int and v at the
        # sets' constrained dofs, and the time
        self._held, self._rows_summed = ([], [], []), 0

    def evaluate(self):
        """Top-of-step kinematics and kinetics: (eps, sigma, f_int), the
        internal forces a flat (3 * nn,) vector."""
        eps = self.quad.strains(self.u)
        sigma = self.stress_fn(self.d, eps, self.n)
        return eps, sigma, self.quad.forces(sigma)

    def advance(self, eps, f_int) -> None:
        """One central-difference update into new arrays (see the class
        docstring); Dirichlet dofs are overwritten with the exact ramp
        values."""
        dt, j = self.dt, self.n % self._block
        if j == 0:  # a block's first step: its clock and ramp rows
            times = np.full(min(self._block, self.n_steps - self.n) + 1, dt)
            times[0] = self.time
            times = np.cumsum(times)
            self._clock = times.tolist()
            self._bc_v, self._bc_u = self.bc.steps(times[:-1], dt)
        # half-step start: the very first update advances v by dt/2
        w, c = (self._w, self._c) if self.n else (0.5 * self._w, 1.0 - self.alpha * (0.5 * dt))
        v = self.f_body - f_int
        v *= w
        v += c * self.v.ravel() if self.alpha else self.v.ravel()
        v[self.bc.dofs] = self._bc_v[j]
        u = dt * v
        u += self.u.ravel()
        u[self.bc.dofs] = self._bc_u[j]
        self.d = self.damage_fn(self.d, eps, self.n)
        self.u, self.v = u.reshape(-1, 3), v.reshape(-1, 3)
        self.time, self.n = self._clock[j + 1], self.n + 1

    def _record(self, f_int) -> None:
        """Hold the current step's reaction terms that depend on the state,
        f_int (and v, when damped) at the sets' constrained dofs, and its
        time; sum the held steps when they fill the block or the step is
        the last."""
        k, held = self._set_dofs, self._held
        held[0].append(f_int[k])
        if self.alpha:
            held[1].append(self.v.ravel()[k])
        held[2].append(self.time)
        if len(held[2]) == self._block or self.n == self.n_steps:
            self._sum_held()

    def _sum_held(self) -> None:
        """The reactions of the held recording steps, summed as one block
        into the rows that follow the rows summed before."""
        f, v, times = (np.array(h) for h in self._held)
        m = self._set_mass
        terms = [f, m * self.bc.acceleration(times, self.dt, self._set_slots)]
        if self.alpha:
            terms.append(m * v)
        r = reaction_sums(self._set_sums, terms, self.alpha)
        r += self._free_body[:, None]
        row = self._rows_summed
        self._forces[:, row:row + times.size] = r
        self._rows_summed = row + times.size
        self._held = ([], [], [])

    def step(self):
        """Run the current step (see the class docstring); returns its
        Gauss-point strains (ngp, 6) and damage (ngp,), which later steps
        replace but never overwrite."""
        t0 = _time.perf_counter()
        n, d = self.n, self.d
        eps, sigma, f_int = self.evaluate()
        if self.exchange_hook is not None:
            self.exchange_hook(n, self.time, eps, d)
        if n % self._force_stride == 0 or n == self.n_steps:  # in row ceil(n / s)
            self._record(f_int)
        i = self._snap_at.get(n)
        if i is not None:
            hist = self.history
            hist.u[i] = self.u
            hist.d[i] = to_public_order(d)
            hist.sigma[i] = to_public_order(sigma)
        if n < self.n_steps:
            self.advance(eps, f_int)
            if self.n % _NAN_CHECK_INTERVAL == 0 and not np.isfinite(self.u.sum()):
                raise self._instability()
        self.history.wall_time += _time.perf_counter() - t0
        return eps, d

    def _instability(self) -> InstabilityError:
        meta = self.history.meta  # names the run: a realization's xi, a TSM order
        return InstabilityError(self.n, self.time, meta.get("xi"), meta.get("order"))

    def finish(self) -> History:
        """The history, once the final state is checked to be finite; each
        set's reaction series is a view of the engine's own rows.  Steps
        still held, when the run stopped before its last step, are summed
        first."""
        t0 = _time.perf_counter()
        if not np.isfinite(self.u).all():
            raise self._instability()
        if self._held[2]:  # a run stopped before its last step
            self._sum_held()
        hist = self.history
        hist.forces = dict(zip(self._set_names, self._forces))
        hist.wall_time += _time.perf_counter() - t0
        return hist


def run_engines(*engines: ExplicitEngine) -> list[History]:
    """The one integrator loop: each step of the engines' common grid runs
    on each engine in turn, then each is finished; returns their histories.

    A diverging state overflows before the periodic scan reports it, so
    numpy's overflow and invalid-value warnings are off in the loop: the
    ``InstabilityError`` is the one report."""
    grid = (engines[0].dt, engines[0].n_steps)
    if any((e.dt, e.n_steps) != grid for e in engines):
        raise ValueError("engines stepped together need one step grid")
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(grid[1] + 1):
            for engine in engines:
                engine.step()
    return [engine.finish() for engine in engines]


def run_with_kernels(mesh: Mesh, loads: LoadCase, rho: float, dt: float,
                     output_times, stress_fn, damage_fn, **options) -> History:
    """Integrate to ``loads.total_time`` with one ``ExplicitEngine``, whose
    keyword arguments ``options`` are, and return its history."""
    return run_engines(ExplicitEngine(mesh, loads, rho, dt, output_times,
                                      stress_fn, damage_fn, **options))[0]


def check_xi(xi: float) -> None:
    """Reject a stiffness fluctuation whose 1 + xi is not finite and > 0."""
    if not 0.0 < 1.0 + xi < np.inf:
        raise ValueError(f"1 + xi must be finite and positive, got xi={xi}")


def deterministic_kernels(params: MaterialParams, xi: float,
                          dt: float) -> DeterministicKernels:
    """The step callbacks of the realization with stiffness (1 + xi) * E0.

    The damage driver uses the same scaled stiffness, i.e. the actual
    realization's free energy.
    """
    check_xi(xi)
    return DeterministicKernels((1.0 + xi) * params.stiffness, params.eta, dt)


def run_deterministic(mesh: Mesh, loads: LoadCase, params: MaterialParams,
                      xi: float, dt: float, output_times, *,
                      quad: ElementQuadrature | None = None, force_stride: int = 1,
                      mass_damping: float = 0.0) -> History:
    """Full deterministic run with stiffness (1 + xi) * E0 (see
    ``deterministic_kernels``)."""
    kern = deterministic_kernels(params, xi, dt)
    return run_with_kernels(mesh, loads, params.rho, dt, output_times,
                            kern.stress, kern.damage, quad=quad,
                            force_stride=force_stride, mass_damping=mass_damping,
                            meta={"xi": xi, "kind": "deterministic"})
