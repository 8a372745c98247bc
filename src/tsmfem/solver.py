"""Explicit central-difference structural dynamics on hexahedral meshes.

The element loop is flattened into two pre-assembled sparse operators:
``strain_op`` maps the global displacement vector to all Gauss-point strains
(engineering shear), and ``force_op`` maps weighted Gauss-point stresses back
to nodal internal forces.  Both store only the structural nonzeros of the
strain-displacement matrix B, 72 per Gauss point (8 in each normal-strain
row, 16 in each shear row), so a product spends no work on ``0 * x`` terms.
Stress and damage laws enter as per-Gauss-point callbacks, so the
deterministic and the first-order (sensitivity) problems share one
integrator.

Memory layout: Gauss-point strains and stresses are (ngp, 6) arrays stored
component-major, i.e. as the transpose of a C-ordered (6, ngp) array, so
each Voigt component is one contiguous row and the laws run long inner
loops.  ``strain_op`` row ``c * ngp + g`` holds component c of Gauss point
g, its columns ascending; ``force_op`` column ``c * ngp + g`` matches it.
Inside each ``force_op`` row the entries stay in Gauss-point-major
(g, c) order, so its indices are deliberately unsorted and every force is
the same sum as with a Gauss-point-major layout.  Only
``ElementQuadrature.strains`` and ``ElementQuadrature.forces`` know the
layout; everything else sees plain (ngp, 6) arrays.

Dirichlet ramps are imposed by direct overwrite after the explicit update,
with boundary velocity/acceleration taken from finite differences of the
ramp.  Everything is single-threaded and bitwise reproducible.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import hexa
from .material import MaterialParams, characteristic_scales
from .material import Order0Law as DeterministicKernels  # order-0 step callbacks
from .mesh import LoadCase, Mesh, validate_load_case, validate_mesh

_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
          (0, 4), (1, 5), (2, 6), (3, 7)]

_NAN_CHECK_INTERVAL = 64

# The 9 nonzeros of a node's 6x3 block of the strain-displacement matrix B:
# (strain row, displacement axis, k of the dN/dx_k that fills the entry)
_B_ROW, _B_AXIS, _B_DERIV = np.array([
    (0, 0, 0), (1, 1, 1), (2, 2, 2),  # normal strains
    (3, 1, 2), (3, 2, 1),  # gamma_yz = du_y/dz + du_z/dy
    (4, 0, 2), (4, 2, 0),  # gamma_xz
    (5, 0, 1), (5, 1, 0),  # gamma_xy
]).T
# the B-table entries of each strain row, axes ascending
_ROW_ENTRIES = [np.nonzero(_B_ROW == c)[0] for c in range(6)]
_ROW_NNZ = np.array([8 * b.size for b in _ROW_ENTRIES])  # 8, 8, 8, 16, 16, 16
_ROW_START = np.concatenate([[0], np.cumsum(_ROW_NNZ)])  # offsets in a gp's 72


class InstabilityError(RuntimeError):
    """Non-finite values appeared during time integration; ``xi`` names the
    Monte Carlo sample, ``order`` the TSM order, where known."""

    def __init__(self, step: int, time: float, xi: float | None = None,
                 order: int | None = None):
        tag = "" if xi is None else f" (sample xi={xi:.6g})"
        tag += "" if order is None else f" in TSM order {order}"
        super().__init__(f"non-finite state at step {step} (t={time:.6g} s){tag}")
        self.step = step
        self.time = time
        self.xi = xi
        self.order = order


@dataclass
class ElementQuadrature:
    """Per-element 2x2x2 Gauss data plus the assembled global operators."""

    detJw: np.ndarray  # (nelem, 8) Jacobian determinant * weight
    strain_op: sp.csr_matrix  # (6*ngp, ndof): u -> all strains, component-major
    force_op: sp.csr_matrix  # (ndof, 6*ngp): weighted stress -> f_int
    n_gauss: int

    @classmethod
    def build(cls, mesh: Mesh) -> "ElementQuadrature":
        ne = mesh.n_elements
        J = hexa.jacobians(mesh.element_coords())
        detJ = np.linalg.det(J)
        if (detJ <= 0.0).any():
            e = int(np.nonzero((detJ <= 0.0).any(axis=1))[0][0])
            raise ValueError(f"element {e} has non-positive Jacobian")
        Jinv = np.linalg.inv(J)
        # dN_a/dx_j = sum_k dN_a/dxi_k * inv(J)[j, k] (chain rule, J = dx/dxi)
        dNdx = np.einsum("gak,egjk->egaj", hexa.DN_AT_GP, Jinv)

        detJw = detJ * hexa.GAUSS_WEIGHTS[None, :]
        ngp = 8 * ne
        ndof = 3 * mesh.n_nodes
        nnz = 72 * ngp
        idx_t = np.int32 if max(nnz, ndof) < 2**31 else np.int64

        # each element's nodes by ascending id, so every row's columns ascend
        order = np.argsort(mesh.elements, axis=1)
        nodes = np.take_along_axis(mesh.elements, order, axis=1)
        repeats = np.nonzero((np.diff(nodes, axis=1) == 0).any(axis=1))[0]
        if repeats.size:
            raise ValueError(f"element {int(repeats[0])} repeats a node")
        dNdx = np.take_along_axis(dNdx, order[:, None, :, None], axis=2)

        def row_blocks():
            """Per strain component: the 9-per-node structural nonzeros of
            the 6x24 B blocks, node by node (ne, 8 gp, n) and their columns
            (ne, 1, n)."""
            for b in _ROW_ENTRIES:
                yield (dNdx[..., _B_DERIV[b]].reshape(ne, 8, -1),
                       (3 * nodes[:, None, :, None] + _B_AXIS[b]).reshape(ne, 1, -1))

        # force_op: the transpose of the detJw-weighted B in Gauss-point-major
        # row order 6g + c, then renumbered to the component-major columns
        w = np.empty((ne, 8, 72))
        cols = np.empty((ne, 8, 72), dtype=idx_t)
        for (vals, col), lo, hi in zip(row_blocks(), _ROW_START[:-1], _ROW_START[1:]):
            w[:, :, lo:hi] = vals * detJw[:, :, None]
            cols[:, :, lo:hi] = col
        indptr = np.concatenate([[0], np.cumsum(np.tile(_ROW_NNZ, ngp))]).astype(idx_t)
        force_op = sp.csr_matrix((w.reshape(nnz), cols.reshape(nnz), indptr),
                                 shape=(6 * ngp, ndof)).T.tocsr()
        del w, cols
        gp_major_to_cm = np.arange(6 * ngp, dtype=idx_t).reshape(6, ngp).T.ravel()
        force_op.indices[:] = gp_major_to_cm[force_op.indices]
        force_op.has_sorted_indices = False  # never sort: it would reorder each sum

        # strain_op: component-major rows c * ngp + g
        data = np.empty(nnz)
        indices = np.empty(nnz, dtype=idx_t)
        for (vals, col), lo, hi in zip(row_blocks(), ngp * _ROW_START[:-1],
                                       ngp * _ROW_START[1:]):
            data[lo:hi].reshape(vals.shape)[...] = vals
            indices[lo:hi].reshape(vals.shape)[...] = col
        indptr = np.concatenate([[0], np.cumsum(np.repeat(_ROW_NNZ, ngp))]).astype(idx_t)
        strain_op = sp.csr_matrix((data, indices, indptr), shape=(6 * ngp, ndof))
        return cls(detJw=detJw, strain_op=strain_op, force_op=force_op, n_gauss=ngp)

    def strains(self, u: np.ndarray) -> np.ndarray:
        """Gauss-point strains (ngp, 6) from nodal displacements (nn, 3): a
        component-major view."""
        return (self.strain_op @ u.ravel()).reshape(6, self.n_gauss).T

    def forces(self, sigma: np.ndarray) -> np.ndarray:
        """Nodal internal forces (3 * nn,) from Gauss-point stresses (ngp, 6);
        a component-major ``sigma`` is read without a copy."""
        return self.force_op @ sigma.T.ravel()

    def element_volumes(self) -> np.ndarray:
        return self.detJw.sum(axis=1)


def lumped_mass(mesh: Mesh, rho: float, quad: ElementQuadrature | None = None) -> np.ndarray:
    """Row-sum lumped nodal masses (kg), one entry per node.

    The total equals rho times the quadrature volume exactly.
    """
    if rho <= 0.0:
        raise ValueError("density must be positive")
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
    ``(op, dofs)``: ``dofs`` is the ascending union of the sets' dofs, and
    rows 3k, 3k+1 and 3k+2 of the 0/1 matrix ``op`` sum the x, y and z
    entries of ``vector[dofs]`` over node_sets[k], in ascending order."""
    ids = [np.asarray(n, dtype=np.int64) for n in node_sets]
    nodes = np.concatenate([np.zeros(0, dtype=np.int64), *ids])
    owner = np.repeat(np.arange(len(ids)), [n.size for n in ids])
    rows = (3 * owner[:, None] + np.arange(3)).ravel()
    cols = (3 * nodes[:, None] + np.arange(3)).ravel()
    dofs = np.unique(cols)
    op = sp.csr_matrix((np.ones(rows.size), (rows, np.searchsorted(dofs, cols))),
                       shape=(3 * len(ids), dofs.size))
    return op, dofs


def reaction_sums(set_sums: tuple[sp.csr_matrix, np.ndarray], mass3: np.ndarray,
                  f_int: np.ndarray, accel: np.ndarray,
                  velocity: np.ndarray | None = None,
                  mass_damping: float = 0.0) -> np.ndarray:
    """Reactions (n_sets, 3): internal plus inertial (plus damping, when
    active) nodal forces, summed per set by ``set_sum_operator``; only the
    sets' dofs are read.

    Each term is summed on its own, over the set's nodes in ascending
    order, before the terms are added; summing the combined nodal vector
    instead moves finite-difference quotients of reactions by roundoff
    amplified 1/(2h)."""
    op, dofs = set_sums
    m = mass3[dofs]
    r = op @ f_int.ravel()[dofs] + op @ (m * accel.ravel()[dofs])
    if mass_damping and velocity is not None:
        r = r + mass_damping * (op @ (m * velocity.ravel()[dofs]))
    return r.reshape(-1, 3)


@dataclass
class DynamicState:
    """Explicit-dynamics state: u at step n, v at the preceding half step,
    per-Gauss-point damage, time and step."""

    u: np.ndarray  # (nn, 3)
    v: np.ndarray  # (nn, 3), staggered half step
    d: np.ndarray  # (ngp,)
    time: float = 0.0
    step: int = 0


@dataclass
class History:
    """Snapshots at requested instants plus reaction-force time series."""

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
    """Compiled constraint table: flat dof indices and ramp parameters."""

    def __init__(self, mesh: Mesh, loads: LoadCase, scale: float):
        pairs: dict[int, tuple[float, float]] = {}
        for ramp in loads.dirichlet:
            ids = mesh.node_sets[ramp.node_set]
            for n in ids:
                pairs[3 * int(n) + ramp.axis] = (scale * ramp.amplitude, ramp.ramp_end)
        items = sorted(pairs.items())
        self.dofs = np.asarray([k for k, _ in items], dtype=np.int64)
        self.amp = np.asarray([v[0] for _, v in items])
        self.t_end = np.asarray([v[1] for _, v in items])
        self._cache: dict[float, np.ndarray] = {}

    def value(self, t: float) -> np.ndarray:
        v = self._cache.get(t)
        if v is None:
            v = self.amp * np.minimum(t, self.t_end) / self.t_end
            if len(self._cache) > 8:
                self._cache.clear()
            self._cache[t] = v
        return v

    def accel(self, t: float, dt: float) -> np.ndarray:
        return (self.value(t + dt) - 2.0 * self.value(t) + self.value(t - dt)) / dt**2


class ExplicitEngine:
    """Shared machinery for the central-difference loop.

    ``stress_fn(d, eps, step)`` returns Gauss-point stresses and
    ``damage_fn(d, eps, step)`` the advanced damage; both are evaluated with
    the state at the top of the step (the one-step lag of classic explicit
    stress updates vanishes with dt and is covered by convergence tests).

    ``mass_damping`` is an optional mass-proportional damping rate (1/s)
    that drains the element-scale transients explicit integration keeps
    alive forever (the usual noise-control device of explicit codes).  It
    does not depend on the stiffness fluctuation, so the sensitivity
    problem uses exactly the same term.
    """

    def __init__(self, mesh: Mesh, loads: LoadCase, rho: float, dt: float,
                 quad: ElementQuadrature | None = None, dirichlet_scale: float = 1.0,
                 mass_damping: float = 0.0):
        validate_mesh(mesh)
        validate_load_case(loads, mesh)
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if mass_damping < 0.0:
            raise ValueError("mass_damping must be >= 0")
        self.mesh = mesh
        self.dt = dt
        self.quad = quad or ElementQuadrature.build(mesh)
        mass = lumped_mass(mesh, rho, self.quad)
        self.mass3 = np.repeat(mass, 3)
        self.bc = _Dirichlet(mesh, loads, dirichlet_scale)
        self.alpha = mass_damping
        b = np.asarray(loads.body_force)
        self.f_body = (mass[:, None] / rho * b[None, :]).ravel()

    def initial_state(self) -> DynamicState:
        nn, ngp = self.mesh.n_nodes, self.quad.n_gauss
        state = DynamicState(u=np.zeros((nn, 3)), v=np.zeros((nn, 3)), d=np.zeros(ngp))
        u = state.u.ravel()
        u[self.bc.dofs] = self.bc.value(0.0)
        return state

    def evaluate(self, state: DynamicState, stress_fn):
        """Top-of-step kinematics and kinetics: (eps, sigma, f_int, accel)."""
        eps = self.quad.strains(state.u)
        sigma = stress_fn(state.d, eps, state.step)
        f_int = self.quad.forces(sigma)
        a = (self.f_body - f_int) / self.mass3
        if self.alpha:
            a -= self.alpha * state.v.ravel()
        a[self.bc.dofs] = self.bc.accel(state.time, self.dt)
        return eps, sigma, f_int.reshape(-1, 3), a.reshape(-1, 3)

    def advance(self, state: DynamicState, eps, accel, damage_fn) -> DynamicState:
        """One central-difference update; Dirichlet dofs are overwritten with
        the exact ramp values."""
        dt, t = self.dt, state.time
        v = state.v.ravel().copy()
        # half-step start: the very first update advances v by dt/2
        v += (0.5 * dt if state.step == 0 else dt) * accel.ravel()
        v[self.bc.dofs] = (self.bc.value(t + dt) - self.bc.value(t)) / dt
        u = state.u.ravel() + dt * v
        u[self.bc.dofs] = self.bc.value(t + dt)
        d = damage_fn(state.d, eps, state.step)
        return DynamicState(u=u.reshape(-1, 3), v=v.reshape(-1, 3), d=d,
                            time=t + dt, step=state.step + 1)


def step_at(t: float, dt: float) -> int:
    """The first step whose time reaches t (to roundoff): ceil(t/dt - 1e-9)."""
    return int(np.ceil(t / dt - 1e-9))


def _snapshot_steps(output_times, dt: float, n_steps: int) -> list[int]:
    steps = sorted({min(n_steps, step_at(t, dt)) for t in output_times})
    return [s for s in steps if s >= 0]


class Stepper:
    """One explicit simulation, driven a step at a time.

    Construction is the set-up: the engine, the snapshot and reaction
    schedules, an empty ``history`` and the initial state.  Then, for each
    step n = 0, 1, ..., ``n_steps``: ``evaluate()`` computes the top of
    step n and records its reactions (every ``force_stride`` steps and at
    the last) and its snapshot; while n < ``n_steps``, ``advance()`` takes
    the central-difference update to step n + 1 and scans for non-finite
    values every ``_NAN_CHECK_INTERVAL`` steps.  ``finish()`` checks that
    the final state is finite and returns the ``History``.

    ``run_with_kernels`` drives one stepper; ``tsm.run_tsm`` drives two in
    lockstep.
    """

    def __init__(self, mesh: Mesh, loads: LoadCase, rho: float, dt: float,
                 output_times, stress_fn, damage_fn, *,
                 quad: ElementQuadrature | None = None,
                 dirichlet_scale: float = 1.0,
                 force_stride: int = 1,
                 mass_damping: float = 0.0,
                 meta: dict | None = None):
        if force_stride < 1:
            raise ValueError(f"force_stride must be >= 1, got {force_stride}")
        self.engine = engine = ExplicitEngine(mesh, loads, rho, dt, quad=quad,
                                              dirichlet_scale=dirichlet_scale,
                                              mass_damping=mass_damping)
        self.stress_fn, self.damage_fn = stress_fn, damage_fn
        self.n_steps = n_steps = step_at(loads.total_time, dt)
        snap_steps = _snapshot_steps(output_times, dt, n_steps)
        self._snap_at = {s: i for i, s in enumerate(snap_steps)}

        nn, ngp = mesh.n_nodes, engine.quad.n_gauss
        S = len(snap_steps)
        self.history = hist = History(
            times=np.asarray([s * dt for s in snap_steps]),
            u=np.zeros((S, nn, 3)), d=np.zeros((S, ngp)), sigma=np.zeros((S, ngp, 6)),
            force_times=np.zeros(0), forces={}, dt=dt, n_steps=n_steps,
            meta=dict(meta or {}),
        )
        self._set_names = sorted({r.node_set for r in loads.dirichlet})
        self._set_sums = set_sum_operator([mesh.node_sets[name]
                                           for name in self._set_names])
        hist.meta["loaded_sets"] = sorted({r.node_set for r in loads.dirichlet
                                           if r.amplitude != 0.0})
        f_steps = [s for s in range(0, n_steps + 1)
                   if s % force_stride == 0 or s == n_steps]
        hist.force_times = np.asarray([s * dt for s in f_steps])
        self._forces = np.zeros((len(f_steps), len(self._set_names), 3))
        self._f_at = {s: i for i, s in enumerate(f_steps)}

        self.state = engine.initial_state()
        self._eps = self._accel = None

    def evaluate(self) -> np.ndarray:
        """Evaluate the current step and record its reactions and snapshot;
        returns its Gauss-point strains (ngp, 6)."""
        state, engine = self.state, self.engine
        n = state.step
        eps, sigma, f_int, a = engine.evaluate(state, self.stress_fn)
        self._eps, self._accel = eps, a
        i = self._f_at.get(n)
        if i is not None:
            self._forces[i] = reaction_sums(self._set_sums, engine.mass3, f_int, a,
                                            state.v, engine.alpha)
        i = self._snap_at.get(n)
        if i is not None:
            hist = self.history
            hist.u[i] = state.u
            hist.d[i] = state.d
            hist.sigma[i] = sigma
        return eps

    def advance(self) -> None:
        """The central-difference update from the evaluated step."""
        self.state = state = self.engine.advance(self.state, self._eps, self._accel,
                                                 self.damage_fn)
        if state.step % _NAN_CHECK_INTERVAL == 0 and not np.isfinite(state.u.sum()):
            raise InstabilityError(state.step, state.time)

    def finish(self) -> History:
        """The history, once the final state is checked to be finite."""
        state = self.state
        if not np.isfinite(state.u).all():
            raise InstabilityError(state.step, state.time)
        hist = self.history
        hist.forces = {name: self._forces[:, k].copy()
                       for k, name in enumerate(self._set_names)}
        return hist


def run_with_kernels(mesh: Mesh, loads: LoadCase, rho: float, dt: float,
                     output_times, stress_fn, damage_fn, *,
                     quad: ElementQuadrature | None = None,
                     dirichlet_scale: float = 1.0,
                     exchange_hook=None,
                     force_stride: int = 1,
                     mass_damping: float = 0.0,
                     meta: dict | None = None) -> History:
    """Integrate to ``loads.total_time`` recording snapshots, per-set reaction
    forces every ``force_stride`` steps, and (optionally) feeding every step's
    Gauss state to ``exchange_hook(step, time, eps, d)``."""
    t0 = _time.perf_counter()
    stepper = Stepper(mesh, loads, rho, dt, output_times, stress_fn, damage_fn,
                      quad=quad, dirichlet_scale=dirichlet_scale,
                      force_stride=force_stride, mass_damping=mass_damping, meta=meta)
    n_steps = stepper.n_steps
    for n in range(n_steps + 1):
        eps = stepper.evaluate()
        if exchange_hook is not None:
            exchange_hook(n, stepper.state.time, eps, stepper.state.d)
        if n < n_steps:
            stepper.advance()
    hist = stepper.finish()
    hist.wall_time = _time.perf_counter() - t0
    return hist


def deterministic_kernels(params: MaterialParams, xi: float,
                          dt: float) -> DeterministicKernels:
    """The step callbacks of the realization with stiffness (1 + xi) * E0.

    The damage driver uses the same scaled stiffness, i.e. the actual
    realization's free energy.
    """
    if 1.0 + xi <= 0.0:
        raise ValueError(f"1 + xi must be positive, got xi={xi}")
    return DeterministicKernels((1.0 + xi) * params.stiffness, params.eta, dt)


def run_deterministic(mesh: Mesh, loads: LoadCase, params: MaterialParams,
                      xi: float, dt: float, output_times, *,
                      quad: ElementQuadrature | None = None,
                      exchange_hook=None, force_stride: int = 1,
                      mass_damping: float = 0.0) -> History:
    """Full deterministic run with stiffness (1 + xi) * E0 (see
    ``deterministic_kernels``)."""
    kern = deterministic_kernels(params, xi, dt)
    return run_with_kernels(mesh, loads, params.rho, dt, output_times,
                            kern.stress, kern.damage, quad=quad,
                            exchange_hook=exchange_hook, force_stride=force_stride,
                            mass_damping=mass_damping,
                            meta={"xi": xi, "kind": "deterministic"})
