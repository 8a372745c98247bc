"""Explicit central-difference structural dynamics on hexahedral meshes.

The element loop is flattened into two pre-assembled sparse operators:
``strain_op`` maps the global displacement vector to all Gauss-point strains
(engineering shear), and ``force_op`` maps weighted Gauss-point stresses back
to nodal internal forces.  Both store only the structural nonzeros of the
strain-displacement matrix B, 72 per Gauss point (8 in each normal-strain
row, 16 in each shear row, columns ascending), so a product spends no work
on ``0 * x`` terms.  Stress and damage laws enter as per-Gauss-point
callbacks, so the deterministic and the first-order (sensitivity) problems
share one integrator.

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


class InstabilityError(RuntimeError):
    """Non-finite values appeared during time integration."""

    def __init__(self, step: int, time: float, xi: float | None = None):
        tag = "" if xi is None else f" (sample xi={xi:.6g})"
        super().__init__(f"non-finite state at step {step} (t={time:.6g} s){tag}")
        self.step = step
        self.time = time
        self.xi = xi


@dataclass
class ElementQuadrature:
    """Per-element 2x2x2 Gauss data plus the assembled global operators."""

    detJw: np.ndarray  # (nelem, 8) Jacobian determinant * weight
    strain_op: sp.csr_matrix  # (6*ngp, ndof): u -> all strains
    force_op: sp.csr_matrix  # (ndof, 6*ngp): weighted stress -> f_int
    n_gauss: int

    @classmethod
    def build(cls, mesh: Mesh) -> "ElementQuadrature":
        coords = mesh.element_coords()
        ne = mesh.n_elements
        J = np.einsum("gai,eaj->egij", hexa.DN_AT_GP, coords)
        detJ = np.linalg.det(J)
        if (detJ <= 0.0).any():
            e = int(np.nonzero((detJ <= 0.0).any(axis=1))[0][0])
            raise ValueError(f"element {e} has non-positive Jacobian")
        Jinv = np.linalg.inv(J)
        # dN_a/dx_j at each Gauss point of each element
        dNdx = np.einsum("gak,egkj->egaj", hexa.DN_AT_GP, Jinv)

        detJw = detJ * hexa.GAUSS_WEIGHTS[None, :]
        ngp = 8 * ne
        ndof = 3 * mesh.n_nodes

        # only the 9 structural nonzeros per node of each 6x24 B block
        data = dNdx[..., _B_DERIV]  # (ne, 8 gp, 8 nodes, 9)
        rows = 6 * np.arange(ngp).reshape(ne, 8, 1, 1) + _B_ROW
        cols = 3 * mesh.elements[:, None, :, None] + _B_AXIS
        strain_op = sp.coo_matrix(
            (data.ravel(), (np.broadcast_to(rows, data.shape).ravel(),
                            np.broadcast_to(cols, data.shape).ravel())),
            shape=(6 * ngp, ndof),
        ).tocsr()
        w_rows = np.repeat(detJw.reshape(ngp), 6)
        force_op = strain_op.multiply(w_rows[:, None]).T.tocsr()
        return cls(detJw=detJw, strain_op=strain_op, force_op=force_op, n_gauss=ngp)

    def strains(self, u: np.ndarray) -> np.ndarray:
        """Gauss-point strains (ngp, 6) from nodal displacements (nn, 3)."""
        return (self.strain_op @ u.ravel()).reshape(self.n_gauss, 6)

    def element_volumes(self) -> np.ndarray:
        return self.detJw.sum(axis=1)


def lumped_mass(mesh: Mesh, rho: float, quad: ElementQuadrature | None = None) -> np.ndarray:
    """Row-sum lumped nodal masses (kg), one entry per node.

    The total equals rho times the quadrature volume exactly.
    """
    if rho <= 0.0:
        raise ValueError("density must be positive")
    quad = quad or ElementQuadrature.build(mesh)
    vol = quad.element_volumes()
    if (vol <= 0.0).any():
        raise ValueError(f"element {int(np.argmin(vol))} has non-positive volume")
    # per element-node weight: sum_g N[g, a] * detJw[e, g]
    w = np.einsum("ga,eg->ea", hexa.N_AT_GP, quad.detJw)
    return rho * np.bincount(mesh.elements.ravel(), weights=w.ravel(),
                             minlength=mesh.n_nodes)


def internal_force(mesh: Mesh, quad: ElementQuadrature, stress: np.ndarray) -> np.ndarray:
    """Assemble nodal internal forces (nn, 3) from Gauss-point stresses (ngp, 6)."""
    stress = np.asarray(stress)
    if stress.shape != (quad.n_gauss, 6):
        raise ValueError(f"stress must have shape ({quad.n_gauss}, 6)")
    return (quad.force_op @ stress.ravel()).reshape(mesh.n_nodes, 3)


def stable_timestep(mesh: Mesh, params: MaterialParams, safety: float = 0.5) -> float:
    """CFL-style step estimate: safety * min element edge / wave speed."""
    coords = mesh.element_coords()
    edges = np.stack([np.linalg.norm(coords[:, a] - coords[:, b], axis=1)
                      for a, b in _EDGES], axis=1)
    v = characteristic_scales(params)["wave_speed"]
    return float(safety * edges.min() / v)


def set_sum_operator(node_sets, n_nodes: int) -> sp.csr_matrix:
    """Sparse (3 * len(node_sets), 3 * n_nodes) 0/1 matrix: rows 3k, 3k+1
    and 3k+2 sum the x, y and z entries of a nodal vector over node_sets[k]."""
    ids = [np.asarray(n, dtype=np.int64) for n in node_sets]
    nodes = np.concatenate([np.zeros(0, dtype=np.int64), *ids])
    owner = np.repeat(np.arange(len(ids)), [n.size for n in ids])
    rows = (3 * owner[:, None] + np.arange(3)).ravel()
    cols = (3 * nodes[:, None] + np.arange(3)).ravel()
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                         shape=(3 * len(ids), 3 * n_nodes))


def reaction_sums(sum_op: sp.csr_matrix, mass3: np.ndarray, f_int: np.ndarray,
                  accel: np.ndarray, velocity: np.ndarray | None = None,
                  mass_damping: float = 0.0) -> np.ndarray:
    """Reactions (n_sets, 3): internal plus inertial (plus damping, when
    active) nodal forces, summed per set by ``set_sum_operator``.

    Each term is summed on its own, over the set's nodes in ascending
    order, before the terms are added; summing the combined nodal vector
    instead moves finite-difference quotients of reactions by roundoff
    amplified 1/(2h)."""
    r = sum_op @ f_int.ravel() + sum_op @ (mass3 * accel.ravel())
    if mass_damping and velocity is not None:
        r = r + mass_damping * (sum_op @ (mass3 * velocity.ravel()))
    return r.reshape(-1, 3)


def reaction_force(mesh: Mesh, quad: ElementQuadrature, mass: np.ndarray,
                   sigma: np.ndarray, accel: np.ndarray, node_set: np.ndarray,
                   velocity: np.ndarray | None = None,
                   mass_damping: float = 0.0) -> np.ndarray:
    """Reaction = internal plus inertial (plus damping, when active) nodal
    forces summed over a node set."""
    node_set = np.asarray(node_set)
    if node_set.size == 0:
        raise ValueError("reaction requested on an empty node set")
    f_int = internal_force(mesh, quad, sigma)
    return reaction_sums(set_sum_operator([node_set], mesh.n_nodes),
                         np.repeat(mass, 3), f_int, accel, velocity, mass_damping)[0]


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
        f_int = self.quad.force_op @ sigma.ravel()
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


def _snapshot_steps(output_times, dt: float, n_steps: int) -> list[int]:
    steps = sorted({min(n_steps, int(np.ceil(t / dt - 1e-9))) for t in output_times})
    return [s for s in steps if s >= 0]


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
    if force_stride < 1:
        raise ValueError(f"force_stride must be >= 1, got {force_stride}")
    t0 = _time.perf_counter()
    engine = ExplicitEngine(mesh, loads, rho, dt, quad=quad,
                            dirichlet_scale=dirichlet_scale,
                            mass_damping=mass_damping)
    n_steps = int(np.ceil(loads.total_time / dt - 1e-9))
    snap_steps = _snapshot_steps(output_times, dt, n_steps)
    snap_at = {s: i for i, s in enumerate(snap_steps)}

    nn, ngp = mesh.n_nodes, engine.quad.n_gauss
    S = len(snap_steps)
    hist = History(
        times=np.asarray([s * dt for s in snap_steps]),
        u=np.zeros((S, nn, 3)), d=np.zeros((S, ngp)), sigma=np.zeros((S, ngp, 6)),
        force_times=np.zeros(0), forces={}, dt=dt, n_steps=n_steps,
        meta=dict(meta or {}),
    )
    set_names = sorted({r.node_set for r in loads.dirichlet})
    sum_op = set_sum_operator([mesh.node_sets[name] for name in set_names], nn)
    hist.meta["loaded_sets"] = sorted({r.node_set for r in loads.dirichlet
                                       if r.amplitude != 0.0})
    f_steps = [s for s in range(0, n_steps + 1) if s % force_stride == 0 or s == n_steps]
    hist.force_times = np.asarray([s * dt for s in f_steps])
    forces = np.zeros((len(f_steps), len(set_names), 3))
    f_at = {s: i for i, s in enumerate(f_steps)}

    state = engine.initial_state()
    while True:
        n = state.step
        eps, sigma, f_int, a = engine.evaluate(state, stress_fn)
        if exchange_hook is not None:
            exchange_hook(n, state.time, eps, state.d)
        if n in f_at:
            forces[f_at[n]] = reaction_sums(sum_op, engine.mass3, f_int, a,
                                            state.v, engine.alpha)
        if n in snap_at:
            i = snap_at[n]
            hist.u[i] = state.u
            hist.d[i] = state.d
            hist.sigma[i] = sigma
        if n >= n_steps:
            break
        state = engine.advance(state, eps, a, damage_fn)
        if state.step % _NAN_CHECK_INTERVAL == 0 and not np.isfinite(state.u.sum()):
            raise InstabilityError(state.step, state.time)
    if not np.isfinite(state.u).all():
        raise InstabilityError(state.step, state.time)
    hist.forces = {name: forces[:, k].copy() for k, name in enumerate(set_names)}
    hist.wall_time = _time.perf_counter() - t0
    return hist


def run_deterministic(mesh: Mesh, loads: LoadCase, params: MaterialParams,
                      xi: float, dt: float, output_times, *,
                      quad: ElementQuadrature | None = None,
                      exchange_hook=None, force_stride: int = 1,
                      mass_damping: float = 0.0) -> History:
    """Full deterministic run with stiffness (1 + xi) * E0.

    The damage driver uses the same scaled stiffness, i.e. the actual
    realization's free energy.
    """
    if 1.0 + xi <= 0.0:
        raise ValueError(f"1 + xi must be positive, got xi={xi}")
    kern = DeterministicKernels((1.0 + xi) * params.stiffness, params.eta, dt)
    return run_with_kernels(mesh, loads, params.rho, dt, output_times,
                            kern.stress, kern.damage, quad=quad,
                            exchange_hook=exchange_hook, force_stride=force_stride,
                            mass_damping=mass_damping,
                            meta={"xi": xi, "kind": "deterministic"})
