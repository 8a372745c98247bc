"""Isotropic elasticity and the viscous damage law.  ``Order0Law`` and its
exact first-order sensitivity ``Order1Law`` are the only code that evaluates
the law; simulations call them every step.  Each law forms its own products
of the state it reads: order 1 receives only order 0's strain and damage
(``Order1Law.hold``), whichever way they are exchanged.

Conventions
-----------
Voigt order is (xx, yy, zz, yz, xz, xy) with *engineering* shear strains
(gamma = 2*eps_ij); the stiffness matrix below is written for that pairing,
so ``eps @ E @ eps`` equals the tensor double contraction everywhere.

All Gauss-point operations are vectorized: damage arrays have shape (n,),
strain/stress arrays shape (n, 6).  The laws accept strains in any memory
order and return component-major stresses (the transpose of a C-ordered
(6, n) array), so each elementwise pass runs along rows of n entries; the
values do not depend on the order (``(E @ eps.T).T`` is the same dgemm as
``eps @ E.T``, and ``_contract`` copies a Gauss-point-major operand into
component-major order before it sums).  A step of either law allocates its
results and nothing of full (n, 6) size beside them: the Voigt contractions
form no product array, and each stress is scaled in the output of its 6x6
product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def stiffness_voigt(lam: float, mu: float) -> np.ndarray:
    """Isotropic 6x6 Voigt stiffness for engineering shear strains.

    Parameters
    ----------
    lam, mu : float
        Lame parameters in Pa, both > 0 (mu > 0 and lam >= 0 admitted;
        the normal diagonal is lam + 2*mu, the shear diagonal mu).
    """
    if mu <= 0.0 or lam < 0.0:
        raise ValueError(f"non-positive moduli: lam={lam}, mu={mu}")
    E = np.zeros((6, 6))
    E[:3, :3] = lam
    E[np.diag_indices(3)] = lam + 2.0 * mu
    E[3, 3] = E[4, 4] = E[5, 5] = mu
    return E


@dataclass(frozen=True)
class MaterialParams:
    """Deterministic mean material: Lame parameters, density, viscosity.

    The random stiffness is (1 + xi) * E0 with a zero-mean scalar xi.
    """

    lam: float
    mu: float
    rho: float
    eta: float

    def __post_init__(self):
        if not all(0.0 < x < np.inf for x in (self.lam, self.mu, self.rho, self.eta)):
            raise ValueError("lam, mu, rho, eta must all be finite and positive")

    @property
    def young(self) -> float:
        return self.mu * (3.0 * self.lam + 2.0 * self.mu) / (self.lam + self.mu)

    @property
    def stiffness(self) -> np.ndarray:
        """Mean Voigt stiffness E0 (symmetric positive definite)."""
        return stiffness_voigt(self.lam, self.mu)


def characteristic_scales(params: MaterialParams) -> dict[str, float]:
    """Young's modulus, longitudinal wave speed, viscous internal length,
    and characteristic time of the damage regularization.

    Returns a dict with keys 'young_E', 'wave_speed', 'internal_length',
    'char_time'; the identities l_v = v * tau0 and tau0 = eta / E hold.
    """
    E = params.young
    v = np.sqrt(E / params.rho)
    return {
        "young_E": E,
        "wave_speed": v,
        "internal_length": params.eta / np.sqrt(E * params.rho),
        "char_time": params.eta / E,
    }


def _contract(a, b) -> np.ndarray:
    """a : b over the Voigt axis of two (n, 6) arrays in one pass:
    ((((0 + a0 b0) + a1 b1) + ...) + a5 b5) per point, the sum numpy's
    add reduction of the products gives, without forming an (n, 6) array
    of products.

    Both operands are brought into component-major (6, n) C order first (a
    copy only of a Gauss-point-major one), where numpy's einsum adds the
    six rows into the result one after another.  It would sum a single
    point's six products with SIMD partial sums instead, so one point is
    contracted as two equal points."""
    if len(a) == 1:
        return _contract(np.repeat(a, 2, axis=0), np.repeat(b, 2, axis=0))[:1]
    return np.einsum("ij,ij->j", np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))


def _elastic(E, eps) -> np.ndarray:
    """E : eps for (n, 6) strains, component-major."""
    return (E @ np.asarray(eps).T).T


def free_energy(eps: np.ndarray, E0: np.ndarray) -> np.ndarray:
    """Undamaged strain energy density 0.5 * eps : E0 : eps (>= 0).

    ``eps`` may be a single 6-vector or an (n, 6) batch.
    """
    eps = np.asarray(eps)
    points = eps.reshape(-1, 6)
    return 0.5 * _contract(points, points @ E0.T).reshape(eps.shape[:-1])


def _law_products(E, d, eps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-d), E : eps (component-major) and eps : E : eps (twice the
    strain energy) of one state, the products both laws read; the energy is
    ``_contract``'s one-pass sum."""
    eps = np.asarray(eps)
    expd = np.negative(d)
    np.exp(expd, out=expd)
    s = _elastic(E, eps)
    return expd, s, _contract(eps, s)


class Order0Law:
    """Order-0 law for one stiffness E, as the solver's per-step callbacks:
    stress exp(-d) * E : eps and the forward-Euler damage step
    d + dt * exp(-d) * Psi(eps) / eta, which never decreases d, formed as
    d + (0.5 * dt / eta) * (exp(-d) * eps : E : eps).  The two calls of a
    step share exp(-d), E : eps and eps : E : eps, formed once per step.

    The first ``stress`` of a step scales that step's E : eps in place into
    the stress; a second one in the same step forms E : eps again.  So the
    caller owns each stress.
    """

    def __init__(self, E: np.ndarray, eta: float, dt: float):
        self.E = E
        self._rate_dt = 0.5 * dt / eta
        self._step = -1

    def _prep(self, d, eps, step):
        if step != self._step:
            self._expd, self._s, self._energy2 = _law_products(self.E, d, eps)
            self._step = step

    def stress(self, d, eps, step):
        """exp(-d) * E : eps, scaled in the array that holds the step's
        E : eps, or in a new one once the step's stress has consumed it."""
        self._prep(d, eps, step)
        s, self._s = self._s, None
        if s is None:
            s = _elastic(self.E, eps)
        rows = s.T  # (6, n), C-ordered
        rows *= self._expd
        return s

    def damage(self, d, eps, step):
        """d + (0.5 * dt / eta) * (exp(-d) * eps : E : eps), into a new
        array."""
        self._prep(d, eps, step)
        r = self._energy2 * self._expd
        r *= self._rate_dt
        r += d
        return r


class Order1Law:
    """Order-1 law: the exact xi-derivative of ``Order0Law`` with stiffness
    (1 + xi) * E0 at xi = 0, for the order-0 state ``hold(eps0, d0)`` caches.

        sigma1 = exp(-d0) * [ E0 : eps1 + (1 - d1) * E0 : eps0 ]
        d1'    = exp(-d0) / eta * [ (1 - d1) * Psi0(eps0) + eps1 : E0 : eps0 ]

    (The cross term carries no 1/2: d/dxi of the quadratic form doubles it.)
    ``hold`` forms exp(-d0), E0 : eps0 and Psi0 from the strain and damage
    alone, as one order-0 step would, and the law owns those arrays.  The
    stress is formed in the output of its 6x6 product; (1 - d1) * E0 : eps0
    goes through a scratch array the law keeps between steps.
    """

    def __init__(self, E0: np.ndarray, eta: float, dt: float):
        self.E0 = E0
        self.eta = eta
        self.dt = dt
        self.expd0 = self.s0 = self.psi0 = None
        self._d1 = self._omd1 = None
        self._scratch = np.empty((6, 0))

    def hold(self, eps0, d0) -> "Order1Law":
        """Hold the order-0 state (eps0, d0): form and keep exp(-d0),
        E0 : eps0 and Psi0(eps0), read by every step until the next hold."""
        self.expd0, self.s0, psi0 = _law_products(self.E0, d0, eps0)
        self._expd0_eta = self.expd0 / self.eta
        psi0 *= 0.5
        self.psi0 = psi0
        return self

    def _one_minus(self, d1) -> np.ndarray:
        """1 - d1, formed once for the stress and damage calls of a step,
        which pass the same d1 array (the engine never changes one in
        place)."""
        if d1 is not self._d1:
            self._d1, self._omd1 = d1, 1.0 - np.asarray(d1)
        return self._omd1

    def stress(self, d1, eps1):
        s = _elastic(self.E0, eps1)
        rows = s.T  # (6, n), C-ordered
        if self._scratch.shape != rows.shape:
            self._scratch = np.empty_like(rows)
        rows += np.multiply(self._one_minus(d1), self.s0.T, out=self._scratch)
        rows *= self.expd0
        return s

    def rate(self, d1, eps1):
        r = self._one_minus(d1) * self.psi0
        r += _contract(np.asarray(eps1), self.s0)
        r *= self._expd0_eta
        return r

    def damage(self, d1, eps1):
        """One forward-Euler step of d1."""
        r = self.rate(d1, eps1)
        r *= self.dt
        r += d1
        return r
