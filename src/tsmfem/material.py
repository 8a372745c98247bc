"""Isotropic elasticity and the viscous damage law.  ``Order0Law`` and its
exact first-order sensitivity ``Order1Law`` are the only code that evaluates
the law; simulations call them every step.

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
``eps @ E.T``).
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


def _dot6(a, b) -> np.ndarray:
    """a : b over the last (Voigt) axis, added left to right: bitwise what
    ``(a * b).sum(axis=-1)`` gives for 6 terms, without numpy's generic
    reduction machinery, which costs about 3x as much per call on C-ordered
    (n, 6) arrays (on the engine's component-major ones it is the faster)."""
    p = a * b
    return ((((p[..., 0] + p[..., 1]) + p[..., 2]) + p[..., 3]) + p[..., 4]) + p[..., 5]


def _elastic(E, eps) -> np.ndarray:
    """E : eps for (n, 6) strains, component-major."""
    return (E @ np.asarray(eps).T).T


def free_energy(eps: np.ndarray, E0: np.ndarray) -> np.ndarray:
    """Undamaged strain energy density 0.5 * eps : E0 : eps (>= 0).

    ``eps`` may be a single 6-vector or an (n, 6) batch.
    """
    eps = np.asarray(eps)
    return 0.5 * _dot6(eps, eps @ E0.T)


def _law_products(E, d, eps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-d), E : eps and eps : E : eps (twice the strain energy) of one
    state, the products both laws read; the Voigt reduction adds the same
    terms in the same order as ``_dot6``, and on the engine's
    component-major strains takes less time."""
    eps = np.asarray(eps)
    expd = np.negative(d)
    np.exp(expd, out=expd)
    s = _elastic(E, eps)
    return expd, s, np.add.reduce(eps * s, axis=-1)


class Order0Law:
    """Order-0 law for one stiffness E, as the solver's per-step callbacks:
    stress exp(-d) * E : eps and the forward-Euler damage step
    d + dt * exp(-d) * Psi(eps) / eta, which never decreases d, formed as
    d + (0.5 * dt / eta) * (exp(-d) * eps : E : eps).  The two calls of a
    step share exp(-d), E : eps and eps : E : eps (``products``).
    """

    def __init__(self, E: np.ndarray, eta: float, dt: float):
        self.E = E
        self.eta = eta
        self.dt = dt
        self._rate_dt = 0.5 * dt / eta
        self._step = -1

    def _prep(self, d, eps, step):
        if step != self._step:
            self._expd, self._s, self._energy2 = _law_products(self.E, d, eps)
            self._step = step

    def products(self, d, eps, step) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exp(-d), E : eps, eps : E : eps) of the state (d, eps) of
        ``step``, formed once per step and never changed afterwards: what
        ``Order1Law.hold`` reads."""
        self._prep(d, eps, step)
        return self._expd, self._s, self._energy2

    def stress(self, d, eps, step):
        self._prep(d, eps, step)
        return (self._expd * self._s.T).T

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

        sigma1 = exp(-d0) * [ (1 - d1) * E0 : eps0 + E0 : eps1 ]
        d1'    = exp(-d0) / eta * [ (1 - d1) * Psi0(eps0) + eps1 : E0 : eps0 ]

    (The cross term carries no 1/2: d/dxi of the quadratic form doubles it.)
    """

    def __init__(self, E0: np.ndarray, eta: float, dt: float):
        self.E0 = E0
        self.eta = eta
        self.dt = dt
        self.expd0 = self.s0 = self.psi0 = None
        self._d1 = self._omd1 = None

    def hold(self, eps0, d0, products=None) -> "Order1Law":
        """Hold the order-0 state (eps0, d0).  ``products``, when given, is
        ``Order0Law.products`` of that state at the stiffness E0, whose
        arrays are held as they are; otherwise the same operations form
        them here, so either way the bits are the same."""
        if products is None:
            products = _law_products(self.E0, d0, eps0)
        self.expd0, self.s0, energy2 = products
        self._expd0_eta = self.expd0 / self.eta
        self.psi0 = 0.5 * energy2
        return self

    def _one_minus(self, d1) -> np.ndarray:
        """1 - d1, formed once for the stress and damage calls of a step,
        which pass the same d1 array (the engine never changes one in
        place)."""
        if d1 is not self._d1:
            self._d1, self._omd1 = d1, 1.0 - np.asarray(d1)
        return self._omd1

    def stress(self, d1, eps1):
        s = self._one_minus(d1) * self.s0.T
        s += _elastic(self.E0, eps1).T
        s *= self.expd0
        return s.T

    def rate(self, d1, eps1):
        r = self._one_minus(d1) * self.psi0
        r += np.add.reduce(np.asarray(eps1) * self.s0, axis=-1)  # as _law_products
        r *= self._expd0_eta
        return r

    def damage(self, d1, eps1):
        """One forward-Euler step of d1."""
        r = self.rate(d1, eps1)
        r *= self.dt
        r += d1
        return r
