"""Isotropic elasticity and the viscous damage law.  ``Order0Law`` and its
exact first-order sensitivity ``Order1Law`` are the only code that evaluates
the law: simulations call them every step, the ``*_order0/1`` functions
wrap them.

Conventions
-----------
Voigt order is (xx, yy, zz, yz, xz, xy) with *engineering* shear strains
(gamma = 2*eps_ij); the stiffness matrix below is written for that pairing,
so ``eps @ E @ eps`` equals the tensor double contraction everywhere.

All Gauss-point operations are vectorized: damage arrays have shape (n,),
strain/stress arrays shape (n, 6).
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
        if min(self.lam, self.mu, self.rho, self.eta) <= 0.0:
            raise ValueError("lam, mu, rho, eta must all be positive")

    @property
    def young(self) -> float:
        return self.mu * (3.0 * self.lam + 2.0 * self.mu) / (self.lam + self.mu)

    @property
    def poisson(self) -> float:
        return self.lam / (2.0 * (self.lam + self.mu))

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
    reduction machinery, which costs about 3x as much per call."""
    p = a * b
    return ((((p[..., 0] + p[..., 1]) + p[..., 2]) + p[..., 3]) + p[..., 4]) + p[..., 5]


def _psi(eps, s) -> np.ndarray:
    """Strain energy density 0.5 * eps : s from the elastic stress s = E : eps."""
    return 0.5 * _dot6(np.asarray(eps), s)


def free_energy(eps: np.ndarray, E0: np.ndarray) -> np.ndarray:
    """Undamaged strain energy density 0.5 * eps : E0 : eps (>= 0).

    ``eps`` may be a single 6-vector or an (n, 6) batch.
    """
    eps = np.asarray(eps)
    return _psi(eps, eps @ E0.T)


class Order0Law:
    """Order-0 law for one stiffness E, as the solver's per-step callbacks:
    stress exp(-d) * E : eps and the forward-Euler damage step
    d + dt * exp(-d) * Psi(eps) / eta, which never decreases d.  The two
    calls of a step share exp(-d) and E : eps.
    """

    def __init__(self, E: np.ndarray, eta: float, dt: float):
        self.E = E
        self.eta = eta
        self.dt = dt
        self._step = -1

    def _prep(self, d, eps, step):
        if step != self._step:
            self._expd = np.exp(-np.asarray(d))
            self._s = np.asarray(eps) @ self.E.T
            self._step = step

    def stress(self, d, eps, step):
        self._prep(d, eps, step)
        return self._expd[..., None] * self._s

    def damage(self, d, eps, step):
        self._prep(d, eps, step)
        return d + self.dt * (self._expd * _psi(eps, self._s) / self.eta)


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

    def hold(self, eps0, d0) -> "Order1Law":
        self.expd0 = np.exp(-np.asarray(d0))
        self.s0 = np.asarray(eps0) @ self.E0.T
        self.psi0 = _psi(eps0, self.s0)
        return self

    def stress(self, d1, eps1):
        s1 = np.asarray(eps1) @ self.E0.T
        return self.expd0[..., None] * ((1.0 - np.asarray(d1))[..., None] * self.s0 + s1)

    def rate(self, d1, eps1):
        cross = _dot6(np.asarray(eps1), self.s0)
        return self.expd0 / self.eta * ((1.0 - d1) * self.psi0 + cross)

    def damage(self, d1, eps1):
        """One forward-Euler step of d1."""
        return d1 + self.dt * self.rate(d1, eps1)


def update_damage_order0(d0, eps0, dt, E0, eta):
    """One forward-Euler step of the damage evolution; never decreases."""
    return Order0Law(E0, eta, dt).damage(d0, eps0, 0)


def damage_rate_order1(d0, d1, eps0, eps1, E0, eta):
    """Rate of the first-order damage coefficient d1 = dd/dxi at xi = 0."""
    return Order1Law(E0, eta, 0.0).hold(eps0, d0).rate(d1, eps1)


def update_damage_order1(d0, d1, eps0, eps1, dt, E0, eta):
    """Forward-Euler step of the first-order damage coefficient."""
    return Order1Law(E0, eta, dt).hold(eps0, d0).damage(d1, eps1)


def stress_order0(d0, eps0, E0):
    """Damaged stress exp(-d0) * E0 : eps0 (order-0 / deterministic law)."""
    return Order0Law(E0, 1.0, 0.0).stress(d0, eps0, 0)


def stress_order1(d0, d1, eps0, eps1, E0):
    """First-order stress dsigma/dxi at xi = 0."""
    return Order1Law(E0, 1.0, 0.0).hold(eps0, d0).stress(d1, eps1)
