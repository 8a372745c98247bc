"""Isotropic elasticity and the viscous damage law, including the first-order
(sensitivity) stress and damage updates used by the time-separated scheme.

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
    """Deterministic mean material: Lame parameters, density, viscosity,
    and the second moment of the stiffness fluctuation variable.

    The random stiffness is (1 + xi) * E0 with a zero-mean scalar xi;
    ``xi_second_moment`` is <xi^2> used by the uncertainty post-processing.
    """

    lam: float
    mu: float
    rho: float
    eta: float
    xi_second_moment: float = 0.0

    def __post_init__(self):
        if min(self.lam, self.mu, self.rho, self.eta) <= 0.0:
            raise ValueError("lam, mu, rho, eta must all be positive")
        if self.xi_second_moment < 0.0:
            raise ValueError("xi_second_moment must be >= 0")
        if self.xi_second_moment > 0.0 and np.sqrt(self.xi_second_moment) >= 1.0:
            raise ValueError("sqrt(<xi^2>) must stay below 1 so 1+xi is plausible")

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


def free_energy(eps: np.ndarray, E0: np.ndarray) -> np.ndarray:
    """Undamaged strain energy density 0.5 * eps : E0 : eps (>= 0).

    ``eps`` may be a single 6-vector or an (n, 6) batch.
    """
    eps = np.asarray(eps)
    return 0.5 * (eps * (eps @ E0.T)).sum(axis=-1)


def damage_rate_order0(d0, eps0, E0, eta):
    """Viscous damage rate exp(-d0) * Psi0(eps0) / eta."""
    return np.exp(-d0) * free_energy(eps0, E0) / eta


def update_damage_order0(d0, eps0, dt, E0, eta):
    """One forward-Euler step of the damage evolution; never decreases."""
    return d0 + dt * damage_rate_order0(d0, eps0, E0, eta)


def damage_rate_order1(d0, d1, eps0, eps1, E0, eta):
    """Rate of the first-order damage coefficient d1 = dd/dxi at xi = 0.

    Exact xi-derivative of the damage evolution with stiffness (1+xi)E0:

        d1' = exp(-d0)/eta * [ (1 - d1) * Psi0(eps0) + eps1 : E0 : eps0 ]

    (The cross term carries no 1/2: d/dxi of the quadratic form doubles it.)
    """
    s0 = np.asarray(eps0) @ E0.T
    psi0 = 0.5 * (np.asarray(eps0) * s0).sum(axis=-1)
    cross = (np.asarray(eps1) * s0).sum(axis=-1)
    return np.exp(-d0) / eta * ((1.0 - d1) * psi0 + cross)


def update_damage_order1(d0, d1, eps0, eps1, dt, E0, eta):
    """Forward-Euler step of the first-order damage coefficient."""
    return d1 + dt * damage_rate_order1(d0, d1, eps0, eps1, E0, eta)


def stress_order0(d0, eps0, E0):
    """Damaged stress exp(-d0) * E0 : eps0 (order-0 / deterministic law)."""
    s = np.asarray(eps0) @ E0.T
    return np.exp(-np.asarray(d0))[..., None] * s


def stress_order1(d0, d1, eps0, eps1, E0):
    """First-order stress dsigma/dxi at xi = 0:

        exp(-d0) * [ (1 - d1) * E0 : eps0 + E0 : eps1 ]
    """
    s0 = np.asarray(eps0) @ E0.T
    s1 = np.asarray(eps1) @ E0.T
    d1 = np.asarray(d1)
    return np.exp(-np.asarray(d0))[..., None] * ((1.0 - d1)[..., None] * s0 + s1)
