"""Second-order echo expansions and the two-level avoided-crossing toy model.

The second-order echo formula used throughout is

    L(t) ~= 1 - 2 eps^2 sum_{a>=1} |V_0a|^2 (1 - cos((E_a-E_0) t)) / (E_a-E_0)^2,

with V_0a = <a|V|0> taken in the eigenbasis of the unperturbed Hamiltonian.
Terms with a vanishing denominator (degenerate ground manifold) enter with
their finite analytic limit (1 - cos(x t))/x^2 -> t^2/2, so the formulas are
usable at exact crossings as well.

The expansions read a decomposition and V in one basis, whatever it is, and
only through |V_0a|^2. V is a Hermitian matrix or, when diagonal, the 1-D
array of its diagonal. The scans pass the reflection-even decomposition of
`dynamics.even_spectral_for`, whose vectors stay in the even basis, and the
diagonal of V = -sum_i sigma_z^i there (`dynamics.even_field_perturbation`).

Low-frequency Fourier components of the finite-time echo track the
ground-state sensitivity to the control parameter (a susceptibility-style
quantity); no transform of that kind is implemented here, the scans expose
the raw L(t) values instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SpectralDecomposition
from .states import HermitianOperator

DEGENERACY_TOL = 1e-10
GROUP_TOL = 1e-8  # width of a level cluster in echo_two_level
WEIGHT_TOL = 1e-12  # coupling weight below which echo_two_level skips a cluster


class DegenerateGapError(ValueError):
    """The ground level is degenerate; use the full perturbative sum."""


def _power(x: float, p: float, name: str) -> float:
    """x**p, or a ValueError naming the power where it overflows: a float's ** raises an
    OverflowError there, which is not a ValueError."""
    try:
        return x**p
    except OverflowError:
        raise ValueError(f"{name} overflows a float: {x!r}**{p!r}") from None


def _coupling_to_ground(spec: SpectralDecomposition, v: np.ndarray) -> np.ndarray:
    """Vector of <a|V|0> over all eigenstates a; V is a Hermitian matrix or its 1-D diagonal."""
    ground = spec.ground_vector
    return spec.coefficients(v * ground if np.ndim(v) == 1 else v @ ground)


def echo_perturbative(spec: SpectralDecomposition, v: np.ndarray, epsilon: float, t: float) -> float:
    """Second-order echo; exact ground state of the decomposed H as reference."""
    v0a = _coupling_to_ground(spec, v)
    de = spec.eigenvalues - spec.eigenvalues[0]
    safe = np.where(np.abs(de) <= DEGENERACY_TOL, 1.0, de)
    weights = np.where(
        np.abs(de) <= DEGENERACY_TOL, 0.5 * t * t, (1.0 - np.cos(de * t)) / safe**2
    )
    eps_sq = _power(epsilon, 2, "epsilon**2")
    return float(1.0 - 2.0 * eps_sq * np.sum(np.abs(v0a[1:]) ** 2 * weights[1:]))


def echo_two_level(spec: SpectralDecomposition, v: np.ndarray, epsilon: float, t: float) -> float:
    """Echo truncated to the lowest excited level that couples to the ground state.

    L ~= 1 - 2 (|V_01|^2 / Delta^2) eps^2 (1 - cos(Delta t)), with |V_01|^2
    summed over the degenerate cluster (width ``GROUP_TOL``) of the selected
    level. Clusters whose total weight is below ``WEIGHT_TOL`` are skipped:
    `echo_scan` passes only the reflection-even levels, without the uncoupled
    odd partner of an even chain's ground state, but at b_z = 0 V anticommutes
    with the spin flip, so some even levels do not couple either.
    """
    w = spec.eigenvalues
    if w[1] - w[0] <= DEGENERACY_TOL:
        raise DegenerateGapError(
            "ground level is degenerate; echo_perturbative handles this case"
        )
    v0a = np.abs(_coupling_to_ground(spec, v)) ** 2
    a = 1
    while a < len(w):
        b = a + 1
        while b < len(w) and w[b] - w[a] <= GROUP_TOL:
            b += 1
        weight = float(np.sum(v0a[a:b]))
        if weight > WEIGHT_TOL:
            return two_level_formula(weight, float(w[a] - w[0]), epsilon, t)
        a = b
    return 1.0


def two_level_formula(weight: float, delta: float, epsilon: float, t: float) -> float:
    """Echo of one level at gap delta coupled to the ground state with |V_01|^2 = weight."""
    ratio = weight / _power(delta, 2, "delta**2")
    return float(1.0 - 2.0 * ratio * _power(epsilon, 2, "epsilon**2") * (1.0 - np.cos(delta * t)))


@dataclass(frozen=True)
class LandauZenerParams:
    """Two-level avoided-crossing model under transverse and longitudinal drive.

    H = delta_min * sigma_x + sign(lam) * |lam|^z_nu * sigma_z, with the
    crossing at lam = 0. z_nu generalizes how fast the gap closes; z_nu = 1
    is the plain avoided-crossing case.
    """

    delta_min: float
    lam: float
    z_nu: float = 1.0
    epsilon: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        if self.delta_min <= 0:
            raise ValueError("delta_min must be positive")
        if self.z_nu <= 0:
            raise ValueError("z_nu must be positive")
        for name in ("delta_min", "epsilon", "t"):  # the formulas square each
            _power(getattr(self, name), 2, f"{name}**2")
        _power(float(abs(self.lam)), 2 * self.z_nu, "|lam|**(2 z_nu)")


def lz_hamiltonian(p: LandauZenerParams) -> HermitianOperator:
    """The 2x2 model Hamiltonian, real symmetric and so stored as float64."""
    zfield = np.sign(p.lam) * abs(p.lam) ** p.z_nu
    m = np.array([[zfield, p.delta_min], [p.delta_min, -zfield]], dtype=float)
    return HermitianOperator(m, 1)


def lz_gap(p: LandauZenerParams) -> float:
    """Level splitting 2*sqrt(|lam|^(2 z_nu) + delta_min^2)."""
    return float(2.0 * np.sqrt(abs(p.lam) ** (2 * p.z_nu) + p.delta_min**2))


def lz_matrix_element_sq(p: LandauZenerParams) -> float:
    """|<excited|sigma_z|ground>|^2; peaks at exactly 1 at the crossing."""
    return float(p.delta_min**2 / (p.delta_min**2 + abs(p.lam) ** (2 * p.z_nu)))


def lz_echo_gaussian(p: LandauZenerParams) -> float:
    """Short-time echo exp(-eps^2 delta_min^2 t^2 / (delta_min^2 + |lam|^(2 z_nu)))."""
    rate = p.epsilon**2 * p.delta_min**2 / (p.delta_min**2 + abs(p.lam) ** (2 * p.z_nu))
    return float(np.exp(-rate * p.t**2))
