"""Antiferromagnetic Ising chain in a tilted field, and its zero-transverse-field
closed forms.

The model on N qubits with open boundaries is

    H = sum_{i=1}^{N-1} sigma_z^i sigma_z^{i+1}
      + B_z sum_i sigma_z^i + B_x sum_i sigma_x^i,

with the coupling strength as the unit of energy. At B_x = 0 the Hamiltonian
is diagonal in the computational basis and the ground state is a simple
product (or two-ket) pattern that changes at the crossover fields: +-2 and 0
for odd N; +-2 and +-1 for even N > 2. At B_z = +-2 the ground manifold is
macroscopically degenerate; `closed_form_ground` returns the staggered-front
family interpolating between the two adjacent phase patterns there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import HermitianOperator, PureState, basis_state, qubit_bit_values, superposition

MAX_QUBITS = 14


class ChainSizeError(ValueError):
    """Chain exceeds the configured qubit cap."""


class UnsupportedChainError(ValueError):
    """No closed form / network is defined for this chain size."""


@dataclass(frozen=True)
class ChainParams:
    """Chain size and field components (fields in units of the coupling)."""

    n_qubits: int
    b_z: float
    b_x: float

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.n_qubits > MAX_QUBITS:
            raise ChainSizeError(
                f"n_qubits={self.n_qubits} exceeds the cap of {MAX_QUBITS}"
            )
        object.__setattr__(self, "b_z", float(self.b_z))
        object.__setattr__(self, "b_x", float(self.b_x))

    @property
    def parity(self) -> str:
        return "odd" if self.n_qubits % 2 else "even"

    def perturbed(self, epsilon: float) -> "ChainParams":
        """Parameters of H + epsilon*V with V = -sum_i sigma_z^i.

        The shifted field is rounded to 12 decimals, as the scan grids are, so
        that b_z - epsilon lands exactly on a grid point (and its cached
        spectrum) instead of a rounding-dust neighbour.
        """
        return ChainParams(self.n_qubits, float(np.round(self.b_z - epsilon, 12)), self.b_x)


@dataclass(frozen=True)
class PhaseLabel:
    """One zero-transverse-field ground-state sector."""

    parity: str
    k: int
    kets: tuple[str, ...]
    interval: tuple[float, float]

    def state(self) -> PureState:
        n = len(self.kets[0])
        if len(self.kets) == 1:
            return basis_state(n, self.kets[0])
        return superposition(n, {b: 1.0 for b in self.kets})


def _odd_kets(n: int) -> list[tuple[str, ...]]:
    half = (n - 1) // 2
    return [
        ("0" * n,),
        ("01" * half + "0",),
        ("10" * half + "1",),
        ("1" * n,),
    ]


def _even_kets(n: int) -> list[tuple[str, ...]]:
    half = (n - 2) // 2
    return [
        ("0" * n,),
        ("01" * half + "00", "00" + "10" * half),
        ("01" * (n // 2), "10" * (n // 2)),
        ("11" + "01" * half, "10" * half + "11"),
        ("1" * n,),
    ]


def phase_labels(n_qubits: int) -> list[PhaseLabel]:
    """Catalog of the B_x = 0 phases: four for odd N, five for even N > 2."""
    _require_closed_form_size(n_qubits)
    if n_qubits % 2:
        intervals = [(-np.inf, -2.0), (-2.0, 0.0), (0.0, 2.0), (2.0, np.inf)]
        kets = _odd_kets(n_qubits)
        parity = "odd"
    else:
        intervals = [(-np.inf, -2.0), (-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0), (2.0, np.inf)]
        kets = _even_kets(n_qubits)
        parity = "even"
    return [
        PhaseLabel(parity, k + 1, kets[k], intervals[k]) for k in range(len(kets))
    ]


def phase_state(n_qubits: int, k: int) -> PureState:
    """The k-th phase ket/superposition (k is 1-based)."""
    labels = phase_labels(n_qubits)
    if not 1 <= k <= len(labels):
        raise ValueError(f"phase index {k} out of range 1..{len(labels)}")
    return labels[k - 1].state()


def _require_closed_form_size(n_qubits: int) -> None:
    if n_qubits % 2 == 1:
        if n_qubits < 3:
            raise UnsupportedChainError("odd-chain closed forms require N >= 3")
    else:
        if n_qubits < 4:
            raise UnsupportedChainError("even-chain closed forms require N >= 4 (N=2 excluded)")


def hamiltonian_diagonal(params: ChainParams) -> np.ndarray:
    """Diagonal of H in the computational basis (the full H when B_x = 0)."""
    n = params.n_qubits
    z = 1 - 2 * qubit_bit_values(n)
    if n > 1:
        zz = np.sum(z[:, :-1] * z[:, 1:], axis=1)
    else:
        zz = np.zeros(2, dtype=np.int64)
    return zz + params.b_z * z.sum(axis=1)


def build_hamiltonian(params: ChainParams) -> HermitianOperator:
    """Dense real-symmetric 2^N x 2^N matrix of the tilted-field chain Hamiltonian."""
    n = params.n_qubits
    h = np.diag(hamiltonian_diagonal(params).astype(float))
    if params.b_x != 0.0:
        idx = np.arange(2 ** n)[:, None]
        h[idx, idx ^ (1 << np.arange(n))] = params.b_x  # each sigma_x^i flips one distinct bit
    return HermitianOperator(h, n)


def global_field_perturbation(n_qubits: int) -> HermitianOperator:
    """The detection perturbation V = -sum_i sigma_z^i (diagonal)."""
    z = 1 - 2 * qubit_bit_values(n_qubits)
    return HermitianOperator(np.diag(-z.sum(axis=1).astype(float)), n_qubits)


def crossover_points(n_qubits: int) -> list[float]:
    """Fields where B_x = 0 ground-state branches intersect."""
    if n_qubits < 3:
        raise UnsupportedChainError("crossover catalog requires N >= 3")
    if n_qubits % 2:
        return [-2.0, 0.0, 2.0]
    return [-2.0, -1.0, 1.0, 2.0]


def closed_form_energy(params: ChainParams) -> float:
    """Piecewise-linear ground energy at B_x = 0; continuous at crossovers."""
    if params.b_x != 0.0:
        raise ValueError("closed-form energy is defined at b_x = 0 only")
    _require_closed_form_size(params.n_qubits)
    n, bz = params.n_qubits, params.b_z
    if n % 2:
        if bz <= -2:
            return n * bz + (n - 1)
        if bz <= 0:
            return bz - (n - 1)
        if bz <= 2:
            return -bz - (n - 1)
        return -n * bz + (n - 1)
    if bz <= -2:
        return n * bz + (n - 1)
    if bz <= -1:
        return 2 * bz - (n - 3)
    if bz <= 1:
        return float(-(n - 1))
    if bz <= 2:
        return -2 * bz - (n - 3)
    return -n * bz + (n - 1)


def _flip(bits: str) -> str:
    return bits.translate(str.maketrans("01", "10"))


def multiphase_family(n_qubits: int, b_c: float) -> list[PureState]:
    """Degenerate ground states at the multiphase points B_z = +-2, B_x = 0.

    Interpolates between the uniform and the alternating phase by growing the
    staggered pattern from one end: (N+1)/2 kets for odd N, N/2 two-ket
    superpositions (paired with their mirror image) for even N. Every
    returned state is an exact ground state; further degenerate combinations
    of isolated interior flips exist beyond this family.
    """
    _require_closed_form_size(n_qubits)
    if b_c not in (-2.0, 2.0):
        raise ValueError("multiphase family exists at B_z = +-2 only")
    n = n_qubits
    states: list[PureState] = []
    if n % 2:
        for j in range((n + 1) // 2):
            bits = "01" * j + "0" * (n - 2 * j)
            states.append(basis_state(n, bits if b_c < 0 else _flip(bits)))
    else:
        states.append(basis_state(n, ("0" if b_c < 0 else "1") * n))
        for j in range(1, n // 2):
            a = "01" * j + "0" * (n - 2 * j)
            b = "0" * (n - 2 * j) + "10" * j
            if b_c > 0:
                a, b = _flip(a), _flip(b)
            states.append(superposition(n, {a: 1.0, b: 1.0}))
    return states


def closed_form_ground(params: ChainParams) -> list[PureState]:
    """Ground state(s) at B_x = 0.

    Strictly inside a phase interval the list holds that phase's single
    state; at a crossover it holds all states of the meeting phases
    (the staggered-front family at the multiphase points B_z = +-2).
    """
    if params.b_x != 0.0:
        raise ValueError("closed-form ground states are defined at b_x = 0 only")
    _require_closed_form_size(params.n_qubits)
    n, bz = params.n_qubits, params.b_z
    labels = phase_labels(n)
    if abs(bz) == 2.0:
        return multiphase_family(n, bz)
    inner = [lab for lab in labels if lab.interval[0] < bz < lab.interval[1]]
    if inner:
        return [inner[0].state()]
    # bz sits exactly on an interior crossover that is not a multiphase point
    meeting = [lab for lab in labels if bz in lab.interval]
    return [lab.state() for lab in meeting]
