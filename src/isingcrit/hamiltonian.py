"""Antiferromagnetic Ising chain in a tilted field, and its zero-transverse-field
closed forms.

The model on N qubits with open boundaries is

    H = sum_{i=1}^{N-1} sigma_z^i sigma_z^{i+1}
      + B_z sum_i sigma_z^i + B_x sum_i sigma_x^i,

with the coupling strength as the unit of energy. At B_x = 0 the Hamiltonian
is diagonal in the computational basis and the ground state is a simple
product (or two-ket) pattern that changes at the crossover fields, held in
the table CROSSOVERS: +-2 and 0 for odd N; +-2 and +-1 for even N > 2. The
phase catalogue, its energies and the closed forms are read from it; a
crossover belongs to the phase on its left. At B_z = +-2 the ground manifold
is macroscopically degenerate; `closed_form_ground` returns the
staggered-front family interpolating between the two adjacent phase patterns
there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import HermitianOperator, PureState, basis_state, sigma_z_values, superposition

MAX_QUBITS = 14

# B_x = 0 crossover fields, which bound the phases of phase_labels
CROSSOVERS = {"odd": (-2.0, 0.0, 2.0), "even": (-2.0, -1.0, 1.0, 2.0)}


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
        if not isinstance(self.n_qubits, (int, np.integer)):
            raise ValueError(f"n_qubits must be an integer, got {self.n_qubits!r}")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.n_qubits > MAX_QUBITS:
            raise ChainSizeError(
                f"n_qubits={self.n_qubits} exceeds the cap of {MAX_QUBITS}"
            )
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        for name in ("b_z", "b_x"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    @property
    def parity(self) -> str:
        return "odd" if self.n_qubits % 2 else "even"

    def perturbed(self, epsilon: float) -> "ChainParams":
        """Parameters of H + epsilon*V with V = -sum_i sigma_z^i.

        The shifted field is rounded to 12 decimals, as the scan grids are, so
        that b_z - epsilon lands exactly on a grid point (whose spectrum an
        exact scan keeps) instead of a rounding-dust neighbour.
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
        return superposition(len(self.kets[0]), {b: 1.0 for b in self.kets})

    def energy(self, b_z: float) -> float:
        """B_x = 0 energy m*b_z + zz, from the magnetization m and the bond sum
        zz of the first ket (every ket of a phase has the same energy)."""
        z = [1 - 2 * int(bit) for bit in self.kets[0]]
        return sum(z) * b_z + sum(a * b for a, b in zip(z, z[1:]))


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
    parity = "odd" if n_qubits % 2 else "even"
    kets = _odd_kets(n_qubits) if n_qubits % 2 else _even_kets(n_qubits)
    edges = (-np.inf,) + CROSSOVERS[parity] + (np.inf,)
    return [
        PhaseLabel(parity, k + 1, kets[k], edges[k : k + 2]) for k in range(len(kets))
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
    z = sigma_z_values(n)
    zz = np.sum(z[:, :-1] * z[:, 1:], axis=1)  # no bonds, all zeros, at n = 1
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
    z = sigma_z_values(n_qubits)
    return HermitianOperator(np.diag(-z.sum(axis=1).astype(float)), n_qubits)


def crossover_points(n_qubits: int) -> list[float]:
    """Fields where B_x = 0 ground-state branches intersect."""
    _require_closed_form_size(n_qubits)
    return list(CROSSOVERS["odd" if n_qubits % 2 else "even"])


def _phase_index(params: ChainParams) -> int:
    """Index into phase_labels of the phase holding b_z; see CROSSOVERS."""
    return sum(params.b_z > c for c in CROSSOVERS[params.parity])


def closed_form_energy(params: ChainParams) -> float:
    """Piecewise-linear ground energy at B_x = 0; continuous at crossovers."""
    if params.b_x != 0.0:
        raise ValueError("closed-form energy is defined at b_x = 0 only")
    return phase_labels(params.n_qubits)[_phase_index(params)].energy(params.b_z)


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
    n, bz = params.n_qubits, params.b_z
    if abs(bz) == 2.0:
        return multiphase_family(n, bz)
    k = _phase_index(params)
    # on an interior crossover the phase on its right meets the one holding it
    meeting = phase_labels(n)[k : k + 1 + (bz in CROSSOVERS[params.parity])]
    return [lab.state() for lab in meeting]
