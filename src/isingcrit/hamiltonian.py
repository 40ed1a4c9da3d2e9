"""Antiferromagnetic Ising chain in a tilted field, and its zero-transverse-field
closed forms.

The model on N qubits with open boundaries is

    H = sum_{i=1}^{N-1} sigma_z^i sigma_z^{i+1}
      + B_z sum_i sigma_z^i + B_x sum_i sigma_x^i,

with the coupling strength as the unit of energy. The detection perturbation
V = -sum_i sigma_z^i is diagonal in the computational basis, so
`global_field_perturbation` returns that diagonal as a float64 vector, and
H + eps*V is the chain at B_z - eps (`ChainParams.perturbed`). One function,
`diagonal_terms`, sums the sigma_z table; H's diagonal, V and the gates' echo
step read it. Every 2^N state or vector built here is capped at MAX_QUBITS,
as `ChainParams` is.

At B_x = 0 the Hamiltonian is diagonal in the computational basis and the
ground state is a simple product (or two-ket) pattern that changes at the
crossover fields, held in the table CROSSOVERS: +-2 and 0 for odd N; +-2 and
+-1 for even N > 2. The phase catalogue, its energies and the closed forms
are read from it; a crossover belongs to the phase on its left. At B_z = +-2
the ground manifold is macroscopically degenerate; `closed_form_ground`
returns the staggered-front family interpolating between the two adjacent
phase patterns there.

Away from B_x = 0 the ground state is approximated on each preparation
interval of the table INTERVALS (the split point EVEN_SPLIT is a fixed
constant) by cos(phi)|m> - sin(phi)|n>, from the interval's row (m, n, c) of
the table ANSATZ, which the ansatz states and the gate networks alike read
through `mixing_angle`, for B_x > 0 only. Phases m and n meet at
b_c = |CROSSOVERS[parity][min(m, n) - 1]|; with d = b_c - |B_z|,
tan(phi) = [d + sqrt(d^2 + c B_x^2)] / (sqrt(c) B_x). The odd middle row has
c = None and a step rule instead: phi = 0, pi/4 and pi/2 for B_z < 0, = 0 and
> 0, so the chain takes the alternating pattern, the minus-sign superposition
at exactly 0 and the mirrored pattern. The rule is discontinuous at 0, so scan
grids should contain 0.0 exactly rather than a rounding-dust neighbour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import HermitianOperator, PureState, basis_state, sigma_z_values, superposition

MAX_QUBITS = 14
# decimals of the scan grids and of ChainParams.perturbed: a field reached two ways compares equal
FIELD_DECIMALS = 12
# points of the largest scan grid: a finer step is refused before its array is allocated
MAX_GRID_POINTS = 10**6

# B_x = 0 crossover fields, which bound the phases of phase_labels
CROSSOVERS = {"odd": (-2.0, 0.0, 2.0), "even": (-2.0, -1.0, 1.0, 2.0)}


def chain_parity(n_qubits: int) -> str:
    """'odd' or 'even': the key of an N-qubit chain in CROSSOVERS, INTERVALS and ANSATZ."""
    return "odd" if n_qubits % 2 else "even"


class ChainSizeError(ValueError):
    """Chain exceeds the configured qubit cap."""


class UnsupportedChainError(ValueError):
    """No closed form / network is defined for this chain size."""


def _require_register_size(n_qubits: int) -> None:
    """ChainSizeError past MAX_QUBITS, the cap of `ChainParams` and of every 2^N phase state."""
    if n_qubits > MAX_QUBITS:
        raise ChainSizeError(f"n_qubits={n_qubits} exceeds the cap of {MAX_QUBITS}")


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
        _require_register_size(self.n_qubits)
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        for name in ("b_z", "b_x"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    @property
    def parity(self) -> str:
        return chain_parity(self.n_qubits)

    def perturbed(self, epsilon: float) -> "ChainParams":
        """Parameters of H + epsilon*V with V = -sum_i sigma_z^i.

        The shifted field is rounded to FIELD_DECIMALS, as the scan grids are,
        so that b_z - epsilon lands exactly on a grid point (whose spectrum an
        exact scan keeps) instead of a rounding-dust neighbour.
        """
        return ChainParams(self.n_qubits, float(np.round(self.b_z - epsilon, FIELD_DECIMALS)), self.b_x)


def default_b_z_grid(lo: float = -3.0, hi: float = 3.0, step: float = 0.02) -> np.ndarray:
    """Dust-free grid lo, lo+step, ... up to hi (values rounded to FIELD_DECIMALS).

    The last point is hi when step divides hi - lo up to float dust, and
    never lies past it. A grid of more than MAX_GRID_POINTS points is a ValueError.
    """
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0 or hi <= lo:
        raise ValueError(f"grid requires step > 0 and hi > lo, got lo={lo}, hi={hi}, step={step}")
    points = (hi - lo) / step + 1e-9  # inf when the division overflows
    if not points < MAX_GRID_POINTS:
        raise ValueError(f"grid step {step} over [{lo}, {hi}] exceeds {MAX_GRID_POINTS} points")
    count = math.floor(points) + 1
    return np.round(lo + np.arange(count) * step, FIELD_DECIMALS)


@dataclass(frozen=True)
class PhaseLabel:
    """One zero-transverse-field ground-state sector."""

    parity: str
    k: int
    kets: tuple[str, ...]
    interval: tuple[float, float]

    def state(self) -> PureState:
        """The phase's ket or two-ket superposition, a 2^N vector: N is capped at MAX_QUBITS."""
        n = len(self.kets[0])
        _require_register_size(n)
        return superposition(n, {b: 1.0 for b in self.kets})

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
    parity = chain_parity(n_qubits)
    kets = (_odd_kets if parity == "odd" else _even_kets)(n_qubits)
    edges = (-np.inf,) + CROSSOVERS[parity] + (np.inf,)
    return [
        PhaseLabel(parity, k + 1, kets[k], edges[k : k + 2]) for k in range(len(kets))
    ]


def phase_state(n_qubits: int, k: int) -> PureState:
    """The k-th phase ket/superposition (k is 1-based), a 2^N vector: N is capped at
    MAX_QUBITS like ChainParams (the phase catalogue itself has no cap)."""
    _require_register_size(n_qubits)
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


def diagonal_terms(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The two field-free parts of H's diagonal, as int64 over the 2^N basis: the
    bond sum sum_i sigma_z^i sigma_z^{i+1} and the magnetization sum_i sigma_z^i.
    N is capped at MAX_QUBITS, so every 2^N vector read from them is."""
    _require_register_size(n_qubits)
    z = sigma_z_values(n_qubits)
    return np.sum(z[:, :-1] * z[:, 1:], axis=1), z.sum(axis=1)  # no bonds, all zeros, at n = 1


def hamiltonian_diagonal(params: ChainParams) -> np.ndarray:
    """Diagonal of H in the computational basis (the full H when B_x = 0)."""
    zz, magnetization = diagonal_terms(params.n_qubits)
    return zz + params.b_z * magnetization


def build_hamiltonian(params: ChainParams) -> HermitianOperator:
    """Dense real-symmetric 2^N x 2^N matrix of the tilted-field chain Hamiltonian."""
    n = params.n_qubits
    h = np.diag(hamiltonian_diagonal(params).astype(float))
    if params.b_x != 0.0:
        idx = np.arange(2 ** n)[:, None]
        h[idx, idx ^ (1 << np.arange(n))] = params.b_x  # each sigma_x^i flips one distinct bit
    return HermitianOperator(h, n)


def global_field_perturbation(n_qubits: int) -> np.ndarray:
    """The detection perturbation V = -sum_i sigma_z^i, stored as its diagonal (float64);
    N is capped at MAX_QUBITS by `diagonal_terms`."""
    return -diagonal_terms(n_qubits)[1].astype(float)


def crossover_points(n_qubits: int) -> list[float]:
    """Fields where B_x = 0 ground-state branches intersect."""
    _require_closed_form_size(n_qubits)
    return list(CROSSOVERS[chain_parity(n_qubits)])


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
    _require_register_size(n_qubits)
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


EVEN_SPLIT = 1.44
INTERVALS = {
    "odd": ((-3.0, -1.0), (-1.0, 1.0), (1.0, 3.0)),
    "even": ((-3.0, -EVEN_SPLIT), (-EVEN_SPLIT, 0.0), (0.0, EVEN_SPLIT), (EVEN_SPLIT, 3.0)),
}
# (m, n, c) per interval of INTERVALS, c = None for the step rule; see the module docstring
ANSATZ = {
    "odd": ((1, 2, 1.0), (2, 3, None), (4, 3, 1.0)),
    "even": ((1, 2, 2.0), (2, 3, 1.0), (4, 3, 1.0), (5, 4, 2.0)),
}


@dataclass(frozen=True)
class MixingAngle:
    """Rotation angle of the two-phase ansatz cos(phi)|m> - sin(phi)|n>."""

    phi: float
    m: int
    n: int


def interval_boundaries(parity: str) -> tuple[float, ...]:
    """Interior points where the preparation rule switches branch."""
    if parity not in INTERVALS:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    return tuple(hi for _, hi in INTERVALS[parity][:-1])


def interval_index(parity: str, b_z: float) -> int:
    """Index into INTERVALS[parity] of the interval containing b_z.

    The outer intervals absorb fields beyond the table. A boundary at or
    below 0 belongs to the interval on its left, a positive one to the
    interval on its right.
    """
    return sum(b_z > b if b <= 0 else b_z >= b for b in interval_boundaries(parity))


def mixing_angle(parity: str, k: int, b_z: float, b_x: float) -> MixingAngle:
    """The ansatz angle of interval k of INTERVALS[parity] at (b_z, b_x), for b_x > 0."""
    if parity not in ANSATZ:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    if not 0 <= k < len(ANSATZ[parity]):
        raise ValueError(f"{parity} interval index {k} out of range 0..{len(ANSATZ[parity]) - 1}")
    if b_x <= 0:
        raise ValueError("mixing angle requires b_x > 0")
    m, n, c = ANSATZ[parity][k]
    if c is None:
        phi = 0.0 if b_z < 0 else (math.pi / 4 if b_z == 0 else math.pi / 2)
    else:
        d = abs(CROSSOVERS[parity][min(m, n) - 1]) - abs(b_z)
        phi = math.atan((d + math.sqrt(d * d + c * b_x * b_x)) / (math.sqrt(c) * b_x))
    return MixingAngle(phi, m, n)
