"""States and Hermitian operators on a register of qubits.

Conventions used throughout the package:

* qubit 1 is the most-significant bit of the computational-basis index, so
  the basis ket ``|0101>`` sits at index ``0b0101 = 5``;
* ``|0>`` is the +1 eigenstate of sigma_z, ``|1>`` the -1 eigenstate;
* hbar = 1 and the chain coupling strength is the unit of energy.

All containers are immutable after construction (the wrapped numpy arrays
are marked read-only) and every operation is a pure function, so values can
be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12

def frozen_array(a: np.ndarray, dtype=None) -> np.ndarray:
    """Read-only copy of a as dtype; by default real input becomes float64
    and anything else complex128."""
    a = np.asarray(a)
    if dtype is None:
        dtype = complex if np.iscomplexobj(a) else float
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def qubit_bit_values(n_qubits: int) -> np.ndarray:
    """(2^N, N) array of bits; column j holds the bit of qubit j+1."""
    idx = np.arange(2 ** n_qubits)
    shifts = np.arange(n_qubits - 1, -1, -1)
    return (idx[:, None] >> shifts[None, :]) & 1


def sigma_z_values(n_qubits: int) -> np.ndarray:
    """(2^N, N) array of sigma_z eigenvalues +-1; column j belongs to qubit j+1."""
    return 1 - 2 * qubit_bit_values(n_qubits)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector of an N-qubit register."""

    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self):
        amps = frozen_array(np.asarray(self.amplitudes).ravel(), complex)
        if amps.size != 2 ** self.n_qubits:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected 2^{self.n_qubits}"
            )
        _require_unit_norm(np.linalg.norm(amps))
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def _require_unit_norm(norm) -> None:
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")


def pure_states(rows: np.ndarray, n_qubits: int) -> list[PureState]:
    """A `PureState` of each row of a (G, 2^N) block, checked as one array rather than row by
    row: the rows are copied into one read-only complex block, whose rows the states hold."""
    block = np.array(rows, dtype=complex, order="C")
    if block.ndim != 2 or block.shape[1] != 2 ** n_qubits:
        raise ValueError(f"amplitude rows have shape {block.shape}, expected (G, 2^{n_qubits})")
    norms = np.linalg.norm(block, axis=1)
    if norms.size:
        _require_unit_norm(norms[np.argmax(np.abs(norms - 1.0))])  # the worst row, NaN first
    block.setflags(write=False)
    states = []
    for amps in block:
        state = object.__new__(PureState)  # checked above, with the block
        state.__dict__.update(amplitudes=amps, n_qubits=n_qubits)
        states.append(state)
    return states


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """Elementwise Hermiticity check with a cheap path for diagonal matrices."""
    diag = np.diagonal(m)
    if np.count_nonzero(m) == np.count_nonzero(diag):
        return bool(np.max(np.abs(diag.imag), initial=0.0) <= tol)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian operator on the full register.

    Real input is stored as float64 (real symmetric), anything else as
    complex128.
    """

    matrix: np.ndarray
    n_qubits: int

    def __post_init__(self):
        m = frozen_array(self.matrix)
        dim = 2 ** self.n_qubits
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape}, expected ({dim}, {dim})")
        if not is_hermitian(m):
            raise ValueError("operator is not Hermitian within tolerance")
        object.__setattr__(self, "matrix", m)


def basis_state(n_qubits: int, bits: str) -> PureState:
    """Computational-basis ket |bits>, qubit 1 being the leftmost character.

    >>> complex(basis_state(3, "101").amplitudes[5])
    (1+0j)
    """
    return superposition(n_qubits, {bits: 1.0})


def superposition(n_qubits: int, terms: dict[str, complex]) -> PureState:
    """Normalized superposition of basis kets, e.g. {"0101": 1, "1010": 1}; each bit
    string holds exactly N characters, each '0' or '1'."""
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    for bits, coeff in terms.items():
        if len(bits) != n_qubits:
            raise ValueError(f"bit string {bits!r} has length {len(bits)}, expected {n_qubits}")
        if set(bits) - {"0", "1"}:
            raise ValueError(f"bit string {bits!r} contains non-binary characters")
        amps[int(bits, 2)] += coeff
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("superposition coefficients cancel to the zero vector")
    return PureState(amps / norm, n_qubits)


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
