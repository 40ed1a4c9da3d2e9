"""Quantum gates and their action on state vectors.

Gates are value objects: a kind, target qubit(s), optional control(s) and
optional angle. Qubit indices are 1-based with qubit 1 the most-significant
bit (see states module). The y-rotation convention is

    RotY(phi) = exp(i * phi * sigma_y),  RotY(phi)|0> = cos(phi)|0> - sin(phi)|1>,

which fixes the relative sign of the prepared two-phase superpositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import PureState, frozen_array, qubit_bit_values, sigma_z_values

# kind -> (n_targets, n_controls, has_angle)
GATE_ARITY = {
    "RotY": (1, 0, True),
    "NOT": (1, 0, False),
    "Hadamard": (1, 0, False),
    "CNOT": (1, 1, False),
    "ControlledRotY": (1, 1, True),
    "SWAP": (2, 0, False),
    "ZZEvolution": (2, 0, True),
    "ZEvolution": (1, 0, True),
    "GlobalZEvolution": (0, 0, True),
}

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def roty_matrix(phi: float) -> np.ndarray:
    """exp(i*phi*sigma_y) = [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _controlled(u: np.ndarray) -> np.ndarray:
    dim = u.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = u
    return out


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_t, n_c, has_angle = GATE_ARITY[self.kind]
        targets = tuple(int(q) for q in self.targets)
        controls = tuple(int(q) for q in self.controls)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)
        if len(targets) != n_t or len(controls) != n_c:
            raise ValueError(
                f"{self.kind} takes {n_t} target(s) and {n_c} control(s), "
                f"got {targets} / {controls}"
            )
        if has_angle:
            if self.angle is None:
                raise ValueError(f"{self.kind} requires an angle")
            object.__setattr__(self, "angle", float(self.angle))
            if not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} angle must be finite, got {self.angle}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")
        qubits = controls + targets
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit index in {qubits}")
        if any(q < 1 for q in qubits):
            raise ValueError(f"qubit indices must be >= 1, got {qubits}")

    @property
    def qubits(self) -> tuple[int, ...]:
        """Qubits the gate acts on, controls first."""
        return self.controls + self.targets

    def matrix(self) -> np.ndarray:
        """Unitary on the gate's own qubits (controls first in the ordering).

        GlobalZEvolution acts on the whole register and has no fixed-size
        matrix; use apply_gates or global_z_phases for it.
        """
        if self.kind == "RotY":
            return roty_matrix(self.angle)
        if self.kind == "NOT":
            return _X.copy()
        if self.kind == "Hadamard":
            return _H.copy()
        if self.kind == "CNOT":
            return _controlled(_X)
        if self.kind == "ControlledRotY":
            return _controlled(roty_matrix(self.angle))
        if self.kind == "SWAP":
            return np.array(
                [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
            )
        if self.kind == "ZZEvolution":
            # exp(-i*theta*sigma_z x sigma_z)
            p = np.exp(-1j * self.angle)
            return np.diag([p, p.conjugate(), p.conjugate(), p])
        if self.kind == "ZEvolution":
            return np.diag([np.exp(-1j * self.angle), np.exp(1j * self.angle)])
        raise ValueError(f"{self.kind} has no fixed-size matrix")

    def dagger(self) -> "Gate":
        """Inverse gate (all kinds here are self-inverse or angle-negating)."""
        if self.angle is None:
            return self
        return Gate(self.kind, self.targets, self.controls, -self.angle)


def global_z_phases(n_qubits: int, angle: float) -> np.ndarray:
    """Diagonal of exp(-i*angle*sum_i sigma_z^i) over the 2^N basis."""
    return np.exp(-1j * angle * sigma_z_values(n_qubits).sum(axis=1))


@lru_cache(maxsize=None)
def _slots(n_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """(2^k, 2^(N-k)) basis indices: row r holds the kets whose k gate-qubit bits
    (controls first, MSB first) spell r, in register order, kept by a stable sort."""
    bits = qubit_bit_values(n_qubits)[:, [q - 1 for q in qubits]]
    row = bits @ (1 << np.arange(len(qubits) - 1, -1, -1))
    return frozen_array(np.argsort(row, kind="stable").reshape(2 ** len(qubits), -1), np.intp)


def _apply(amps: np.ndarray, n_qubits: int, gate: Gate) -> np.ndarray:
    """The gate applied to a bare amplitude array; a new array, amps is not written."""
    if gate.kind == "GlobalZEvolution":
        return global_z_phases(n_qubits, gate.angle) * amps
    if any(q > n_qubits for q in gate.qubits):
        raise ValueError(f"gate qubits {gate.qubits} exceed register size {n_qubits}")
    slots = _slots(n_qubits, gate.qubits)
    out = np.empty_like(amps)
    out[slots] = gate.matrix() @ amps[slots]
    return out


def apply_gates(state: PureState, gates) -> PureState:
    """Apply gates in order; the norm is checked once, on the result."""
    amps = state.amplitudes
    for g in gates:
        amps = _apply(amps, state.n_qubits, g)
    return PureState(amps, state.n_qubits)


def apply_gate(state: PureState, gate: Gate) -> PureState:
    """Apply one gate; norm is preserved to machine precision."""
    return apply_gates(state, (gate,))
