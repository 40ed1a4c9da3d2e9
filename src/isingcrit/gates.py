"""Quantum gates and their action on state vectors.

Gates are value objects: a kind, target qubit(s), optional control(s) and
optional angle. Qubit indices are 1-based with qubit 1 the most-significant
bit (see states module). The y-rotation convention is

    RotY(phi) = exp(i * phi * sigma_y),  RotY(phi)|0> = cos(phi)|0> - sin(phi)|1>,

which fixes the relative sign of the prepared two-phase superpositions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hamiltonian import diagonal_terms
from .states import PureState, frozen_array, qubit_bit_values

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


def roty_matrix(phi: float) -> np.ndarray:
    """exp(i*phi*sigma_y) = [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]], dtype=complex)


_EYE4 = frozen_array(np.eye(4), complex)


def _controlled(u: np.ndarray) -> np.ndarray:
    """The 2x2 unitary u on the target, conditioned on the control (the first qubit)."""
    out = _EYE4.copy()
    out[2:, 2:] = u
    return out


def _zz_evolution(theta: float) -> np.ndarray:
    """exp(-i*theta*sigma_z x sigma_z)"""
    p = np.exp(-1j * theta)
    return np.diag([p, p.conjugate(), p.conjugate(), p])


_X = frozen_array([[0, 1], [1, 0]], complex)
# kind -> unitary on the gate's own qubits (controls first): a function of the angle for
# the kinds that take one, else a read-only matrix shared by every application.
# GlobalZEvolution acts on the whole register and has none (see global_z_phases).
_UNITARY = {
    "RotY": roty_matrix,
    "NOT": _X,
    "Hadamard": frozen_array(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)),
    "CNOT": frozen_array(_controlled(_X)),
    "ControlledRotY": lambda phi: _controlled(roty_matrix(phi)),
    "SWAP": frozen_array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], complex),
    "ZZEvolution": _zz_evolution,
    "ZEvolution": lambda theta: np.diag([np.exp(-1j * theta), np.exp(1j * theta)]),
}


def _unitary(gate: Gate) -> np.ndarray:
    """The gate's entry of _UNITARY, evaluated at its angle; read-only for the angle-free kinds."""
    u = _UNITARY.get(gate.kind)
    if u is None:
        raise ValueError(f"{gate.kind} has no fixed-size matrix")
    return u(gate.angle) if callable(u) else u


def finite_angle(kind: str, angle) -> float:
    """angle as a float; ValueError unless it is finite."""
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError(f"{kind} angle must be finite, got {angle}")
    return angle


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
        try:
            targets = tuple(map(operator.index, self.targets))
            controls = tuple(map(operator.index, self.controls))
        except TypeError:
            raise ValueError(
                f"qubit indices must be integers, got {self.targets!r} / {self.controls!r}"
            ) from None
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
            object.__setattr__(self, "angle", finite_angle(self.kind, self.angle))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")
        qubits = controls + targets
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit index in {qubits}")
        if min(qubits, default=1) < 1:
            raise ValueError(f"qubit indices must be >= 1, got {qubits}")

    @property
    def qubits(self) -> tuple[int, ...]:
        """Qubits the gate acts on, controls first."""
        return self.controls + self.targets

    def matrix(self) -> np.ndarray:
        """Unitary on the gate's own qubits (controls first in the ordering).

        GlobalZEvolution acts on the whole register and has no fixed-size
        matrix; use apply_gates or global_z_phases for it. The result is a fresh,
        writable array.
        """
        return np.array(_unitary(self))

    def dagger(self) -> "Gate":
        """Inverse gate (all kinds here are self-inverse or angle-negating).

        A negated valid gate is valid, so the inverse is not validated again.
        """
        if self.angle is None:
            return self
        inverse = object.__new__(Gate)
        inverse.__dict__.update(self.__dict__, angle=-self.angle)
        return inverse


@lru_cache(maxsize=None)
def _z_sums(n_qubits: int) -> np.ndarray:
    """sum_i sigma_z^i over the 2^N basis (int64, read-only), built once per N."""
    return frozen_array(diagonal_terms(n_qubits)[1], np.int64)


@lru_cache(maxsize=16)
def global_z_phases(n_qubits: int, angle: float) -> np.ndarray:
    """Diagonal of exp(-i*angle*sum_i sigma_z^i) over the 2^N basis (read-only), computed once
    per (N, angle): a protocol sweep's echo step is one diagonal for every point.

    ValueError if angle * N, the largest phase, overflows to a non-finite float.
    """
    if not math.isfinite(angle * n_qubits):
        raise ValueError(f"GlobalZEvolution angle {angle!r} overflows on {n_qubits} qubits")
    return frozen_array(np.exp(-1j * angle * _z_sums(n_qubits)))


@lru_cache(maxsize=None)
def _slots(n_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """(2^k, 2^(N-k)) basis indices: row r holds the kets whose k gate-qubit bits
    (controls first, MSB first) spell r, in register order, kept by a stable sort.

    Raises for a qubit outside the register; cached, so the check costs nothing
    once a gate's placement has been seen.
    """
    if max(qubits) > n_qubits:
        raise ValueError(f"gate qubits {qubits} exceed register size {n_qubits}")
    bits = qubit_bit_values(n_qubits)[:, [q - 1 for q in qubits]]
    row = bits @ (1 << np.arange(len(qubits) - 1, -1, -1))
    return frozen_array(np.argsort(row, kind="stable").reshape(2 ** len(qubits), -1), np.intp)


def _apply(amps: np.ndarray, slots: np.ndarray | None, u: np.ndarray) -> np.ndarray:
    """The one gate kernel: u on the gate qubits that slots places, or, with slots None,
    the diagonal u on the whole register; a new array, amps is not written."""
    if slots is None:
        return u * amps
    out = np.empty_like(amps)
    out[slots] = u @ amps[slots]
    return out


def placed(n_qubits: int, gate: Gate, free_angle: bool = False) -> tuple:
    """The kernel's (slots, u) for gate on an N-qubit register; with free_angle, u is the
    kind's unitary as a function of the angle (see run_placed), for a kind that takes one.

    Raises for a gate outside the register. The echo step (GlobalZEvolution) has no free
    form: its slots are None and u is its phase diagonal.
    """
    if gate.kind == "GlobalZEvolution":
        return None, global_z_phases(n_qubits, gate.angle)
    slots = _slots(n_qubits, gate.qubits)
    return slots, _UNITARY[gate.kind] if free_angle else _unitary(gate)


def run_placed(amps: np.ndarray, steps, angle: float) -> np.ndarray:
    """Placed gates applied in order to a bare amplitude array, each free unitary
    evaluated at angle; a new array, amps is not written and no norm is checked."""
    for slots, u in steps:
        amps = _apply(amps, slots, u(angle) if callable(u) else u)
    return amps


def apply_gates(state: PureState, gates) -> PureState:
    """Apply gates in order, each placed as it is reached; the norm is checked once, on the
    result."""
    steps = (placed(state.n_qubits, g) for g in gates)
    return PureState(run_placed(state.amplitudes, steps, None), state.n_qubits)
