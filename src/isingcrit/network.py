"""Gate-network realization of the measurement protocol.

A preparation network U0 maps |0...0> to the interval's approximate ground
state; the protocol network applies U0, the compiled diagonal echo step
exp(-i*tau*eps*sum sigma_z), then U0^dagger, and one qubit is read out.
`run_protocol` runs U0 once per point: it takes the prepared state U0|0...0>
from a caller that holds it (the `protocol` command, whose fidelity column
reads the same state) and applies the echo step and U0^dagger to it gate by
gate; `protocol_network`, the composed network, is its unitary reference. The
state is pure, so its computational-basis populations are |psi|^2, which is
the diagonal of the dephased density matrix. The readout amplitude is the
population difference A = P_s - P_n between the all-zeros ket and the ket
with only the readout qubit set, so A <= P_s always and the minima of A over
b_z land where the echo minima do.

Networks are defined for the three-qubit (odd) and four-qubit (even) chains
and built from `hamiltonian.mixing_angle`, the one source of the ansatz
angles: each size's core gates for the interval's angle, then a NOT on every
qubit for a mirrored ANSATZ row (m > n). The three-qubit networks prepare the
ansatz states of `criticality.ground_state_approx` bit for bit.

A line-oriented text format serializes them: a NETWORK header followed by
one ``GATE kind target(s) [control(s)] [angle]`` line per gate, fields
space-separated, arity fixed by the kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dynamics
from .gates import GATE_ARITY, Gate, apply_gates
from .hamiltonian import (
    INTERVALS,
    ChainParams,
    UnsupportedChainError,
    _require_register_size,
    chain_parity,
    default_b_z_grid,
    interval_index,
    mixing_angle,
)
from .states import PureState, basis_state

AMPLITUDE_SLACK = 1e-12


@dataclass(frozen=True)
class GateNetwork:
    """Ordered gate list on a fixed-size register."""

    n_qubits: int
    gates: tuple[Gate, ...]
    label: str = ""

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"register size must be >= 1, got {self.n_qubits}")
        _require_register_size(self.n_qubits)  # every read builds a 2^N register
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits, default=0) > self.n_qubits:
                raise ValueError(
                    f"gate {g.kind} on qubits {g.qubits} exceeds register size {self.n_qubits}"
                )

    def apply(self, state: PureState) -> PureState:
        return apply_gates(state, self.gates)

    def unitary(self) -> np.ndarray:
        kets = np.eye(2 ** self.n_qubits, dtype=complex)
        return np.stack([self.apply(PureState(k, self.n_qubits)).amplitudes for k in kets], axis=1)


@dataclass(frozen=True)
class ReadoutResult:
    """Single-qubit readout: population difference and the echo diagonal."""

    qubit: int
    amplitude: float
    l_value: float

    def __post_init__(self):
        if self.amplitude > self.l_value + AMPLITUDE_SLACK:
            raise ValueError("readout amplitude exceeds the echo population")


def build_preparation_network(n_qubits: int, interval, b_z: float, b_x: float) -> GateNetwork:
    """U0 for one preparation interval of an N-qubit chain; acts on |0...0>.

    Only the experimentally compiled sizes exist: N = 3 (odd) and N = 4
    (even). The network prepares the interval's two-phase ansatz from its
    `mixing_angle`; for a row with m > n (the mirrored, positive-field
    intervals) it ends with a NOT on every qubit.
    """
    if n_qubits not in _GATES:
        raise UnsupportedChainError("preparation networks exist for N = 3 and N = 4 only")
    parity = chain_parity(n_qubits)
    key = (float(interval[0]), float(interval[1]))
    if key not in INTERVALS[parity]:
        raise ValueError(f"unknown {parity} interval {interval!r}")
    k = INTERVALS[parity].index(key)
    angle = mixing_angle(parity, k, b_z, b_x)
    gates = _GATES[n_qubits](k, angle.phi)
    if angle.m > angle.n:
        gates += tuple(Gate("NOT", (q,)) for q in range(1, n_qubits + 1))
    return GateNetwork(n_qubits, gates, f"{parity} [{key[0]:g},{key[1]:g}]")


def preparation_network(n_qubits: int, b_z: float, b_x: float) -> GateNetwork:
    """U0 for the interval containing b_z (N must be 3 or 4)."""
    parity = chain_parity(n_qubits)
    return build_preparation_network(n_qubits, INTERVALS[parity][interval_index(parity, b_z)], b_z, b_x)


def _odd_gates(k: int, phi: float) -> tuple[Gate, ...]:
    """Gates taking |000> to the ansatz of odd interval k, before the mirror NOTs."""
    if k == 1:
        # pivot rotation on qubit 1, fan-out sets qubit3 = qubit1, qubit2 = NOT qubit1
        return (
            Gate("RotY", (1,), angle=phi),
            Gate("CNOT", (3,), (1,)),
            Gate("NOT", (2,)),
            Gate("CNOT", (2,), (1,)),
        )
    return (Gate("RotY", (2,), angle=phi),)


def _even_gates(k: int, phi: float) -> tuple[Gate, ...]:
    """Gates taking |0000> to the ansatz of even interval k, before the mirror NOTs."""
    if k in (0, 3):
        return (
            Gate("RotY", (2,), angle=phi),
            Gate("ControlledRotY", (3,), (2,), angle=-math.pi / 4),
            Gate("CNOT", (2,), (3,)),
        )
    # Branch selector on qubits 2/3, then conditional rotations on the
    # chain ends; the trailing SWAP pair is the full chain reversal, which
    # leaves the (reversal-symmetric) target invariant and cancels against
    # the diagonal echo step in the composed protocol.
    return (
        Gate("Hadamard", (2,)),
        Gate("NOT", (3,)),
        Gate("CNOT", (3,), (2,)),
        Gate("ControlledRotY", (4,), (2,), angle=phi),
        Gate("ControlledRotY", (1,), (3,), angle=phi),
        Gate("SWAP", (2, 3)),
        Gate("SWAP", (1, 4)),
    )


# the compiled chain sizes
_GATES = {3: _odd_gates, 4: _even_gates}


def _echo_then_undo(prep: GateNetwork, epsilon: float, tau: float) -> tuple[Gate, ...]:
    """The gates after U0: the compiled echo step, then U0^dagger."""
    echo = Gate("GlobalZEvolution", (), angle=tau * epsilon)
    return (echo,) + tuple(g.dagger() for g in reversed(prep.gates))


def protocol_network(prep: GateNetwork, epsilon: float, tau: float) -> GateNetwork:
    """Full unitary part of the protocol: U0^dagger . echo step . U0."""
    gates = prep.gates + _echo_then_undo(prep, epsilon, tau)
    return GateNetwork(prep.n_qubits, gates, f"{prep.label} protocol")


def run_protocol(
    network: GateNetwork,
    epsilon: float,
    tau: float,
    readout_qubit: int,
    prepared: PureState | None = None,
) -> ReadoutResult:
    """Execute the protocol and read the population difference on one qubit.

    `prepared` is U0|0...0>, i.e. `prepared_state(network)`, for a caller that
    holds it already; it is built here otherwise. The echo step and U0^dagger
    are then applied to it gate by gate, so U0 runs once per call either way.
    """
    n = network.n_qubits
    if not 1 <= readout_qubit <= n:
        raise ValueError(f"readout qubit {readout_qubit} outside 1..{n}")
    if prepared is None:
        prepared = prepared_state(network)
    elif prepared.n_qubits != n:
        raise ValueError(f"prepared state has {prepared.n_qubits} qubits, the network {n}")
    amps = apply_gates(prepared, _echo_then_undo(network, epsilon, tau)).amplitudes
    populations = (amps * amps.conj()).real
    s = 0
    m = 1 << (n - readout_qubit)
    l_value = float(populations[s])
    return ReadoutResult(readout_qubit, l_value - float(populations[m]), l_value)


def protocol_vs_exact(
    n_qubits: int,
    b_x: float,
    epsilon: float,
    tau: float,
    interval,
    step: float = 0.02,
) -> float:
    """Worst |protocol echo - exact echo| over one interval's grid.

    Quantifies the whole approximation chain: ansatz preparation plus the
    single compiled echo step, against the exact ground state evolved with
    the exact forward/backward unitaries.
    """
    lo, hi = float(interval[0]), float(interval[1])
    worst = 0.0
    for bz in default_b_z_grid(lo, hi, step):
        net = build_preparation_network(n_qubits, (lo, hi), bz, b_x)
        l_value = run_protocol(net, epsilon, tau, 1).l_value
        exact = dynamics.loschmidt_echo_exact(ChainParams(n_qubits, bz, b_x), epsilon, tau)
        worst = max(worst, abs(l_value - exact))
    return worst


def serialize_network(network: GateNetwork) -> str:
    lines = [f"NETWORK n={network.n_qubits} label={network.label}"]
    for g in network.gates:
        fields = [str(q) for q in g.targets] + [str(q) for q in g.controls]
        if g.angle is not None:
            fields.append(repr(g.angle))
        lines.append(" ".join(["GATE", g.kind] + fields))
    return "\n".join(lines) + "\n"


def parse_network(text: str) -> GateNetwork:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("NETWORK "):
        raise ValueError("network text must start with a NETWORK header")
    header = lines[0][len("NETWORK "):]
    n_field, _, rest = header.partition(" ")
    if not n_field.startswith("n="):
        raise ValueError(f"malformed NETWORK header {lines[0]!r}")
    if rest and not rest.startswith("label="):
        raise ValueError(f"malformed NETWORK header {lines[0]!r}")
    n = int(n_field[2:])
    label = rest[len("label="):]
    gates = []
    for ln in lines[1:]:
        tokens = ln.split()
        if len(tokens) < 2 or tokens[0] != "GATE":
            raise ValueError(f"malformed gate line {ln!r}")
        kind = tokens[1]
        if kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {kind!r}")
        n_t, n_c, has_angle = GATE_ARITY[kind]
        expected = 2 + n_t + n_c + (1 if has_angle else 0)
        if len(tokens) != expected:
            raise ValueError(f"gate line {ln!r} has {len(tokens)} fields, expected {expected}")
        pos = 2
        targets = tuple(int(tok) for tok in tokens[pos : pos + n_t])
        pos += n_t
        controls = tuple(int(tok) for tok in tokens[pos : pos + n_c])
        pos += n_c
        angle = float(tokens[pos]) if has_angle else None
        gates.append(Gate(kind, targets, controls, angle))
    return GateNetwork(n, tuple(gates), label)


@lru_cache(maxsize=None)
def _all_zeros(n_qubits: int) -> PureState:
    """|0...0>, built once per register size (a PureState is immutable)."""
    return basis_state(n_qubits, "0" * n_qubits)


def prepared_state(network: GateNetwork) -> PureState:
    """Convenience: the network applied to |0...0>."""
    return network.apply(_all_zeros(network.n_qubits))
