"""Gate-network realization of the measurement protocol.

A preparation network U0 maps |0...0> to the interval's approximate ground
state; the protocol network applies U0, the compiled diagonal echo step
exp(-i*tau*eps*sum sigma_z), then U0^dagger, and one qubit is read out. The
state is pure, so its computational-basis populations are |psi|^2, which is
the diagonal of the dephased density matrix. The readout amplitude is the
population difference A = P_s - P_n between the all-zeros ket and the ket
with only the readout qubit set, so A <= P_s always and the minima of A over
b_z land where the echo minima do.

Networks are defined for the three-qubit (odd) and four-qubit (even) chains.
A line-oriented text format serializes them: a NETWORK header followed by
one ``GATE kind target(s) [control(s)] [angle]`` line per gate, fields
space-separated, arity fixed by the kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .criticality import (
    ANSATZ,
    INTERVALS,
    _mixing_angle,
    default_b_z_grid,
    interval_index,
)
from .gates import GATE_ARITY, Gate, apply_gates
from .hamiltonian import ChainParams, UnsupportedChainError
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
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q > self.n_qubits for q in g.qubits):
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


def build_preparation_network(parity: str, interval, b_z: float, b_x: float) -> GateNetwork:
    """U0 for one preparation interval; acts on |0...0>.

    Only the experimentally compiled sizes exist: N=3 for odd parity, N=4
    for even. The construction reproduces the interval's two-phase ansatz
    exactly; networks for the mirrored (positive-field) intervals append NOT
    gates on every qubit.
    """
    if parity not in _NETWORKS:
        raise UnsupportedChainError(f"no networks for parity {parity!r}")
    lo, hi = float(interval[0]), float(interval[1])
    for k, (a, b) in enumerate(INTERVALS[parity]):
        if abs(a - lo) < 1e-9 and abs(b - hi) < 1e-9:
            return _NETWORKS[parity](k, b_z, b_x)
    raise ValueError(f"unknown {parity} interval {interval!r}")


def preparation_network(n_qubits: int, b_z: float, b_x: float) -> GateNetwork:
    """U0 for the interval containing b_z (N must be 3 or 4)."""
    if n_qubits not in (3, 4):
        raise UnsupportedChainError("preparation networks exist for N = 3 and N = 4 only")
    parity = "odd" if n_qubits % 2 else "even"
    return _NETWORKS[parity](interval_index(parity, b_z), b_z, b_x)


def _odd_network(k: int, b_z: float, b_x: float) -> GateNetwork:
    lo, hi = INTERVALS["odd"][k]
    label = f"odd [{lo:g},{hi:g}]"
    if k == 1:
        # pivot rotation on qubit 1, fan-out sets qubit3 = qubit1, qubit2 = NOT qubit1
        theta = 0.0 if b_z < 0 else (math.pi / 4 if b_z == 0 else math.pi / 2)
        gates = (
            Gate("RotY", (1,), angle=theta),
            Gate("CNOT", (3,), (1,)),
            Gate("NOT", (2,)),
            Gate("CNOT", (2,), (1,)),
        )
        return GateNetwork(3, gates, label)
    phi = _mixing_angle(ANSATZ["odd"][k], b_z, b_x).phi
    gates: tuple[Gate, ...] = (Gate("RotY", (2,), angle=phi),)
    if k == 2:
        gates = gates + tuple(Gate("NOT", (q,)) for q in (1, 2, 3))
    return GateNetwork(3, gates, label)


def _even_network(k: int, b_z: float, b_x: float) -> GateNetwork:
    lo, hi = INTERVALS["even"][k]
    label = f"even [{lo:g},{hi:g}]"
    phi = _mixing_angle(ANSATZ["even"][k], b_z, b_x).phi
    if k in (0, 3):
        gates = (
            Gate("RotY", (2,), angle=phi),
            Gate("ControlledRotY", (3,), (2,), angle=-math.pi / 4),
            Gate("CNOT", (2,), (3,)),
        )
    else:
        # Branch selector on qubits 2/3, then conditional rotations on the
        # chain ends; the trailing SWAP pair is the full chain reversal, which
        # leaves the (reversal-symmetric) target invariant and cancels against
        # the diagonal echo step in the composed protocol.
        gates = (
            Gate("Hadamard", (2,)),
            Gate("NOT", (3,)),
            Gate("CNOT", (3,), (2,)),
            Gate("ControlledRotY", (4,), (2,), angle=phi),
            Gate("ControlledRotY", (1,), (3,), angle=phi),
            Gate("SWAP", (2, 3)),
            Gate("SWAP", (1, 4)),
        )
    if k >= 2:
        gates = gates + tuple(Gate("NOT", (q,)) for q in (1, 2, 3, 4))
    return GateNetwork(4, gates, label)


_NETWORKS = {"odd": _odd_network, "even": _even_network}


def protocol_network(prep: GateNetwork, epsilon: float, tau: float) -> GateNetwork:
    """Full unitary part of the protocol: U0^dagger . echo step . U0."""
    echo = Gate("GlobalZEvolution", (), angle=tau * epsilon)
    gates = prep.gates + (echo,) + tuple(g.dagger() for g in reversed(prep.gates))
    return GateNetwork(prep.n_qubits, gates, f"{prep.label} protocol")


def cancel_swap_pairs(network: GateNetwork) -> GateNetwork:
    """Remove SWAP pairs separated only by global-Z evolution steps.

    The diagonal echo step is symmetric under any qubit permutation, so such
    pairs act as the identity; the simplified network is verified to agree
    with the original on every computational basis input.
    """
    gates = list(network.gates)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(gates):
            if g.kind != "SWAP":
                continue
            for j in range(i + 1, len(gates)):
                other = gates[j]
                if other.kind == "GlobalZEvolution":
                    continue
                if other.kind == "SWAP" and set(other.targets) == set(g.targets):
                    del gates[j]
                    del gates[i]
                    changed = True
                break
            if changed:
                break
    simplified = GateNetwork(network.n_qubits, tuple(gates), network.label)
    overlaps = np.abs(np.sum(network.unitary().conj() * simplified.unitary(), axis=0)) ** 2
    if np.any(overlaps < 1.0 - 1e-10):
        raise AssertionError("swap cancellation changed the network action")
    return simplified


def run_protocol(network: GateNetwork, epsilon: float, tau: float, readout_qubit: int) -> ReadoutResult:
    """Execute the protocol and read the population difference on one qubit."""
    n = network.n_qubits
    if not 1 <= readout_qubit <= n:
        raise ValueError(f"readout qubit {readout_qubit} outside 1..{n}")
    amps = protocol_network(network, epsilon, tau).apply(basis_state(n, "0" * n)).amplitudes
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
    if n_qubits not in (3, 4):
        raise UnsupportedChainError("protocol comparison exists for N = 3 and N = 4 only")
    parity = "odd" if n_qubits % 2 else "even"
    lo, hi = float(interval[0]), float(interval[1])
    worst = 0.0
    for bz in default_b_z_grid(lo, hi, step):
        net = build_preparation_network(parity, (lo, hi), bz, b_x)
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
    n = int(n_field[2:])
    label = rest[len("label="):] if rest.startswith("label=") else ""
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


def prepared_state(network: GateNetwork) -> PureState:
    """Convenience: the network applied to |0...0>."""
    return network.apply(basis_state(network.n_qubits, "0" * network.n_qubits))
