"""Gate-network realization of the measurement protocol: the gate layer, built on
`gates`, `hamiltonian` and `states` only. Its cross-check against the exact echo,
`criticality.protocol_vs_exact`, lives with the echo scans.

A preparation network U0 maps |0...0> to the interval's approximate ground
state; the protocol network applies U0, the compiled diagonal echo step
exp(-i*tau*eps*sum sigma_z), then U0^dagger, and one qubit is read out.
The state is pure, so its computational-basis populations are |psi|^2, which
is the diagonal of the dephased density matrix. The readout amplitude is the
population difference A = P_s - P_n between the all-zeros ket and the ket
with only the readout qubit set, so A <= P_s always and the minima of A over
b_z land where the echo minima do.

Networks are defined for the three-qubit (odd) and four-qubit (even) chains
and built by `preparation_network` from `hamiltonian.mixing_angle`, the one
source of the ansatz angles: each size's core gate specs for the interval,
then a NOT on every qubit for a mirrored ANSATZ row (m > n). A spec's angle is
a constant or PHI, the interval's mixing angle. The three-qubit networks
prepare the ansatz states of `criticality.ground_state_approx` bit for bit.

One runner, `_run`, executes the protocol for both entry points: it checks the
readout qubit, runs U0 on |0...0>, the echo step and U0^dagger as placed kernel
steps, and reads the populations. `protocol_point`, the path of every sweep,
hands it an interval's steps, validated and placed once per process with their
phi unitaries free, and the point's angle; the echo step's phase diagonal is
computed once per (N, tau*eps). `run_protocol` hands it a given `GateNetwork`'s
gates, placed once each way. The composed `protocol_network` is the unitary
reference of both.

A line-oriented text format serializes them: a NETWORK header followed by
one ``GATE kind target(s) [control(s)] [angle]`` line per gate, fields
space-separated, arity fixed by the kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gates import GATE_ARITY, Gate, apply_gates, finite_angle, global_z_phases, placed, run_placed
from .hamiltonian import (
    INTERVALS,
    UnsupportedChainError,
    _require_register_size,
    chain_parity,
    interval_index,
    mixing_angle,
)
from .states import PureState, _require_unit_norm, basis_state

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
        if "".join(self.label.splitlines()) != self.label:  # it ends the one-line text header
            raise ValueError(f"network label {self.label!r} holds a line break")
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


def preparation_network(n_qubits: int, b_z: float, b_x: float, interval=None) -> GateNetwork:
    """U0 for one preparation interval of an N-qubit chain, `interval` or, for None, the
    one holding b_z; acts on |0...0>.

    Only the experimentally compiled sizes exist: N = 3 (odd) and N = 4
    (even). The network prepares the interval's two-phase ansatz from its
    `mixing_angle`; for a row with m > n (the mirrored, positive-field
    intervals) it ends with a NOT on every qubit.
    """
    parity, k, angle = _interval_angle(n_qubits, interval, b_z, b_x)
    specs = _gate_specs(n_qubits, k, angle.m > angle.n)
    gates = tuple(Gate(kind, t, c, angle.phi if a is PHI else a) for kind, t, c, a in specs)
    lo, hi = INTERVALS[parity][k]
    return GateNetwork(n_qubits, gates, f"{parity} [{lo:g},{hi:g}]")


def _interval_angle(n_qubits: int, interval, b_z: float, b_x: float):
    """(parity, k, mixing_angle) of interval k: the one given, or, for None, the one
    holding b_z. Raises UnsupportedChainError unless N is 3 or 4."""
    if n_qubits not in _GATES:
        raise UnsupportedChainError("preparation networks exist for N = 3 and N = 4 only")
    parity = chain_parity(n_qubits)
    if interval is None:
        k = interval_index(parity, b_z)
    else:
        key = (float(interval[0]), float(interval[1]))
        if key not in INTERVALS[parity]:
            raise ValueError(f"unknown {parity} interval {interval!r}")
        k = INTERVALS[parity].index(key)
    return parity, k, mixing_angle(parity, k, b_z, b_x)


# stands for the interval's mixing angle in a gate spec (kind, targets, controls, angle)
PHI = "phi"


def _odd_gates(k: int) -> tuple:
    """Gate specs taking |000> to the ansatz of odd interval k, before the mirror NOTs."""
    if k == 1:
        # pivot rotation on qubit 1, fan-out sets qubit3 = qubit1, qubit2 = NOT qubit1
        return (
            ("RotY", (1,), (), PHI),
            ("CNOT", (3,), (1,), None),
            ("NOT", (2,), (), None),
            ("CNOT", (2,), (1,), None),
        )
    return (("RotY", (2,), (), PHI),)


def _even_gates(k: int) -> tuple:
    """Gate specs taking |0000> to the ansatz of even interval k, before the mirror NOTs."""
    if k in (0, 3):
        return (
            ("RotY", (2,), (), PHI),
            ("ControlledRotY", (3,), (2,), -math.pi / 4),
            ("CNOT", (2,), (3,), None),
        )
    # Branch selector on qubits 2/3, then conditional rotations on the
    # chain ends; the trailing SWAP pair is the full chain reversal, which
    # leaves the (reversal-symmetric) target invariant and cancels against
    # the diagonal echo step in the composed protocol.
    return (
        ("Hadamard", (2,), (), None),
        ("NOT", (3,), (), None),
        ("CNOT", (3,), (2,), None),
        ("ControlledRotY", (4,), (2,), PHI),
        ("ControlledRotY", (1,), (3,), PHI),
        ("SWAP", (2, 3), (), None),
        ("SWAP", (1, 4), (), None),
    )


# the compiled chain sizes
_GATES = {3: _odd_gates, 4: _even_gates}


def _gate_specs(n_qubits: int, k: int, mirrored: bool) -> tuple:
    """U0's gate specs for interval k: the size's core gates, then for a mirrored row a NOT
    on every qubit."""
    specs = _GATES[n_qubits](k)
    if mirrored:
        specs += tuple(("NOT", (q,), (), None) for q in range(1, n_qubits + 1))
    return specs


def _steps(network: GateNetwork, free=None) -> tuple[tuple, tuple]:
    """U0 and U0^dagger of network as placed kernel steps; where free[i] is true, gate i's
    unitary is left a function of the angle, run at -angle in U0^dagger."""
    free = free or (False,) * len(network.gates)
    n, gates = network.n_qubits, network.gates
    forward = tuple(placed(n, g, f) for g, f in zip(gates, free))
    inverse = tuple(placed(n, g.dagger(), f) for g, f in zip(gates[::-1], free[::-1]))
    return forward, inverse


@lru_cache(maxsize=None)
def _compiled(n_qubits: int, k: int, mirrored: bool) -> tuple:
    """(U0, U0^dagger, kind of U0's first phi gate) for interval k, U0 and U0^dagger as
    placed kernel steps whose phi unitaries are free (U0^dagger runs at -phi).

    The gates are validated and placed here, once per interval, on a stand-in angle.
    """
    specs = _gate_specs(n_qubits, k, mirrored)
    gates = tuple(Gate(kind, t, c, 0.0 if a is PHI else a) for kind, t, c, a in specs)
    free = [a is PHI for *_, a in specs]
    return *_steps(GateNetwork(n_qubits, gates), free), specs[free.index(True)][0]


def protocol_network(prep: GateNetwork, epsilon: float, tau: float) -> GateNetwork:
    """Full unitary part of the protocol: U0^dagger . echo step . U0."""
    echo = Gate("GlobalZEvolution", (), angle=tau * epsilon)
    gates = prep.gates + (echo,) + tuple(g.dagger() for g in reversed(prep.gates))
    return GateNetwork(prep.n_qubits, gates, f"{prep.label} protocol")


def _run(n_qubits: int, forward, inverse, phi: float, epsilon: float, tau: float,
         readout_qubit: int) -> tuple[PureState, ReadoutResult]:
    """The protocol, the one runner of both entry points: U0 (the placed steps forward, free
    unitaries at phi) on |0...0>, the echo step, U0^dagger (inverse, at -phi), then P_s - P_n
    on the readout qubit and P_s from the final populations. Returns the prepared state U0|0...0>
    with the readout; the readout qubit and the echo angle are checked before any gate runs, and
    the final amplitudes' norm, as a `PureState`'s would be, with no state built of them.
    """
    if not 1 <= readout_qubit <= n_qubits:
        raise ValueError(f"readout qubit {readout_qubit} outside 1..{n_qubits}")
    echo = (None, global_z_phases(n_qubits, finite_angle("GlobalZEvolution", tau * epsilon)))
    prepared = PureState(run_placed(_all_zeros(n_qubits).amplitudes, forward, phi), n_qubits)
    amps = run_placed(prepared.amplitudes, (echo,) + inverse, -phi)
    _require_unit_norm(np.linalg.norm(amps))
    populations = (amps * amps.conj()).real
    l_value = float(populations[0])
    m = 1 << (n_qubits - readout_qubit)
    return prepared, ReadoutResult(readout_qubit, l_value - float(populations[m]), l_value)


def run_protocol(
    network: GateNetwork,
    epsilon: float,
    tau: float,
    readout_qubit: int,
) -> ReadoutResult:
    """Execute the protocol and read the population difference on one qubit.

    U0 is the network applied to |0...0> (`prepared_state`); the echo step and U0^dagger
    follow, the network's gates placed once each way.
    """
    return _run(network.n_qubits, *_steps(network), 0.0, epsilon, tau, readout_qubit)[1]


def protocol_point(
    n_qubits: int,
    b_z: float,
    b_x: float,
    epsilon: float,
    tau: float,
    readout_qubit: int,
    interval=None,
) -> tuple[PureState, ReadoutResult]:
    """The prepared state U0|0...0> and the readout of one protocol point, bit for bit
    `prepared_state(net)` and `run_protocol(net, ...)` of `net = preparation_network(...)`.

    U0 is the network of `interval`, or, for None, of the interval holding b_z. Each
    interval's gates are validated once per process, and the echo step's phases
    (`global_z_phases`) are computed once per (N, tau*eps); a point computes its mixing
    angle and runs U0, the echo step and U0^dagger through the gate kernel, with the same
    checks and messages as the networks.
    """
    _, k, angle = _interval_angle(n_qubits, interval, b_z, b_x)
    forward, inverse, phi_kind = _compiled(n_qubits, k, angle.m > angle.n)
    phi = finite_angle(phi_kind, angle.phi)
    return _run(n_qubits, forward, inverse, phi, epsilon, tau, readout_qubit)


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
