"""Property tests for the protocol readout, the interval table and the
network text format."""

import string

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isingcrit.criticality import interval_boundaries, interval_for
from isingcrit.gates import GATE_ARITY, Gate
from isingcrit.network import (
    AMPLITUDE_SLACK,
    GateNetwork,
    parse_network,
    preparation_network,
    protocol_network,
    run_protocol,
    serialize_network,
)
from isingcrit.states import basis_state

finite = st.floats(allow_nan=False, allow_infinity=False)
parities = st.sampled_from(["odd", "even"])


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([3, 4]),
    b_z=st.floats(-3.0, 3.0),
    b_x=st.floats(0.0, 0.5, exclude_min=True),
    epsilon=st.floats(-1.0, 1.0),
    tau=st.floats(0.0, 2 * np.pi),
    data=st.data(),
)
def test_protocol_readout_bounds(n, b_z, b_x, epsilon, tau, data):
    readout_qubit = data.draw(st.integers(1, n))
    net = preparation_network(n, b_z, b_x)
    res = run_protocol(net, epsilon, tau, readout_qubit)
    assert 0.0 <= res.l_value <= 1.0 + 1e-12
    assert res.amplitude <= res.l_value + AMPLITUDE_SLACK
    amps = protocol_network(net, epsilon, tau).apply(basis_state(n, "0" * n)).amplitudes
    populations = (amps * amps.conj()).real
    assert abs(populations.sum() - 1.0) <= 1e-12
    assert res.l_value == populations[0]


@given(parity=parities, data=st.data())
def test_interval_for_contains_the_field(parity, data):
    b = data.draw(st.one_of(st.floats(-3.0, 3.0), st.sampled_from(interval_boundaries(parity))))
    lo, hi = interval_for(parity, b)
    assert lo <= b <= hi
    # the edge rule: a boundary at or below 0 closes the interval on its left
    if b == lo:
        assert lo == -3.0 or lo > 0
    if b == hi:
        assert hi == 3.0 or hi <= 0


@given(parity=parities, b=st.floats(-3.0, 3.0))
def test_interval_for_is_mirror_symmetric_off_the_boundaries(parity, b):
    assume(b not in interval_boundaries(parity))
    lo, hi = interval_for(parity, b)
    assert interval_for(parity, -b) == (-hi, -lo)


@st.composite
def gates_on(draw, n_qubits):
    fitting = sorted(k for k, (n_t, n_c, _) in GATE_ARITY.items() if n_t + n_c <= n_qubits)
    kind = draw(st.sampled_from(fitting))
    n_t, n_c, has_angle = GATE_ARITY[kind]
    qubits = draw(st.permutations(range(1, n_qubits + 1)))[: n_t + n_c]
    angle = draw(finite) if has_angle else None
    return Gate(kind, tuple(qubits[:n_t]), tuple(qubits[n_t:]), angle)


@st.composite
def networks(draw):
    n = draw(st.integers(1, 5))
    gates = draw(st.lists(gates_on(n), max_size=8))
    label = draw(st.text(string.ascii_letters + string.digits + " [],.-", max_size=20))
    return GateNetwork(n, tuple(gates), label)


@given(networks())
def test_serialize_parse_round_trip(net):
    assert parse_network(serialize_network(net)) == net
