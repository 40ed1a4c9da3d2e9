"""Property tests for the protocol readout, the interval table, the network
text format, the phase energies, the exact echo and minima detection."""

import string

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isingcrit.criticality import INTERVALS, find_minima, interval_boundaries, interval_index
from isingcrit.dynamics import loschmidt_echo_exact
from isingcrit.hamiltonian import ChainParams, closed_form_energy, phase_labels
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
    lo, hi = INTERVALS[parity][interval_index(parity, b)]
    assert lo <= b <= hi
    # the edge rule: a boundary at or below 0 closes the interval on its left
    if b == lo:
        assert lo == -3.0 or lo > 0
    if b == hi:
        assert hi == 3.0 or hi <= 0


@given(parity=parities, b=st.floats(-3.0, 3.0))
def test_interval_for_is_mirror_symmetric_off_the_boundaries(parity, b):
    assume(b not in interval_boundaries(parity))
    lo, hi = INTERVALS[parity][interval_index(parity, b)]
    assert INTERVALS[parity][interval_index(parity, -b)] == (-hi, -lo)


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


@given(n=st.integers(3, 14), b=finite)
def test_closed_form_energy_is_the_lowest_phase_energy(n, b):
    lowest = min(lab.energy(b) for lab in phase_labels(n))
    assert closed_form_energy(ChainParams(n, b, 0.0)) == lowest


echo_args = dict(
    n=st.integers(3, 6),
    b_z=st.floats(-3.0, 3.0),
    epsilon=st.floats(-0.5, 0.5),
    tau=st.floats(0.0, 2 * np.pi),
)


@settings(max_examples=60, deadline=None)
@given(b_x=st.floats(0.0, 1.0), **echo_args)
def test_exact_echo_is_a_probability(n, b_z, b_x, epsilon, tau):
    value = loschmidt_echo_exact(ChainParams(n, b_z, b_x), epsilon, tau)
    assert 0.0 <= value <= 1.0 + 1e-12


# Below b_x ~ 0.1 the two lowest levels of a chain at b_z = 0 split by about
# b_x^N (8e-12 at N = 5, b_x = 0.005), so the ground state itself is
# ill-conditioned and no echo computed from it is reproducible to 1e-10.
@settings(max_examples=60, deadline=None)
@given(b_x=st.floats(0.1, 1.0), **echo_args)
def test_exact_echo_is_invariant_under_field_reversal(n, b_z, b_x, epsilon, tau):
    # the global spin flip maps H(b_z) to H(-b_z) and V to -V
    forward = loschmidt_echo_exact(ChainParams(n, b_z, b_x), epsilon, tau)
    reversed_ = loschmidt_echo_exact(ChainParams(n, -b_z, b_x), -epsilon, tau)
    assert abs(forward - reversed_) <= 1e-10


# Integer scan values and half-integer prominences keep every comparison in
# find_minima a margin of a/2 away from a tie, so rounding in a*y + c cannot
# merge two values or flip a prominence test.
@given(
    ys=st.lists(st.integers(0, 50), min_size=3, max_size=40),
    a=st.floats(1e-3, 1e3),
    c=st.floats(-100.0, 100.0),
    prominence=st.integers(0, 5).map(lambda k: k + 0.5),
)
def test_find_minima_positions_are_invariant_under_affine_maps(ys, a, c, prominence):
    xs = np.arange(len(ys)) * 0.25 - 3.0
    ys = np.array(ys, dtype=float)
    before = [x for x, _ in find_minima(xs, ys, prominence)]
    after = [x for x, _ in find_minima(xs, a * ys + c, a * prominence)]
    assert len(after) == len(before)
    assert np.allclose(after, before, rtol=0.0, atol=1e-9)
