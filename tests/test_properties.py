"""Property tests for the protocol readout, the interval table, the network
text format, the phase energies, the exact echo (and its sector solves),
the level solver and minima detection."""

import string
import threading
import weakref
from contextlib import closing
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isingcrit import dynamics
from isingcrit.criticality import find_minima, ground_state_approx
from isingcrit.dynamics import (
    SpectralDecomposition,
    echo_from_spectra,
    even_amplitudes,
    even_spectral_for,
    levels_for,
    loschmidt_echo_exact,
    spectral_for,
)
from isingcrit.hamiltonian import (
    INTERVALS,
    ChainParams,
    closed_form_energy,
    interval_boundaries,
    interval_index,
    phase_labels,
)
from isingcrit.gates import GATE_ARITY, Gate
from isingcrit.network import (
    AMPLITUDE_SLACK,
    GateNetwork,
    parse_network,
    preparation_network,
    prepared_state,
    protocol_network,
    protocol_point,
    run_protocol,
    serialize_network,
)
from isingcrit.states import PureState, basis_state

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


# the interval edges, each with either sign, and 0
edge_fields = st.sampled_from([-3.0, -1.44, -1.0, 0.0, 1.0, 1.44, 3.0])


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([3, 4]),
    b_z=st.one_of(st.floats(-3.5, 3.5), edge_fields),
    b_x=st.floats(0.005, 2.0),
    epsilon=st.floats(-1.0, 1.0),
    tau=st.floats(0.0, 2 * np.pi),
)
def test_compiled_protocol_point_is_the_network_protocol(n, b_z, b_x, epsilon, tau):
    # bit for bit the gate-by-gate run of the same network, and within 1e-12 its unitaries
    net = preparation_network(n, b_z, b_x)
    prepared = prepared_state(net)
    composed = protocol_network(net, epsilon, tau).unitary()[:, 0]  # applied to |0...0>
    populations = (composed * composed.conj()).real
    for readout_qubit in range(1, n + 1):
        state, res = protocol_point(n, b_z, b_x, epsilon, tau, readout_qubit)
        ref = run_protocol(net, epsilon, tau, readout_qubit)
        assert np.array_equal(state.amplitudes, prepared.amplitudes)
        assert (res.amplitude, res.l_value) == (ref.amplitude, ref.l_value)
        assert np.max(np.abs(state.amplitudes - net.unitary()[:, 0])) <= 1e-12
        m = 1 << (n - readout_qubit)
        assert abs(res.l_value - populations[0]) <= 1e-12
        assert abs(res.amplitude - (populations[0] - populations[m])) <= 1e-12


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
# 2(1 - b_x^2) b_x^N (6.25e-12 at N = 5, b_x = 0.005), so the ground state itself is
# ill-conditioned and no echo computed from it is reproducible to 1e-10.
@settings(max_examples=60, deadline=None)
@given(b_x=st.floats(0.1, 1.0), **echo_args)
def test_exact_echo_is_invariant_under_field_reversal(n, b_z, b_x, epsilon, tau):
    # the global spin flip maps H(b_z) to H(-b_z) and V to -V
    forward = loschmidt_echo_exact(ChainParams(n, b_z, b_x), epsilon, tau)
    reversed_ = loschmidt_echo_exact(ChainParams(n, -b_z, b_x), -epsilon, tau)
    assert abs(forward - reversed_) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), b_x=st.floats(0.005, 1.0), b_z=st.floats(0.1, 3.0),
       epsilon=st.floats(-0.5, 0.5), tau=st.floats(0.0, 2 * np.pi))
def test_exact_echo_field_reversal_reads_the_mirrored_solves(n, b_z, b_x, epsilon, tau):
    # a solve at -b_z is the spin-flipped |b_z| solve, so the reversed echo reads the same
    # levels and the same vectors with their rows permuted: only the sums over the rows run
    # in another order, down to b_x = 0.005, where the 1e-10 property above stops. The odd-N
    # ground doublet at b_z = 0 is left out: below roundoff, its vectors are not reproducible.
    for b in (b_z, -b_z):
        forward = loschmidt_echo_exact(ChainParams(n, b, b_x), epsilon, tau)
        reversed_ = loschmidt_echo_exact(ChainParams(n, -b, b_x), -epsilon, tau)
        assert abs(forward - reversed_) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.integers(1, 8), min_size=3, max_size=60), start=st.integers(-80, 0),
       shift=st.integers(-12, 12), off_grid=st.booleans(), expansion=st.booleans(),
       threads=st.sampled_from([1, 2, 3]))
def test_scan_visit_order_covers_every_point_once_and_holds_at_most_two_fields(
        steps, start, shift, off_grid, expansion, threads):
    # random increasing grids (multiples of 0.05) and shifts, on or off the grid, planned at
    # N = 7, where each field is one `even_spectral_for` call (here a stand-in solve)
    grid = np.round((start + np.cumsum(steps)) * 0.05, 12)
    epsilon = round(shift * 0.05 + (0.013 if off_grid else 0.0), 12)
    points = [ChainParams(7, float(b), 0.1) for b in grid]
    reads = [(p,) if expansion else (p, p.perturbed(epsilon)) for p in points]
    lock, live, peak = threading.RLock(), [0], [0]
    d = dynamics._reflection_sectors(7)[0].kets.size

    def release():
        with lock:
            live[0] -= 1

    def solve(p):
        assert p.b_z >= 0.0  # each field is solved at |b_z|
        result = SpectralDecomposition(np.zeros(1), np.zeros((d, 1)))
        with lock:
            live[0] += 1
            peak[0] = max(peak[0], live[0])
        weakref.finalize(result, release)
        return result

    with mock.patch.object(dynamics, "_solve_threads", lambda b_x: threads), \
            mock.patch.object(dynamics, "even_spectral_for", solve):
        order, spectra = dynamics.plan(reads, dynamics.EVEN)
        with closing(spectra):
            for i in order:
                for _ in reads[i]:
                    assert isinstance(next(spectra), SpectralDecomposition)
    assert sorted(order) == list(range(len(points)))
    assert peak[0] <= 2 + (threads if threads > 1 else 0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 8), b_x=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
       b_z=st.floats(-3.0, 3.0), epsilon=st.floats(-0.5, 0.5), tau=st.floats(0.0, 2 * np.pi))
def test_default_echo_reads_only_the_even_levels(n, b_z, b_x, epsilon, tau):
    # the exact ground state is reflection-even (at B_x = 0 the even basis holds
    # one) and H + eps*V keeps that sector, so the echo computed in the even
    # basis equals the echo through both full decompositions
    params = ChainParams(n, b_z, b_x)
    spec = spectral_for(params)
    full = echo_from_spectra(spec, spectral_for(params.perturbed(epsilon)),
                             PureState(spec.eigenvectors[:, 0], n).amplitudes, tau)
    assert abs(loschmidt_echo_exact(params, epsilon, tau) - full) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 8), b_x=st.floats(0.05, 1.0), b_z=st.floats(-3.0, 3.0),
       epsilon=st.floats(-0.5, 0.5), tau=st.floats(0.0, 2 * np.pi))
def test_approx_echo_reads_only_the_even_levels(n, b_z, b_x, epsilon, tau):
    # the ansatz is reflection-even too, so an approx-ground scan's echo from the
    # even spectra equals the echo of the given state through both full decompositions
    params, approx = ChainParams(n, b_z, b_x), ground_state_approx(n, b_z, b_x)
    even = echo_from_spectra(even_spectral_for(params), even_spectral_for(params.perturbed(epsilon)),
                             even_amplitudes(approx), tau)
    assert abs(loschmidt_echo_exact(params, epsilon, tau, approx) - even) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), b_z=st.floats(-3.0, 3.0),
       b_x=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), epsilon=st.floats(-0.5, 0.5),
       tau=st.floats(0.0, 2 * np.pi), seed=st.integers(0, 2**32 - 1))
def test_given_state_echo_is_the_sum_over_both_sectors(n, b_z, b_x, epsilon, tau, seed):
    # a random complex state has an even and an odd part (none odd at N = 1, whose odd
    # sector is empty); H and V keep both sectors, so the echo amplitudes of the parts,
    # each propagated in its own sector, add up to the echo through both full decompositions
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi = PureState(amps / np.linalg.norm(amps), n)
    params = ChainParams(n, b_z, b_x)
    full = echo_from_spectra(spectral_for(params), spectral_for(params.perturbed(epsilon)),
                             psi.amplitudes, tau)
    assert abs(loschmidt_echo_exact(params, epsilon, tau, psi) - full) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), b_z=st.floats(-3.0, 3.0),
       b_x=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
def test_levels_for_is_the_spectrum_of_spectral_for(n, b_z, b_x):
    # the same sort or sector solves, with no eigenvector matrix built
    params = ChainParams(n, b_z, b_x)
    levels, w = levels_for(params), spectral_for(params).eigenvalues
    assert np.array_equal(levels, w)
    assert np.array_equal(np.signbit(levels), np.signbit(w))


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
