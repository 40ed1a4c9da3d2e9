import re
from pathlib import Path

import numpy as np
import pytest

from isingcrit.cli import main
from isingcrit.criticality import echo_scan, ground_state_approx
from isingcrit.dynamics import loschmidt_echo_exact
from isingcrit.gates import Gate, global_z_phases
from isingcrit.hamiltonian import (
    INTERVALS,
    ChainParams,
    ChainSizeError,
    UnsupportedChainError,
    default_b_z_grid,
)
from isingcrit.network import (
    GateNetwork,
    ReadoutResult,
    build_preparation_network,
    parse_network,
    preparation_network,
    prepared_state,
    protocol_network,
    protocol_point,
    protocol_vs_exact,
    run_protocol,
    serialize_network,
)
from isingcrit.states import basis_state, fidelity

GOLDEN = Path(__file__).parent / "golden"


def test_constructions_reproduce_the_ansatz_exactly():
    cases = [(3, bz) for bz in (-3.0, -2.0, -1.0, -0.4, 0.0, 0.4, 1.7, 2.0, 3.0)]
    cases += [(4, bz) for bz in (-3.0, -2.0, -1.44, -1.0, -0.5, 0.0, 0.5, 1.0, 1.44, 2.0, 3.0)]
    for n, bz in cases:
        net = preparation_network(n, bz, 0.1)
        f = fidelity(prepared_state(net), ground_state_approx(n, bz, 0.1))
        assert f >= 1 - 1e-10, (n, bz, f)


@pytest.mark.parametrize("b_x", [0.05, 0.1, 0.37])
def test_three_qubit_networks_prepare_the_ansatz_bit_for_bit(b_x):
    # both realizations read one mixing_angle, the odd middle interval's step included
    for bz in default_b_z_grid(step=0.005):
        net = preparation_network(3, bz, b_x)
        assert np.array_equal(prepared_state(net).amplitudes, ground_state_approx(3, bz, b_x).amplitudes), bz


@pytest.mark.parametrize("b_x", [0.0, -0.2])
@pytest.mark.parametrize("n, parity", [(3, "odd"), (4, "even")])
def test_both_realizations_reject_a_non_positive_transverse_field(n, parity, b_x):
    for lo, hi in INTERVALS[parity]:
        for bz in (lo, 0.5 * (lo + hi), hi):
            with pytest.raises(ValueError, match="b_x > 0"):
                ground_state_approx(n, bz, b_x)
            with pytest.raises(ValueError, match="b_x > 0"):
                preparation_network(n, bz, b_x)
            with pytest.raises(ValueError, match="b_x > 0"):
                build_preparation_network(n, (lo, hi), bz, b_x)


def test_crossover_network_prepares_equal_superposition():
    # at the left multiphase point the prepared state is the pi/4 mix of the
    # uniform and alternating patterns
    net = build_preparation_network(3, (-3.0, -1.0), -2.0, 0.1)
    psi = prepared_state(net).amplitudes
    assert psi[0b000] == pytest.approx(np.cos(np.pi / 4))
    assert psi[0b010] == pytest.approx(-np.sin(np.pi / 4))


def test_deep_phase_network_is_nearly_uniform():
    net = build_preparation_network(4, (-3.0, -1.44), -3.0, 0.1)
    psi = prepared_state(net).amplitudes
    assert abs(psi[0]) ** 2 >= 0.99


def test_middle_network_rotation_steps():
    # the three-branch pivot rotation: identity / pi/4 / pi/2
    for bz, target in ((-0.5, "010"), (0.5, "101")):
        net = build_preparation_network(3, (-1.0, 1.0), bz, 0.1)
        assert fidelity(prepared_state(net), basis_state(3, target)) >= 1 - 1e-12
    net0 = build_preparation_network(3, (-1.0, 1.0), 0.0, 0.1)
    psi = prepared_state(net0).amplitudes
    assert psi[0b010] == pytest.approx(1 / np.sqrt(2))
    assert psi[0b101] == pytest.approx(-1 / np.sqrt(2))


def test_network_unitary_is_unitary():
    for n, bz in ((3, -1.8), (4, -0.7)):
        u = preparation_network(n, bz, 0.1).unitary()
        assert np.max(np.abs(u.conj().T @ u - np.eye(2**n))) <= 1e-10


def test_unsupported_sizes_raise():
    with pytest.raises(UnsupportedChainError):
        preparation_network(5, -2.0, 0.1)
    with pytest.raises(ValueError):
        build_preparation_network(3, (-3.0, -1.44), -2.0, 0.1)
    with pytest.raises(UnsupportedChainError):
        build_preparation_network(5, (-3.0, -1.0), -2.0, 0.1)
    with pytest.raises(UnsupportedChainError):
        protocol_vs_exact(5, 0.1, 0.1, np.pi, (-3.0, -1.0))


def test_golden_serializations():
    cases = [
        ("net3_outer_left.txt", 3, INTERVALS["odd"][0], -2.0),
        ("net3_middle_zero.txt", 3, INTERVALS["odd"][1], 0.0),
        ("net3_outer_right.txt", 3, INTERVALS["odd"][2], 2.0),
        ("net4_outer_left.txt", 4, INTERVALS["even"][0], -2.0),
        ("net4_middle_left.txt", 4, INTERVALS["even"][1], -1.0),
        ("net4_middle_right.txt", 4, INTERVALS["even"][2], 1.0),
        ("net4_outer_right.txt", 4, INTERVALS["even"][3], 2.0),
    ]
    for fname, n, interval, bz in cases:
        net = build_preparation_network(n, interval, bz, 0.1)
        assert serialize_network(net) == (GOLDEN / fname).read_text(), fname


def test_serialization_round_trip():
    net = preparation_network(4, -1.0, 0.1)
    back = parse_network(serialize_network(net))
    assert back == net


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_network("GATE NOT 1\n")
    with pytest.raises(ValueError):
        parse_network("NETWORK n=2 label=x\nGATE NOT 1 2\n")
    with pytest.raises(ValueError):
        parse_network("NETWORK n=2 label=x\nGATE Spin 1\n")
    with pytest.raises(ValueError):
        parse_network("NETWORK n=2 label=x\nGATE\n")
    with pytest.raises(ValueError):
        parse_network("NETWORK n=0 label=x\n")
    with pytest.raises(ValueError):
        parse_network("NETWORK n=-1 label=x\n")
    with pytest.raises(ValueError):
        parse_network("NETWORK n=1 label=x\nGATE RotY 1 nan\n")
    with pytest.raises(ValueError):
        parse_network("NETWORK n=1 label=x\nGATE RotY 1 -inf\n")
    with pytest.raises(ValueError):
        parse_network("NETWORK n=3 foo=bar\nGATE NOT 1\n")


def test_network_register_is_capped_when_the_network_is_made():
    # a 2^15 register, or a 2^15-row bit table for a gate, would be built on the first
    # apply, prepared_state or unitary(); the cap is checked before any of them can run
    with pytest.raises(ChainSizeError, match=re.escape("n_qubits=15 exceeds the cap of 14")):
        parse_network("NETWORK n=15 label=x\nGATE NOT 1\n")
    with pytest.raises(ChainSizeError):
        GateNetwork(15, (Gate("NOT", (1,)),))
    assert parse_network("NETWORK n=14 label=x\nGATE NOT 1\n").n_qubits == 14


def test_run_protocol_identity_at_zero_perturbation():
    net = preparation_network(3, -2.0, 0.1)
    res = run_protocol(net, 0.0, np.pi, 2)
    assert res.amplitude == pytest.approx(1.0, abs=1e-12)
    assert res.l_value == pytest.approx(1.0, abs=1e-12)


def test_run_protocol_at_left_multiphase_point():
    # frozen from the dense oracle
    net = preparation_network(3, -2.0, 0.1)
    res = run_protocol(net, 0.2, np.pi, 2)
    assert res.l_value == pytest.approx(0.654508, abs=1e-6)
    assert res.amplitude == pytest.approx(0.309017, abs=1e-6)


def test_run_protocol_validates_qubit():
    net = preparation_network(3, -2.0, 0.1)
    with pytest.raises(ValueError):
        run_protocol(net, 0.1, np.pi, 4)


def test_readout_result_invariant():
    with pytest.raises(ValueError):
        ReadoutResult(1, amplitude=0.9, l_value=0.5)


def test_l_value_matches_direct_overlap_and_dephasing_preserves_it():
    n, bz, eps, tau = 4, -1.7, 0.5, np.pi / 2
    net = preparation_network(n, bz, 0.1)
    res = run_protocol(net, eps, tau, 1)
    u0 = net.unitary()
    full = u0.conj().T @ (np.diag(global_z_phases(n, tau * eps)) @ u0)
    s = np.zeros(2**n, dtype=complex)
    s[0] = 1.0
    assert res.l_value == pytest.approx(abs(np.vdot(s, full @ s)) ** 2, abs=1e-12)


def test_cnot_z_cnot_merges_to_zz_evolution():
    # conjugating a single-qubit z rotation by CNOTs gives the two-qubit one
    theta = 0.2 * np.pi
    seq = GateNetwork(2, (
        Gate("CNOT", (1,), (2,)),
        Gate("ZEvolution", (1,), angle=theta),
        Gate("CNOT", (1,), (2,)),
    ))
    zz = GateNetwork(2, (Gate("ZZEvolution", (1, 2), angle=theta),))
    assert np.max(np.abs(seq.unitary() - zz.unitary())) <= 1e-12


def test_protocol_network_and_swap_cancellation():
    prep = preparation_network(4, -1.0, 0.1)
    full = protocol_network(prep, 0.5, np.pi / 2)
    n_swaps = sum(1 for g in full.gates if g.kind == "SWAP")
    assert n_swaps == 4
    # the SWAPs pair up across the echo step, which any qubit permutation
    # leaves alone, so the network acts the same without them
    simplified = GateNetwork(4, tuple(g for g in full.gates if g.kind != "SWAP"))
    assert np.max(np.abs(full.unitary() - simplified.unitary())) <= 1e-10


def test_amplitude_bounded_by_l_value_over_scan():
    for n, eps, tau in ((3, 0.2, np.pi), (4, 0.5, np.pi / 2)):
        for bz in default_b_z_grid(step=0.25):
            res = run_protocol(preparation_network(n, bz, 0.1), eps, tau, 1)
            assert res.amplitude <= res.l_value + 1e-12


def test_protocol_vs_exact_discrepancy():
    assert protocol_vs_exact(3, 0.1, 0.0, np.pi, (-3.0, -1.0)) == pytest.approx(0.0, abs=1e-12)
    # frozen bound from the dense oracle (measured max 0.0393 over the
    # full axis at these settings)
    gap3 = protocol_vs_exact(3, 0.1, 0.2, np.pi, (-3.0, -1.0))
    assert gap3 <= 0.06
    gap4 = protocol_vs_exact(4, 0.1, 0.5, np.pi / 2, (-3.0, -1.44), step=0.04)
    assert gap4 <= 0.06


def _recorded_eigh_shapes(monkeypatch):
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    return shapes


def test_protocol_vs_exact_solves_each_field_magnitude_once(monkeypatch):
    # the interval's 101 points read their field and b_z - eps: 202 reads of 111 distinct
    # |b_z| (-3.2 ... -1), one stacked eigh at N = 3; the worst gap is, bit for bit, that
    # of each point's protocol against its own `loschmidt_echo_exact`
    grid = default_b_z_grid(-3.0, -1.0, 0.02)
    expected = max(
        abs(protocol_point(3, bz, 0.1, 0.2, np.pi, 1, (-3, -1))[1].l_value
            - loschmidt_echo_exact(ChainParams(3, bz, 0.1), 0.2, np.pi))
        for bz in grid)
    shapes = _recorded_eigh_shapes(monkeypatch)
    assert protocol_vs_exact(3, 0.1, 0.2, np.pi, (-3, -1)) == expected
    assert shapes == [(111, 6, 6)]


@pytest.mark.parametrize("n, interval, error", [
    (3, (-3.0, -0.5), ValueError), (5, (-3.0, -1.0), UnsupportedChainError),
])
def test_protocol_vs_exact_checks_every_point_before_any_solve(n, interval, error, monkeypatch):
    shapes = _recorded_eigh_shapes(monkeypatch)
    with pytest.raises(error):
        protocol_vs_exact(n, 0.1, 0.2, np.pi, interval)
    assert shapes == []


def test_a_protocol_sweep_computes_its_echo_phases_once(capsys):
    # one (N, tau * eps) per sweep: one phase diagonal, where each of the 1201 points made one
    assert main(["protocol", "--n", "4", "--bz-step", "0.005"]) == 0
    printed = capsys.readouterr().out
    global_z_phases.cache_clear()
    assert main(["protocol", "--n", "4", "--bz-step", "0.005"]) == 0
    assert capsys.readouterr().out == printed
    assert (global_z_phases.cache_info().misses, global_z_phases.cache_info().hits) == (1, 1200)


@pytest.mark.parametrize("n, interval, b_z", [(3, (-1.0, 1.0), 0.3), (4, (1.44, 3.0), 2.0)])
def test_a_non_unitary_echo_step_fails_the_final_norm_check(n, interval, b_z, monkeypatch):
    # the prepared state is unit-norm; the final amplitudes, after a diagonal scaled by 1.5,
    # are checked as an array with the message of a `PureState`
    monkeypatch.setattr("isingcrit.network.global_z_phases",
                        lambda n_qubits, angle: 1.5 * global_z_phases(n_qubits, angle))
    message = r"^state norm np\.float64\(1\.[45]\d*\) deviates from 1 beyond "
    with pytest.raises(ValueError, match=message):
        protocol_point(n, b_z, 0.1, 0.2, np.pi, 1, interval)
    with pytest.raises(ValueError, match=message):
        run_protocol(build_preparation_network(n, interval, b_z, 0.1), 0.2, np.pi, 1)


def test_protocol_minima_match_exact_echo_minima():
    grid = default_b_z_grid(step=0.05)
    scan_a = echo_scan(3, 0.1, 0.2, np.pi, grid, "readout_amplitude", "approx_ground",
                       readout_qubit=2)
    exact = echo_scan(3, 0.1, 0.2, np.pi, grid)
    assert len(scan_a.minima) == len(exact.minima) == 3
    for (ba, _), (be, _) in zip(scan_a.minima, exact.minima):
        assert abs(ba - be) <= 0.15
