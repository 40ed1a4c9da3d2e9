import math

import numpy as np
import pytest
from scipy.signal import find_peaks

from isingcrit import dynamics
from isingcrit.criticality import (
    EVEN_SPLIT,
    INITIAL_STATE_SOURCES,
    INTERVALS,
    EchoScan,
    MixingAngle,
    default_b_z_grid,
    echo_scan,
    find_minima,
    ground_state_approx,
    ground_state_approx_even,
    ground_state_approx_odd,
    interval_boundaries,
    interval_index,
    mixing_angle_even,
    mixing_angle_odd,
)
from isingcrit.dynamics import ground_state, loschmidt_echo_exact
from isingcrit.hamiltonian import ChainParams, UnsupportedChainError, phase_state
from isingcrit.network import build_preparation_network, preparation_network
from isingcrit.states import fidelity, superposition


def test_mixing_angle_odd_examples():
    assert mixing_angle_odd(-2.0, 0.1).phi == pytest.approx(np.pi / 4)
    assert mixing_angle_odd(-2.0, 0.1).m == 1 and mixing_angle_odd(-2.0, 0.1).n == 2
    assert mixing_angle_odd(2.0, 0.1).m == 4 and mixing_angle_odd(2.0, 0.1).n == 3
    # deep in the uniform phase the angle closes to zero
    assert mixing_angle_odd(-3.0, 1e-6).phi < 1e-5
    # at the inner edge the ansatz is almost the pure alternating pattern
    edge = mixing_angle_odd(-1.0, 0.1)
    assert np.tan(edge.phi) == pytest.approx((1 + np.sqrt(1.01)) / 0.1, rel=1e-12)
    assert edge.phi == pytest.approx(1.520962, abs=1e-6)
    fid = fidelity(ground_state_approx_odd(3, -1.0, 0.1), ground_state(ChainParams(3, -1.0, 0.1)))
    assert fid == pytest.approx(0.998721, abs=1e-5)


def test_mixing_angle_rejects_zero_transverse_field():
    with pytest.raises(ValueError):
        mixing_angle_odd(-2.0, 0.0)
    with pytest.raises(ValueError):
        mixing_angle_even(-2.0, 0.0)
    with pytest.raises(ValueError):
        mixing_angle_odd(0.0, 0.1)


def test_mixing_angle_even_examples():
    assert mixing_angle_even(-2.0, 0.1).phi == pytest.approx(np.pi / 4)
    assert (mixing_angle_even(-2.0, 0.1).m, mixing_angle_even(-2.0, 0.1).n) == (1, 2)
    assert mixing_angle_even(-1.0, 0.1).phi == pytest.approx(np.pi / 4)
    assert (mixing_angle_even(-1.0, 0.1).m, mixing_angle_even(-1.0, 0.1).n) == (2, 3)
    assert (mixing_angle_even(2.0, 0.1).m, mixing_angle_even(2.0, 0.1).n) == (5, 4)
    assert (mixing_angle_even(0.5, 0.1).m, mixing_angle_even(0.5, 0.1).n) == (4, 3)
    # the branch switches exactly at |b_z| = 1.44
    assert (mixing_angle_even(-1.44, 0.1).m, mixing_angle_even(-1.44, 0.1).n) == (1, 2)
    assert (mixing_angle_even(-1.43, 0.1).m, mixing_angle_even(-1.43, 0.1).n) == (2, 3)


# The three mixing-angle formulas the ANSATZ table replaced, kept as exact oracles.
def _outer_phi_odd_reference(b_z, b_x):
    d = 2.0 - abs(b_z)
    return math.atan((d + math.sqrt(d * d + b_x * b_x)) / b_x)


def _outer_phi_even_reference(b_z, b_x):
    d = 2.0 - abs(b_z)
    return math.atan((d + math.sqrt(d * d + 2.0 * b_x * b_x)) / (math.sqrt(2.0) * b_x))


def _inner_phi_even_reference(b_z, b_x):
    d = 1.0 - abs(b_z)
    return math.atan((d + math.sqrt(d * d + b_x * b_x)) / b_x)


def _ansatz_fields():
    special = [-2.0, -1.0, 0.0, 1.0, 2.0, -EVEN_SPLIT, EVEN_SPLIT, -3.0, 3.0]
    near = [float(np.nextafter(c, d)) for c in special for d in (-np.inf, np.inf)]
    grid = np.round(np.arange(-700, 701) * 0.005, 12).tolist()
    return sorted(set(special + near + grid))


def test_mixing_angles_equal_the_replaced_formulas_exactly():
    for b_x in (1e-3, 0.05, 0.1, 0.37, 1.0, 2.5):
        for b_z in _ansatz_fields():
            if b_z != 0.0:
                pair = (1, 2) if b_z < 0 else (4, 3)
                assert mixing_angle_odd(b_z, b_x) == MixingAngle(
                    _outer_phi_odd_reference(b_z, b_x), *pair
                )
            k = interval_index("even", b_z)
            reference = _outer_phi_even_reference if k in (0, 3) else _inner_phi_even_reference
            pair = ((1, 2), (2, 3), (4, 3), (5, 4))[k]
            assert mixing_angle_even(b_z, b_x) == MixingAngle(reference(b_z, b_x), *pair)


# (parity, interval index) -> (replaced formula, positions of its gates in the network)
_NETWORK_PHI = {
    ("odd", 0): (_outer_phi_odd_reference, (0,)),
    ("odd", 2): (_outer_phi_odd_reference, (0,)),
    ("even", 0): (_outer_phi_even_reference, (0,)),
    ("even", 1): (_inner_phi_even_reference, (3, 4)),
    ("even", 2): (_inner_phi_even_reference, (3, 4)),
    ("even", 3): (_outer_phi_even_reference, (0,)),
}


def test_network_angles_equal_the_replaced_formulas_exactly():
    # identical gates give bit-identical protocol amplitudes; explicit
    # intervals keep their own formula even at a shared endpoint
    for (parity, k), (reference, positions) in _NETWORK_PHI.items():
        lo, hi = INTERVALS[parity][k]
        fields = [b for b in _ansatz_fields() if lo <= b <= hi]
        for b_x in (0.05, 0.1, 0.37):
            for b_z in fields:
                net = build_preparation_network(parity, (lo, hi), b_z, b_x)
                phi = reference(b_z, b_x)
                assert [net.gates[i].angle for i in positions] == [phi] * len(positions)
    for n, parity in ((3, "odd"), (4, "even")):
        for b_z in _ansatz_fields():
            k = interval_index(parity, b_z)
            if (parity, k) in _NETWORK_PHI:
                reference, positions = _NETWORK_PHI[parity, k]
                net = preparation_network(n, b_z, 0.1)
                phi = reference(b_z, 0.1)
                assert [net.gates[i].angle for i in positions] == [phi] * len(positions)


def test_default_grid_rejects_non_finite_input():
    for lo, hi, step in ((-3.0, math.inf, 0.02), (math.nan, 3.0, 0.02), (-3.0, 3.0, math.inf),
                         (-3.0, 3.0, math.nan), (-math.inf, 3.0, 0.02)):
        with pytest.raises(ValueError, match="finite"):
            default_b_z_grid(lo, hi, step)


def test_intervals_and_boundaries():
    assert interval_index("odd", -1.0) == 0
    assert interval_index("odd", 0.3) == 1
    assert interval_index("even", -1.44) == 0
    assert interval_index("even", 0.0) == 1
    assert interval_index("even", 1.44) == 3
    assert interval_boundaries("odd") == (-1.0, 1.0)
    assert interval_boundaries("even") == (-1.44, 0.0, 1.44)


def test_ground_state_approx_odd_examples():
    # deep paramagnetic: essentially the all-zeros ket
    s = ground_state_approx_odd(3, -3.0, 0.1)
    assert fidelity(s, ground_state(ChainParams(3, -3.0, 0.1))) >= 0.98
    # exactly at b_z = 0 the rule is the minus-superposition of the two patterns
    s0 = ground_state_approx_odd(3, 0.0, 0.1)
    target = superposition(3, {"010": 1.0, "101": -1.0})
    assert fidelity(s0, target) == pytest.approx(1.0, abs=1e-14)
    # measured against the dense oracle: the long-chain ansatz degrades
    f7 = fidelity(ground_state_approx_odd(7, -1.8, 0.1), ground_state(ChainParams(7, -1.8, 0.1)))
    assert f7 == pytest.approx(0.80570, abs=1e-4)


def test_ground_state_approx_even_examples():
    s = ground_state_approx_even(4, -3.0, 0.1)
    assert fidelity(s, ground_state(ChainParams(4, -3.0, 0.1))) >= 0.98
    s0 = ground_state_approx_even(4, 0.0, 0.1)
    assert fidelity(s0, phase_state(4, 3)) >= 0.99
    f8 = fidelity(ground_state_approx_even(8, -1.2, 0.1), ground_state(ChainParams(8, -1.2, 0.1)))
    assert f8 == pytest.approx(0.67822, abs=1e-4)


def test_ground_state_approx_validation():
    with pytest.raises(UnsupportedChainError):
        ground_state_approx_odd(4, -2.0, 0.1)
    with pytest.raises(UnsupportedChainError):
        ground_state_approx_even(3, -2.0, 0.1)
    with pytest.raises(UnsupportedChainError):
        ground_state_approx_even(2, -2.0, 0.1)
    with pytest.raises(ValueError):
        ground_state_approx_odd(3, -2.0, 0.0)


def test_short_chain_ansatz_fidelity_over_scan():
    # away from the rule-switching points the prepared state tracks the
    # exact ground state to better than 98% for the compiled chain sizes
    for n in (3, 4):
        parity = "odd" if n % 2 else "even"
        worst = 1.0
        for bz in default_b_z_grid(step=0.04):
            if min(abs(bz - b) for b in interval_boundaries(parity)) < 0.05:
                continue
            f = fidelity(ground_state_approx(n, bz, 0.1), ground_state(ChainParams(n, bz, 0.1)))
            worst = min(worst, f)
        print(f"N={n}: minimum ansatz fidelity over scan = {worst:.5f}")
        assert worst >= 0.98


def test_default_grid_hits_zero_exactly():
    grid = default_b_z_grid()
    assert 0.0 in grid
    assert grid[0] == -3.0 and grid[-1] == 3.0
    assert len(grid) == 301


def test_default_grid_never_steps_past_hi():
    # a step that does not divide hi - lo ends on the last point below hi
    assert default_b_z_grid(0.0, 1.0, 0.6).tolist() == [0.0, 0.6]
    grid = default_b_z_grid(-3.0, 3.0, 0.7)
    assert len(grid) == 9 and grid[-1] == 2.6


def test_default_grid_sizes_of_the_goldens_and_the_benchmark():
    # steps that divide the range up to float dust still end exactly on hi
    assert 0.3 / 0.1 < 3 and default_b_z_grid(0.0, 0.3, 0.1).tolist() == [0.0, 0.1, 0.2, 0.3]
    for step, size in ((0.02, 301), (0.005, 1201), (0.05, 121)):
        grid = default_b_z_grid(-3.0, 3.0, step)
        assert len(grid) == size and grid[0] == -3.0 and grid[-1] == 3.0
        assert np.array_equal(grid, np.round(-3.0 + np.arange(size) * step, 12))


def test_find_minima_recovers_parabola_vertex():
    xs = np.linspace(0, 4, 21)
    ys = (xs - 2.0) ** 2 + 0.3
    minima = find_minima(xs, ys, prominence=1e-6)
    assert len(minima) == 1
    assert minima[0][0] == pytest.approx(2.0, abs=1e-12)
    assert minima[0][1] == pytest.approx(0.3, abs=1e-12)


def test_find_minima_monotone_and_edge_cases():
    xs = np.linspace(0, 1, 11)
    assert find_minima(xs, np.linspace(1, 2, 11)) == []
    assert find_minima(xs, np.full(11, 0.5)) == []
    with pytest.raises(ValueError):
        find_minima([0.0, 1.0], [1.0, 2.0])


def test_find_minima_plateau_reports_leftmost():
    xs = np.arange(7.0)
    ys = np.array([3.0, 1.0, 1.0, 1.0, 2.0, 0.5, 2.5])
    minima = find_minima(xs, ys, prominence=0.2)
    assert len(minima) == 2
    assert minima[0] == (1.0, 1.0)  # plateau, unrefined, leftmost point
    assert minima[1][0] == pytest.approx(5.0, abs=0.5)


def test_find_minima_prominence_filters_ripples():
    xs = np.linspace(0, 10, 401)
    ys = 1.0 - 0.5 * np.exp(-((xs - 5) ** 2)) + 1e-5 * np.sin(20 * xs)
    deep_only = find_minima(xs, ys, prominence=1e-3)
    assert len(deep_only) == 1
    assert abs(deep_only[0][0] - 5.0) < 0.1
    with_ripples = find_minima(xs, ys, prominence=1e-9)
    assert len(with_ripples) > 5


def test_find_minima_agrees_with_scipy_peaks():
    rng = np.random.default_rng(17)
    xs = np.arange(300.0)
    ys = np.cumsum(rng.normal(size=300))
    ys += 0.001 * rng.normal(size=300)  # break ties
    for prom in (0.5, 2.0):
        ours = find_minima(xs, ys, prominence=prom)
        ref_idx, _ = find_peaks(-ys, prominence=prom)
        assert len(ours) == len(ref_idx)
        for (x, _), i in zip(ours, ref_idx):
            assert abs(x - xs[i]) <= 1.0


def test_echo_scan_flat_at_zero_perturbation():
    scan = echo_scan(3, 0.1, 0.0, np.pi, default_b_z_grid(step=0.5))
    assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in scan.grid)
    assert scan.minima == ()


def test_echo_scan_finds_crossovers_n7():
    scan = echo_scan(7, 0.1, 0.1, np.pi, default_b_z_grid(step=0.05))
    locations = sorted(b for b, _ in scan.minima)
    assert len(locations) == 3
    for found, expected in zip(locations, (-2.0, 0.0, 2.0)):
        assert abs(found - expected) <= 0.15


def test_echo_scan_finds_crossovers_n4():
    scan = echo_scan(4, 0.1, 0.1, np.pi, default_b_z_grid(step=0.05))
    locations = sorted(b for b, _ in scan.minima)
    assert len(locations) == 4
    for found, expected in zip(locations, (-2.0, -1.0, 1.0, 2.0)):
        assert abs(found - expected) <= 0.15


def test_echo_scan_symmetry_under_field_and_perturbation_flip():
    grid = default_b_z_grid(-2.5, 2.5, 0.5)
    fwd = echo_scan(4, 0.2, 0.15, 1.3, grid)
    rev = echo_scan(4, 0.2, -0.15, 1.3, grid)
    assert np.allclose(fwd.values, rev.values[::-1], atol=1e-9)


def test_echo_scan_validation():
    grid = default_b_z_grid(step=1.0)
    with pytest.raises(ValueError):
        echo_scan(3, 0.1, 0.1, np.pi, grid, value_kind="mystery")
    with pytest.raises(ValueError):
        echo_scan(3, 0.1, 0.1, np.pi, grid, value_kind="perturbative_echo",
                  initial_state_source="approx_ground")
    with pytest.raises(ValueError):
        echo_scan(3, 0.1, 0.1, np.pi, grid, value_kind="readout_amplitude",
                  initial_state_source="exact_ground")
    with pytest.raises(ValueError):
        EchoScan(3, 0.1, np.pi, 0.1, "exact_echo", "exact_ground",
                 ((0.0, 1.0), (0.0, 1.0)), ())


def test_refined_minima_stable_under_grid_halving():
    coarse = echo_scan(3, 0.1, 0.2, np.pi, default_b_z_grid(step=0.04))
    fine = echo_scan(3, 0.1, 0.2, np.pi, default_b_z_grid(step=0.02))
    assert len(coarse.minima) == len(fine.minima) == 3
    for (bc, _), (bf, _) in zip(coarse.minima, fine.minima):
        assert abs(bc - bf) < 0.04


def test_perturbative_scan_tracks_exact_scan():
    grid = default_b_z_grid(step=0.05)
    exact = echo_scan(5, 0.1, 0.1, np.pi, grid)
    pert = echo_scan(5, 0.1, 0.1, np.pi, grid, value_kind="perturbative_echo")
    assert np.max(np.abs(exact.values - pert.values)) < 0.05
    assert len(pert.minima) == len(exact.minima)


@pytest.mark.parametrize("epsilon", [0.1, -0.1, 0.03])
def test_exact_scan_solves_each_field_once(epsilon, monkeypatch):
    # b_z - epsilon is rounded like the grid, so a perturbed field that is a
    # grid point reuses that point's spectrum: 301 grid fields plus the 5
    # perturbed ones beyond the grid; an off-grid shift solves two per point
    solved = []
    solve = dynamics.spectral_for

    def counting_solve(params):
        solved.append(params)
        return solve(params)

    monkeypatch.setattr(dynamics, "spectral_for", counting_solve)
    echo_scan(7, 0.1, epsilon, np.pi, default_b_z_grid())
    assert len(solved) == len(set(solved))
    if epsilon == 0.03:
        assert len(solved) <= 602
    else:
        assert len(solved) == 306


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("source", INITIAL_STATE_SOURCES)
@pytest.mark.parametrize("epsilon", [0.1, -0.1])
def test_exact_scan_values_equal_per_point_echo(n, source, epsilon):
    grid = default_b_z_grid()
    scan = echo_scan(n, 0.1, epsilon, np.pi, grid, initial_state_source=source)
    expected = [
        loschmidt_echo_exact(
            ChainParams(n, bz, 0.1), epsilon, np.pi,
            ground_state_approx(n, bz, 0.1) if source == "approx_ground" else None,
        )
        for bz in grid
    ]
    assert np.array_equal(scan.values, expected)
