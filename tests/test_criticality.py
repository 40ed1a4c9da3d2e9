import math
import re
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.signal import find_peaks

from isingcrit import dynamics
from isingcrit.cli import main
from isingcrit.criticality import (
    INITIAL_STATE_SOURCES,
    EchoScan,
    echo_scan,
    find_minima,
    ground_state_approx,
)
from isingcrit.dynamics import ground_state, loschmidt_echo_exact
from isingcrit.hamiltonian import (
    EVEN_SPLIT,
    INTERVALS,
    MAX_GRID_POINTS,
    ChainParams,
    ChainSizeError,
    MixingAngle,
    UnsupportedChainError,
    default_b_z_grid,
    global_field_perturbation,
    interval_boundaries,
    interval_index,
    mixing_angle,
    phase_state,
)
from isingcrit.network import build_preparation_network, preparation_network
from isingcrit.perturbation import DegenerateGapError, echo_two_level
from isingcrit.states import fidelity, qubit_bit_values, superposition


def _angle(parity, b_z, b_x):
    """The mixing angle of the interval holding b_z."""
    return mixing_angle(parity, interval_index(parity, b_z), b_z, b_x)


def test_mixing_angle_odd_examples():
    assert _angle("odd", -2.0, 0.1).phi == pytest.approx(np.pi / 4)
    assert _angle("odd", -2.0, 0.1).m == 1 and _angle("odd", -2.0, 0.1).n == 2
    assert _angle("odd", 2.0, 0.1).m == 4 and _angle("odd", 2.0, 0.1).n == 3
    # deep in the uniform phase the angle closes to zero
    assert _angle("odd", -3.0, 1e-6).phi < 1e-5
    # at the inner edge the ansatz is almost the pure alternating pattern
    edge = _angle("odd", -1.0, 0.1)
    assert np.tan(edge.phi) == pytest.approx((1 + np.sqrt(1.01)) / 0.1, rel=1e-12)
    assert edge.phi == pytest.approx(1.520962, abs=1e-6)
    fid = fidelity(ground_state_approx(3, -1.0, 0.1), ground_state(ChainParams(3, -1.0, 0.1)))
    assert fid == pytest.approx(0.998721, abs=1e-5)


def test_mixing_angle_rejects_zero_transverse_field():
    with pytest.raises(ValueError):
        _angle("odd", -2.0, 0.0)
    with pytest.raises(ValueError):
        _angle("even", -2.0, 0.0)
    # the odd middle interval's step rule has the same b_x domain
    with pytest.raises(ValueError):
        _angle("odd", 0.0, 0.0)
    assert _angle("odd", 0.0, 0.1) == MixingAngle(math.pi / 4, 2, 3)


@pytest.mark.parametrize("parity, k, message", [
    ("odd", -1, "odd interval index -1 out of range 0..2"),
    ("odd", 7, "odd interval index 7 out of range 0..2"),
    ("spin", 0, "parity must be 'odd' or 'even', got 'spin'"),
])
def test_mixing_angle_rejects_an_unknown_interval(parity, k, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        mixing_angle(parity, k, 2.0, 0.1)


def test_mixing_angle_even_examples():
    assert _angle("even", -2.0, 0.1).phi == pytest.approx(np.pi / 4)
    assert (_angle("even", -2.0, 0.1).m, _angle("even", -2.0, 0.1).n) == (1, 2)
    assert _angle("even", -1.0, 0.1).phi == pytest.approx(np.pi / 4)
    assert (_angle("even", -1.0, 0.1).m, _angle("even", -1.0, 0.1).n) == (2, 3)
    assert (_angle("even", 2.0, 0.1).m, _angle("even", 2.0, 0.1).n) == (5, 4)
    assert (_angle("even", 0.5, 0.1).m, _angle("even", 0.5, 0.1).n) == (4, 3)
    # the branch switches exactly at |b_z| = 1.44
    assert (_angle("even", -1.44, 0.1).m, _angle("even", -1.44, 0.1).n) == (1, 2)
    assert (_angle("even", -1.43, 0.1).m, _angle("even", -1.43, 0.1).n) == (2, 3)


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


# the pivot angle the odd middle-interval network had before its ANSATZ row
def _middle_phi_odd_reference(b_z, b_x):
    return 0.0 if b_z < 0 else (math.pi / 4 if b_z == 0 else math.pi / 2)


def _ansatz_fields():
    special = [-2.0, -1.0, 0.0, 1.0, 2.0, -EVEN_SPLIT, EVEN_SPLIT, -3.0, 3.0]
    near = [float(np.nextafter(c, d)) for c in special for d in (-np.inf, np.inf)]
    grid = np.round(np.arange(-700, 701) * 0.005, 12).tolist()
    return sorted(set(special + near + grid))


def test_mixing_angles_equal_the_replaced_formulas_exactly():
    for b_x in (1e-3, 0.05, 0.1, 0.37, 1.0, 2.5):
        for b_z in _ansatz_fields():
            k = interval_index("odd", b_z)
            reference = _middle_phi_odd_reference if k == 1 else _outer_phi_odd_reference
            pair = ((1, 2), (2, 3), (4, 3))[k]
            assert mixing_angle("odd", k, b_z, b_x) == MixingAngle(reference(b_z, b_x), *pair)
            k = interval_index("even", b_z)
            reference = _outer_phi_even_reference if k in (0, 3) else _inner_phi_even_reference
            pair = ((1, 2), (2, 3), (4, 3), (5, 4))[k]
            assert mixing_angle("even", k, b_z, b_x) == MixingAngle(reference(b_z, b_x), *pair)


# (parity, interval index) -> (replaced formula, positions of its gates in the network)
_NETWORK_PHI = {
    ("odd", 0): (_outer_phi_odd_reference, (0,)),
    ("odd", 1): (_middle_phi_odd_reference, (0,)),
    ("odd", 2): (_outer_phi_odd_reference, (0,)),
    ("even", 0): (_outer_phi_even_reference, (0,)),
    ("even", 1): (_inner_phi_even_reference, (3, 4)),
    ("even", 2): (_inner_phi_even_reference, (3, 4)),
    ("even", 3): (_outer_phi_even_reference, (0,)),
}


def test_network_angles_equal_the_replaced_formulas_exactly():
    # identical gates give bit-identical protocol amplitudes; explicit
    # intervals keep their own formula even at a shared endpoint
    n_qubits = {"odd": 3, "even": 4}
    for (parity, k), (reference, positions) in _NETWORK_PHI.items():
        lo, hi = INTERVALS[parity][k]
        fields = [b for b in _ansatz_fields() if lo <= b <= hi]
        for b_x in (0.05, 0.1, 0.37):
            for b_z in fields:
                net = build_preparation_network(n_qubits[parity], (lo, hi), b_z, b_x)
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


def test_default_grid_refuses_more_points_than_its_cap_before_building_them():
    assert default_b_z_grid(0.0, MAX_GRID_POINTS - 1.0, 1.0).size == MAX_GRID_POINTS
    for lo, hi, step in ((0.0, float(MAX_GRID_POINTS), 1.0), (-3.0, 3.0, 1e-12),
                         (-3.0, 3.0, 5e-324), (-1e308, 1e308, 1.0)):
        with pytest.raises(ValueError, match=f"exceeds {MAX_GRID_POINTS} points"):
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
    s = ground_state_approx(3, -3.0, 0.1)
    assert fidelity(s, ground_state(ChainParams(3, -3.0, 0.1))) >= 0.98
    # exactly at b_z = 0 the rule is the minus-superposition of the two patterns
    s0 = ground_state_approx(3, 0.0, 0.1)
    target = superposition(3, {"010": 1.0, "101": -1.0})
    assert fidelity(s0, target) == pytest.approx(1.0, abs=1e-14)
    # measured against the dense oracle: the long-chain ansatz degrades
    f7 = fidelity(ground_state_approx(7, -1.8, 0.1), ground_state(ChainParams(7, -1.8, 0.1)))
    assert f7 == pytest.approx(0.80570, abs=1e-4)


def test_ground_state_approx_even_examples():
    s = ground_state_approx(4, -3.0, 0.1)
    assert fidelity(s, ground_state(ChainParams(4, -3.0, 0.1))) >= 0.98
    s0 = ground_state_approx(4, 0.0, 0.1)
    assert fidelity(s0, phase_state(4, 3)) >= 0.99
    f8 = fidelity(ground_state_approx(8, -1.2, 0.1), ground_state(ChainParams(8, -1.2, 0.1)))
    assert f8 == pytest.approx(0.67822, abs=1e-4)


@pytest.mark.parametrize("n", range(3, 15))
def test_ground_state_approx_is_reflection_even(n):
    # every phase ket is a palindrome or one of a mirror pair, so the ansatz is
    # unchanged by chain reversal bit for bit, on every interval, its edges and 0
    grid = default_b_z_grid()
    parity = "odd" if n % 2 else "even"
    assert {0.0, *(b for iv in INTERVALS[parity] for b in iv)} <= set(grid)
    rev = qubit_bit_values(n) @ (1 << np.arange(n))
    for bz in grid:
        a = ground_state_approx(n, bz, 0.1).amplitudes
        assert np.array_equal(a[rev], a), bz


def test_ground_state_approx_validation():
    with pytest.raises(UnsupportedChainError):
        ground_state_approx(2, -2.0, 0.1)
    with pytest.raises(ValueError):
        ground_state_approx(3, -2.0, 0.0)
    with pytest.raises(ChainSizeError, match="exceeds the cap"):
        ground_state_approx(15, -2.0, 0.1)


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


@pytest.mark.parametrize("value_kind, source", [
    ("exact_echo", "exact_ground"), ("exact_echo", "approx_ground"), ("perturbative_echo", "exact_ground"),
])
def test_echo_scan_rejects_a_non_increasing_grid_before_any_solve(value_kind, source, monkeypatch):
    solved = []
    for name in ("spectral_for", "even_spectral_for"):
        solve = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda params, solve=solve: solved.append(params) or solve(params))
    grid = default_b_z_grid(-1.0, 1.0, 0.1)[::-1]  # 21 points, decreasing
    with pytest.raises(ValueError, match="increasing"):
        echo_scan(9, 0.1, 0.1, np.pi, grid, value_kind=value_kind, initial_state_source=source)
    assert solved == []


@pytest.mark.parametrize("value_kind, source", [
    ("exact_echo", "exact_ground"), ("exact_echo", "approx_ground"), ("two_level_echo", "exact_ground"),
])
def test_echo_scan_rejects_a_short_grid_before_any_solve(value_kind, source, monkeypatch):
    solved = []
    for name in ("spectral_for", "even_spectral_for"):
        solve = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda params, solve=solve: solved.append(params) or solve(params))
    with pytest.raises(ValueError, match="at least 3 grid points"):
        echo_scan(8, 0.1, 0.1, np.pi, [0.0, 0.02], value_kind=value_kind, initial_state_source=source)
    assert solved == []


@pytest.mark.parametrize("n, b_x, error", [
    (9, -0.1, ValueError), (9, 0.0, ValueError), (2, 0.1, UnsupportedChainError),
    (1, 0.1, UnsupportedChainError),
])
def test_approx_ground_scan_rejects_its_chain_before_any_solve(n, b_x, error, monkeypatch):
    # the approximate ground state needs N >= 3 and b_x > 0; a scan checks both
    # before it starts solve threads or solves its first field
    _force_solve_threads(monkeypatch, 2)
    solved = []
    for name in ("spectral_for", "even_spectral_for"):
        solve = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda params, solve=solve: solved.append(params) or solve(params))
    before = threading.active_count()
    with pytest.raises(error):
        echo_scan(n, b_x, 0.1, np.pi, default_b_z_grid(step=0.5), initial_state_source="approx_ground")
    with pytest.raises(error):
        ground_state_approx(n, -2.0, b_x)
    assert solved == []
    assert threading.active_count() == before


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


def _counting_even_solver(monkeypatch):
    """Record every field the scan hands to `dynamics.even_spectral_for`."""
    solved = []
    solve = dynamics.even_spectral_for

    def counting_solve(params):
        solved.append(params)
        return solve(params)

    monkeypatch.setattr(dynamics, "even_spectral_for", counting_solve)
    return solved


def _force_solve_threads(monkeypatch, threads):
    monkeypatch.setattr(dynamics, "_solve_threads", lambda b_x: threads)


@pytest.mark.parametrize("epsilon, threads, source", [
    pytest.param(eps, threads, source, id=("" if source == "exact_ground" else "approx-")
                 + f"{eps}" + ("" if threads == 1 else f"-{threads}threads"))
    for source in INITIAL_STATE_SOURCES for threads in (1, 2) for eps in (0.1, -0.1, 0.03, 0.0)
])
def test_exact_scan_solves_each_field_once(epsilon, threads, source, monkeypatch):
    # each field is solved at |b_z|, a read at b_z < 0 being its spin-flipped mirror:
    # the 301 grid fields are 151 values of |b_z|. b_z - epsilon is rounded like the
    # grid, so at |epsilon| = 0.1 a perturbed field is a grid point or one of the 5
    # beyond it, |b_z| in 3.02 ... 3.1; at epsilon = 0.03 the 301 perturbed fields add
    # 152 off-grid values, 0.01 ... 3.03; no shift reads each point's own field twice.
    # Both initial states are reflection-even, so only that sector is solved.
    _force_solve_threads(monkeypatch, threads)
    solved = _counting_even_solver(monkeypatch)
    full_solves = []
    monkeypatch.setattr(dynamics, "spectral_for", full_solves.append)
    echo_scan(7, 0.1, epsilon, np.pi, default_b_z_grid(), initial_state_source=source)
    assert full_solves == []
    assert len(solved) == len(set(solved))
    assert all(p.b_z >= 0.0 for p in solved)
    assert len(solved) == {0.1: 156, -0.1: 156, 0.03: 303, 0.0: 151}[epsilon]


@pytest.mark.parametrize("value_kind, epsilon, solves", [
    ("exact_echo", 0.1, 156), ("exact_echo", -0.1, 156), ("exact_echo", 0.03, 303), ("two_level_echo", 0.1, 151),
])
def test_a_stacked_scan_solves_each_field_once(value_kind, epsilon, solves, monkeypatch):
    # at N = 5 (even blocks 20 wide) a 64 KiB stack holds 20 of them: the scan's distinct
    # |b_z| go to stacked eighs, on any W, with no one-field solve, and each value is, bit
    # for bit, the one of the point's own one-field solves
    points = [ChainParams(5, bz, 0.1) for bz in default_b_z_grid()]
    if value_kind == "exact_echo":
        expected = [dynamics.loschmidt_echo_exact(p, epsilon, np.pi) for p in points]
    else:
        v_even = dynamics.even_field_perturbation(5)
        expected = [echo_two_level(dynamics.even_spectral_for(p), v_even, epsilon, np.pi) for p in points]
    one_field = _counting_even_solver(monkeypatch)
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    _force_solve_threads(monkeypatch, 3)
    scan = echo_scan(5, 0.1, epsilon, np.pi, default_b_z_grid(), value_kind=value_kind)
    assert one_field == []
    assert all(shape[1:] == (20, 20) for shape in shapes)
    assert sum(shape[0] for shape in shapes) == solves
    assert len(shapes) == -(-solves // 20)
    assert scan.values.tobytes() == np.array(expected).tobytes()


def _live_spectra_peak(monkeypatch, name):
    """Patch `dynamics.<name>` to count the spectra it returned that are still alive;
    returns a list whose one entry is the peak of that count."""
    # reentrant, as a finalizer runs in whichever thread drops the last reference
    solve, lock, live, peak = getattr(dynamics, name), threading.RLock(), [0], [0]

    def release():
        with lock:
            live[0] -= 1

    def counting_solve(params):
        spec = solve(params)
        with lock:
            live[0] += 1
            peak[0] = max(peak[0], live[0])
        weakref.finalize(spec, release)
        return spec

    monkeypatch.setattr(dynamics, name, counting_solve)
    return peak


@pytest.mark.parametrize("source", INITIAL_STATE_SOURCES)
@pytest.mark.parametrize("epsilon, grid_order_peak", [(0.1, 6), (-0.1, 6), (0.03, 2), (0.0, 1)])
@pytest.mark.parametrize("threads", [1, 2])
def test_exact_scan_holds_each_spectrum_only_until_its_last_read(threads, epsilon, grid_order_peak,
                                                                 source, monkeypatch):
    # a field is held from its first read to its last. Read in grid order, at
    # |epsilon| = 0.1 that spans the 5 grid points between b_z and b_z - epsilon
    # (grid_order_peak); the scan visits the points chain by chain instead, so at most
    # the two fields of one point are held, and one when no shift reads a point's field
    # twice; W threads solve up to W fields more ahead of the reads
    _force_solve_threads(monkeypatch, threads)
    peak = _live_spectra_peak(monkeypatch, "even_spectral_for")
    echo_scan(7, 0.1, epsilon, np.pi, default_b_z_grid(), initial_state_source=source)
    assert 1 <= peak[0] <= min(grid_order_peak, 2) + (threads if threads > 1 else 0)


@pytest.mark.parametrize("value_kind", ["perturbative_echo", "two_level_echo"])
@pytest.mark.parametrize("threads", [1, 2])
def test_expansion_scans_hold_one_spectrum_at_a_time(threads, value_kind, monkeypatch):
    _force_solve_threads(monkeypatch, threads)
    peak = _live_spectra_peak(monkeypatch, "even_spectral_for")
    echo_scan(7, 0.1, 0.1, np.pi, default_b_z_grid(), value_kind=value_kind)
    assert 1 <= peak[0] <= 1 + (threads if threads > 1 else 0)


@pytest.mark.parametrize("value_kind, threads", [
    pytest.param(kind, threads, id=kind + ("" if threads == 1 else f"-{threads}threads"))
    for threads in (1, 2) for kind in ("perturbative_echo", "two_level_echo")
])
def test_expansion_scans_solve_the_even_sector_once_per_field(value_kind, threads, monkeypatch):
    _force_solve_threads(monkeypatch, threads)
    solved = _counting_even_solver(monkeypatch)
    echo_scan(7, 0.1, 0.1, np.pi, default_b_z_grid(), value_kind=value_kind)
    assert len(solved) == len(set(solved)) == 151
    assert all(p.b_z >= 0.0 for p in solved)


def test_two_level_scan_of_an_even_chain_at_small_transverse_field(tmp_path):
    # the reflection-odd partner of the N = 8 ground level sits 7.8-9.9e-11
    # above it at |b_z| <= 0.24, below DEGENERACY_TOL, so a full decomposition
    # reads the ground level as degenerate there; the even-sector levels do
    # not hold the partner, so the scan runs, and everywhere else it matches
    argv = ["echo-scan", "--n", "8", "--bx", "0.05", "--value-kind", "two_level_echo"]
    assert main(argv + ["--out", str(tmp_path / "scan.csv")]) == 0
    scan = echo_scan(8, 0.05, 0.1, np.pi, default_b_z_grid(), value_kind="two_level_echo")
    v = global_field_perturbation(8)
    for bz, value in scan.grid:
        full = dynamics.spectral_for(ChainParams(8, bz, 0.05))
        if abs(bz) <= 0.24:
            with pytest.raises(DegenerateGapError):
                echo_two_level(full, v, 0.1, np.pi)
        else:
            assert abs(value - echo_two_level(full, v, 0.1, np.pi)) <= 1e-13, bz


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("source", INITIAL_STATE_SOURCES)
@pytest.mark.parametrize("epsilon", [0.1, -0.1])
def test_exact_scan_values_equal_per_point_echo(n, source, epsilon):
    # the approx echo's link to loschmidt_echo_exact of the given state is the
    # property test_approx_echo_reads_only_the_even_levels
    grid = default_b_z_grid()
    scan = echo_scan(n, 0.1, epsilon, np.pi, grid, initial_state_source=source)
    points = [ChainParams(n, bz, 0.1) for bz in grid]
    if source == "exact_ground":
        expected = [loschmidt_echo_exact(p, epsilon, np.pi) for p in points]
    else:
        expected = [
            dynamics.echo_from_spectra(
                dynamics.even_spectral_for(p), dynamics.even_spectral_for(p.perturbed(epsilon)),
                dynamics.even_amplitudes(ground_state_approx(n, p.b_z, 0.1)), np.pi)
            for p in points
        ]
    assert np.array_equal(scan.values, expected)


def test_approx_scan_holds_no_full_basis_matrix(monkeypatch):
    # two 2^N x 2^N float64 matrices are 16.8 MB at N = 10; solved in both sectors
    # and mapped to 2^N rows, this scan traced 42 MB, in the even basis 9 MB
    _force_solve_threads(monkeypatch, 1)
    dynamics._reflection_sectors(10)  # the per-N sector tables are built outside the trace
    tracemalloc.start()
    try:
        echo_scan(10, 0.1, 0.1, np.pi, [-1.9, -1.88, -1.86], initial_state_source="approx_ground")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * 4**10, f"traced peak {peak} bytes"


def _scan_outcome(*args, **kwargs):
    """An echo scan's values and minima, or the type and message of what it raised."""
    try:
        scan = echo_scan(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return scan.values, np.array(scan.minima)


@pytest.mark.parametrize("b_x", [0.05, 0.1, -0.3])
@pytest.mark.parametrize("n", range(3, 9))
def test_echo_scans_are_bit_identical_on_any_number_of_solve_threads(n, b_x, monkeypatch):
    grid = default_b_z_grid(step=0.05)
    kinds = [("exact_echo", "exact_ground"), ("perturbative_echo", "exact_ground"),
             ("two_level_echo", "exact_ground"), ("exact_echo", "approx_ground")]
    outcomes = {}
    for threads in (1, 2, 3):
        _force_solve_threads(monkeypatch, threads)
        for kind, source in kinds:
            outcomes[threads, kind, source] = _scan_outcome(
                n, b_x, 0.1, np.pi, grid, value_kind=kind, initial_state_source=source)
    for (threads, kind, source), outcome in outcomes.items():
        serial = outcomes[1, kind, source]
        assert all(np.array_equal(a, b) for a, b in zip(outcome, serial)), (threads, kind, source)
    assert isinstance(outcomes[1, "exact_echo", "exact_ground"][0], np.ndarray)


@pytest.mark.parametrize("threads", [1, 3])
def test_a_failed_solve_raises_the_first_failure_in_the_scan_visit_order(threads, monkeypatch):
    # fields are solved at |b_z|; the first failing one the scan visits fails last
    _force_solve_threads(monkeypatch, threads)
    grid, failing = default_b_z_grid(), (1.0, 0.98, 0.5)
    reads = [(p, p.perturbed(-0.1)) for p in (ChainParams(7, bz, 0.1) for bz in grid)]
    order = dynamics._visit_order([[abs(q.b_z) for q in point] for point in reads])
    first = next(abs(q.b_z) for i in order for q in reads[i] if abs(q.b_z) in failing)
    solve = dynamics.even_spectral_for

    def failing_solve(params):
        if params.b_z in failing:
            if params.b_z == first:
                time.sleep(0.05)  # let a later field fail first
            raise RuntimeError(f"no spectrum at b_z = {params.b_z}")
        return solve(params)

    monkeypatch.setattr(dynamics, "even_spectral_for", failing_solve)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=rf"at b_z = {re.escape(str(first))}$"):
        echo_scan(7, 0.1, -0.1, np.pi, grid)
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 3])
def test_a_mid_scan_degenerate_gap_propagates_and_stops_the_solve_threads(threads, monkeypatch):
    # at B_x = 0 the ground level is degenerate at the crossovers, the first at b_z = -2
    _force_solve_threads(monkeypatch, threads)
    before = threading.active_count()
    with pytest.raises(DegenerateGapError):
        echo_scan(4, 0.0, 0.1, np.pi, default_b_z_grid(), value_kind="two_level_echo")
    assert threading.active_count() == before
