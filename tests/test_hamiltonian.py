import math

import numpy as np
import pytest

from isingcrit.hamiltonian import (
    ANSATZ,
    CROSSOVERS,
    EVEN_SPLIT,
    INTERVALS,
    ChainParams,
    ChainSizeError,
    UnsupportedChainError,
    build_hamiltonian,
    closed_form_energy,
    closed_form_ground,
    crossover_points,
    global_field_perturbation,
    hamiltonian_diagonal,
    mixing_angle,
    multiphase_family,
    phase_labels,
    phase_state,
)
from isingcrit.states import fidelity


def test_two_site_coupling_only():
    h = build_hamiltonian(ChainParams(2, 0.0, 0.0)).matrix
    assert np.array_equal(h, np.diag([1, -1, -1, 1]).astype(complex))


def test_single_site_matrix():
    h = build_hamiltonian(ChainParams(1, 0.7, 0.3)).matrix
    assert np.allclose(h, [[0.7, 0.3], [0.3, -0.7]])


def test_three_site_ground_energy_at_origin():
    w = np.linalg.eigvalsh(build_hamiltonian(ChainParams(3, 0.0, 0.0)).matrix)
    assert w[0] == pytest.approx(-2.0, abs=1e-12)


def test_chain_cap_enforced():
    with pytest.raises(ChainSizeError):
        ChainParams(15, 0.0, 0.0)


def test_phase_state_is_capped_like_chain_params():
    # a phase state, a phase's ket and a multiphase family are 2^N vectors; the
    # catalogue itself (phase_labels) stays uncapped
    assert phase_state(14, 1).amplitudes.size == 2**14
    assert [s.amplitudes.size for s in multiphase_family(14, 2.0)] == [2**14] * 7
    for n in (15, 16):
        builders = [lambda: phase_state(n, 1), lambda: multiphase_family(n, -2.0),
                    lambda: multiphase_family(n, 2.0), *(lab.state for lab in phase_labels(n))]
        for build in builders:
            with pytest.raises(ChainSizeError, match=f"n_qubits={n} exceeds the cap of 14"):
                build()
    assert len(phase_labels(15)) == 4 and len(phase_labels(16)) == 5


@pytest.mark.parametrize(
    "args, field",
    [
        ((3, np.nan, 0.0), "b_z"),
        ((3, np.inf, 0.1), "b_z"),
        ((3, 0.5, np.nan), "b_x"),
        ((3, 0.5, -np.inf), "b_x"),
        ((3.0, 0.5, 0.1), "n_qubits"),
        (("3", 0.5, 0.1), "n_qubits"),
    ],
)
def test_chain_params_reject_non_finite_fields_and_non_integer_size(args, field):
    with pytest.raises(ValueError, match=field):
        ChainParams(*args)


def test_chain_params_accept_numpy_integer_size():
    params = ChainParams(np.int64(3), np.float64(0.5), 0.1)
    assert params == ChainParams(3, 0.5, 0.1)
    assert type(params.n_qubits) is int and type(params.b_z) is float


def test_phase_catalog():
    odd = phase_labels(7)
    assert [lab.kets for lab in odd] == [
        ("0000000",), ("0101010",), ("1010101",), ("1111111",),
    ]
    even = phase_labels(4)
    assert [lab.kets for lab in even] == [
        ("0000",), ("0100", "0010"), ("0101", "1010"), ("1101", "1011"), ("1111",),
    ]
    assert [lab.interval for lab in odd] == [
        (-np.inf, -2.0), (-2.0, 0.0), (0.0, 2.0), (2.0, np.inf),
    ]
    assert [lab.interval for lab in even] == [
        (-np.inf, -2.0), (-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0), (2.0, np.inf),
    ]


def test_closed_form_ground_examples():
    (g,) = closed_form_ground(ChainParams(3, -3.0, 0.0))
    assert g.amplitudes[0] == 1
    (g,) = closed_form_ground(ChainParams(3, 1.0, 0.0))
    assert g.amplitudes[0b101] == 1
    (g,) = closed_form_ground(ChainParams(4, 0.0, 0.0))
    assert g.amplitudes[0b0101] == pytest.approx(1 / np.sqrt(2))
    assert g.amplitudes[0b1010] == pytest.approx(1 / np.sqrt(2))
    # on an interior crossover both meeting phases are returned, left first
    for n, bz, ks in ((3, 0.0, (2, 3)), (4, -1.0, (2, 3)), (4, 1.0, (3, 4))):
        states = closed_form_ground(ChainParams(n, bz, 0.0))
        assert len(states) == 2
        fids = [fidelity(s, phase_state(n, k)) for s, k in zip(states, ks)]
        assert fids == pytest.approx([1, 1])


def test_closed_form_ground_multiphase_point():
    states = closed_form_ground(ChainParams(3, -2.0, 0.0))
    assert len(states) == 2
    indices = {int(np.argmax(np.abs(s.amplitudes))) for s in states}
    assert indices == {0b000, 0b010}


def test_closed_form_energy_examples():
    assert closed_form_energy(ChainParams(3, -3.0, 0.0)) == pytest.approx(-7.0)
    assert closed_form_energy(ChainParams(4, 0.0, 0.0)) == pytest.approx(-3.0)
    assert closed_form_energy(ChainParams(4, -1.5, 0.0)) == pytest.approx(-4.0)


def test_closed_form_rejections():
    with pytest.raises(ValueError):
        closed_form_energy(ChainParams(3, 0.0, 0.1))
    with pytest.raises(UnsupportedChainError):
        closed_form_ground(ChainParams(2, 0.0, 0.0))
    with pytest.raises(UnsupportedChainError):
        closed_form_ground(ChainParams(1, 0.0, 0.0))


def test_crossover_points():
    assert crossover_points(7) == [-2.0, 0.0, 2.0]
    assert crossover_points(8) == [-2.0, -1.0, 1.0, 2.0]
    assert crossover_points(3) == [-2.0, 0.0, 2.0]


def test_closed_form_matches_diagonalization():
    # off the crossover points: minimum eigenvalue equals the piecewise form
    # and each closed-form state lies inside the exact ground eigenspace
    rng = np.random.default_rng(1)
    for n in range(3, 9):
        for bz in rng.uniform(-3, 3, size=12):
            if min(abs(bz - c) for c in crossover_points(n)) < 1e-6:
                continue
            params = ChainParams(n, float(bz), 0.0)
            diag = hamiltonian_diagonal(params)
            emin = float(np.min(diag))
            assert emin == pytest.approx(closed_form_energy(params), abs=1e-10)
            ground_idx = np.nonzero(diag <= emin + 1e-8)[0]
            for state in closed_form_ground(params):
                weight = float(np.sum(np.abs(state.amplitudes[ground_idx]) ** 2))
                assert weight >= 1 - 1e-10


def test_energy_branches_continuous_at_crossovers():
    for n in range(3, 9):
        for bc in crossover_points(n):
            below = closed_form_energy(ChainParams(n, bc - 1e-13, 0.0))
            above = closed_form_energy(ChainParams(n, bc + 1e-13, 0.0))
            assert abs(below - above) <= 1e-11


def _piecewise_energy_reference(n, bz):
    # closed_form_energy as hand-written branches, the form it had before it
    # was read from CROSSOVERS and PhaseLabel.energy
    if n % 2:
        if bz <= -2:
            return n * bz + (n - 1)
        if bz <= 0:
            return bz - (n - 1)
        if bz <= 2:
            return -bz - (n - 1)
        return -n * bz + (n - 1)
    if bz <= -2:
        return n * bz + (n - 1)
    if bz <= -1:
        return 2 * bz - (n - 3)
    if bz <= 1:
        return float(-(n - 1))
    if bz <= 2:
        return -2 * bz - (n - 3)
    return -n * bz + (n - 1)


def _fields_with_every_crossover():
    special = [-2.0, -1.0, 0.0, 1.0, 2.0, -EVEN_SPLIT, EVEN_SPLIT]
    near = [float(np.nextafter(c, d)) for c in special for d in (-np.inf, np.inf)]
    grid = np.round(np.arange(-400, 401) * 0.01, 12).tolist()
    rng = np.random.default_rng(5)
    return sorted(set(special + near + grid + rng.uniform(-50, 50, 200).tolist()))


def test_closed_form_energy_equals_piecewise_reference_exactly():
    fields = _fields_with_every_crossover()
    for n in range(3, 15):
        for bz in fields:
            expected = _piecewise_energy_reference(n, bz)
            assert closed_form_energy(ChainParams(n, bz, 0.0)) == expected


def test_phase_energy_equals_the_diagonal_of_every_ket():
    for n in range(3, 11):
        for bz in (-2.7, -2.0, -1.3, 0.0, 0.45, 1.0, 2.9):
            diag = hamiltonian_diagonal(ChainParams(n, bz, 0.0))
            for lab in phase_labels(n):
                for ket in lab.kets:
                    assert lab.energy(bz) == diag[int(ket, 2)]


def test_spin_flip_covariance():
    # conjugating by X on every site flips the sign of the longitudinal field
    for n, bz, bx in ((2, 0.7, 0.3), (3, -1.2, 0.45), (4, 2.2, 0.0)):
        h_pos = build_hamiltonian(ChainParams(n, bz, bx)).matrix
        h_neg = build_hamiltonian(ChainParams(n, -bz, bx)).matrix
        x_all = np.array([[1.0 + 0j]])
        for _ in range(n):
            x_all = np.kron(x_all, np.array([[0, 1], [1, 0]]))
        assert np.max(np.abs(x_all @ h_pos @ x_all - h_neg)) <= 1e-12


def _no_adjacent_interior_flip_count(n):
    # independent oracle for the multiphase-point degeneracy: flipped spins
    # must be interior and pairwise non-adjacent
    count = 0
    for b in range(2**n):
        bits = [(b >> (n - 1 - q)) & 1 for q in range(n)]
        if bits[0] or bits[-1]:
            continue
        if any(bits[i] and bits[i + 1] for i in range(n - 1)):
            continue
        count += 1
    return count


def test_multiphase_degeneracy_is_fibonacci():
    # the true eigenvalue degeneracy at B_z = +-2 grows like a Fibonacci
    # count (isolated interior flips are free); the staggered-front family
    # returned by the closed form is the (N+1)/2 / (N/2)-sized subset
    expected_counts = {3: 2, 4: 3, 5: 5, 6: 8, 7: 13, 8: 21}
    for n, expected in expected_counts.items():
        assert _no_adjacent_interior_flip_count(n) == expected
        for bc in (-2.0, 2.0):
            diag = hamiltonian_diagonal(ChainParams(n, bc, 0.0))
            measured = int(np.sum(diag <= np.min(diag) + 1e-8))
            assert measured == expected


def test_multiphase_family_members_are_exact_ground_states():
    for n in range(3, 9):
        for bc in (-2.0, 2.0):
            family = multiphase_family(n, bc)
            expected_size = (n + 1) // 2 if n % 2 else n // 2
            assert len(family) == expected_size
            diag = hamiltonian_diagonal(ChainParams(n, bc, 0.0))
            emin = float(np.min(diag))
            for state in family:
                energy = float(np.sum(np.abs(state.amplitudes) ** 2 * diag))
                assert energy == pytest.approx(emin, abs=1e-12)
            # endpoints are the two adjacent phase states
            k_lo, k_hi = (1, 2) if bc < 0 else ((3, 4) if n % 2 else (4, 5))
            fids = [
                max(fidelity(member, phase_state(n, k)) for member in family)
                for k in (k_lo, k_hi)
            ]
            assert min(fids) == pytest.approx(1.0, abs=1e-12)


def test_global_field_perturbation_diagonal():
    # V = -sum_i sigma_z^i is diagonal and kept as its diagonal
    v = global_field_perturbation(2)
    assert v.dtype == np.float64 and np.array_equal(v, [-2.0, 0.0, 0.0, 2.0])


@pytest.mark.parametrize("n_qubits", range(3, 11))
def test_ansatz_rows_mix_the_two_phases_meeting_at_a_crossover_of_their_interval(n_qubits):
    # a row (m, n, c) takes its crossover b_c from the phase table: there the two
    # phases are degenerate and the mixing angle is pi/4, the step rule's (c = None) included
    parity = "odd" if n_qubits % 2 else "even"
    labels = phase_labels(n_qubits)
    assert len(ANSATZ[parity]) == len(INTERVALS[parity])
    for k, (m, n, _) in enumerate(ANSATZ[parity]):
        assert abs(m - n) == 1
        b = CROSSOVERS[parity][min(m, n) - 1]
        lo, hi = INTERVALS[parity][k]
        assert lo <= b <= hi
        assert labels[m - 1].energy(b) == labels[n - 1].energy(b)
        assert mixing_angle(parity, k, b, 0.1).phi == pytest.approx(math.pi / 4)
    assert [k for k, row in enumerate(ANSATZ[parity]) if row[2] is None] == ([1] if parity == "odd" else [])
