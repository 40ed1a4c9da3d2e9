import dataclasses
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import isingcrit
from isingcrit import cli
from isingcrit.cli import main

from isingcrit.dynamics import (
    SpectralDecomposition,
    _fix_phases,
    _reflection_sectors,
    diagonalize,
    echo_from_spectra,
    even_amplitudes,
    even_spectral_for,
    gap,
    ground_echo,
    ground_energy,
    ground_state,
    ground_states,
    levels_for,
    even_field_perturbation,
    loschmidt_echo_exact,
    spectral_for,
)
from isingcrit import dynamics
from isingcrit.criticality import ground_state_approx
from isingcrit.gates import global_z_phases
from isingcrit.hamiltonian import (
    CROSSOVERS,
    EVEN_SPLIT,
    MAX_QUBITS,
    ChainParams,
    ChainSizeError,
    build_hamiltonian,
    default_b_z_grid,
    diagonal_terms,
    global_field_perturbation,
    hamiltonian_diagonal,
)
from isingcrit.perturbation import echo_perturbative, echo_two_level
from isingcrit.states import (
    HermitianOperator,
    PureState,
    basis_state,
    fidelity,
    qubit_bit_values,
    sigma_z_values,
    superposition,
)


def _random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(amps / np.linalg.norm(amps), n)


def _random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def test_diagonalize_diagonal_input():
    spec = diagonalize(np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))
    assert np.array_equal(spec.eigenvalues, [-1.0, -1.0, 1.0, 1.0])
    # eigenvectors are basis kets in stable (original index) order, held as that order
    assert np.array_equal(spec.vectors, [1, 2, 0, 3])
    assert spec.eigenvectors.dtype == np.complex128
    assert np.array_equal(spec.eigenvectors, np.eye(4)[:, [1, 2, 0, 3]])


def test_diagonalize_pauli_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    spec = diagonalize(sx)
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
    r = 1 / np.sqrt(2)
    assert np.allclose(np.abs(spec.eigenvectors), [[r, r], [r, r]], atol=1e-12)
    assert np.allclose(sx @ spec.eigenvectors[:, 0], -spec.eigenvectors[:, 0])


def test_diagonalize_chain_ground_energy():
    spec = spectral_for(ChainParams(3, 0.0, 0.0))
    assert spec.ground_energy == pytest.approx(-2.0, abs=1e-12)


def test_diagonalize_reconstructs_and_orthonormal():
    rng = np.random.default_rng(21)
    for d in (4, 8, 16):
        h = _random_hermitian(rng, d)
        spec = diagonalize(h)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        scale = np.max(np.abs(h))
        assert np.max(np.abs(rebuilt - h)) <= 1e-10 * scale
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-10


def test_diagonalize_phase_convention():
    rng = np.random.default_rng(22)
    spec = diagonalize(_random_hermitian(rng, 8))
    for col in spec.eigenvectors.T:
        pivot = col[np.argmax(np.abs(col))]
        assert pivot.real > 0 and abs(pivot.imag) <= 1e-12


def test_diagonalize_rejects_non_hermitian():
    with pytest.raises(ValueError):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_gap_examples():
    assert gap(ChainParams(3, -2.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert gap(ChainParams(1, 0.0, 0.4)) == pytest.approx(0.8, abs=1e-12)


def test_gap_minimum_sits_near_crossover():
    # dense sweep over [-3,-1]: the lifted crossing leaves a positive minimum
    grid = np.round(-3.0 + np.arange(201) * 0.01, 12)
    gaps = [gap(ChainParams(7, bz, 0.1)) for bz in grid]
    i = int(np.argmin(gaps))
    assert gaps[i] > 0
    assert abs(grid[i] - (-2.0)) <= 0.05


def _propagated(spec, state, t):
    """`spec.propagate` of a state's amplitudes, as a state: the norm is checked on the way."""
    return PureState(spec.propagate(state.amplitudes, t), state.n_qubits)


def test_propagate_identity_at_zero_time():
    psi = basis_state(2, "01")
    for bx in (0.2, 0.0):  # dense eigenvectors, and the sort order of a diagonal
        h = build_hamiltonian(ChainParams(2, 0.3, bx))
        assert np.allclose(_propagated(diagonalize(h), psi, 0.0).amplitudes, psi.amplitudes)


def test_propagate_eigenstate_phase_only():
    sz = HermitianOperator(np.diag([1.0, -1.0]).astype(complex), 1)
    out = _propagated(diagonalize(sz), basis_state(1, "0"), 0.7)
    assert fidelity(out, basis_state(1, "0")) == pytest.approx(1.0, abs=1e-12)
    assert out.amplitudes[0] == pytest.approx(np.exp(-1j * 0.7))


def test_propagate_plus_state_quarter_turn():
    # |<+|exp(-i*pi*sigma_z/2)|+>|^2 = 0
    plus = superposition(1, {"0": 1.0, "1": 1.0})
    sz = HermitianOperator(np.diag([1.0, -1.0]).astype(complex), 1)
    out = _propagated(diagonalize(sz), plus, np.pi / 2)
    assert fidelity(out, plus) == pytest.approx(0.0, abs=1e-12)


def test_propagate_unitary_and_group_property():
    rng = np.random.default_rng(33)
    for i in range(25):
        n = int(rng.integers(1, 5))
        psi = _random_state(rng, n)
        m = _random_hermitian(rng, 2**n) if i % 2 else np.diag(rng.normal(size=2**n))
        t1, t2 = rng.uniform(0, 3, size=2)
        spec = diagonalize(HermitianOperator(m, n))
        once = _propagated(spec, psi, t1 + t2)
        twice = _propagated(spec, _propagated(spec, psi, t1), t2)
        assert abs(np.linalg.norm(once.amplitudes) - 1) <= 1e-12
        assert fidelity(once, twice) >= 1 - 1e-10


def test_propagate_matches_expm_oracle():
    rng = np.random.default_rng(34)
    for i in range(10):
        n = int(rng.integers(1, 4))
        psi = _random_state(rng, n)
        m = _random_hermitian(rng, 2**n) if i % 2 else np.diag(rng.normal(size=2**n))
        t = float(rng.uniform(0, 2))
        expected = expm(-1j * m * t) @ psi.amplitudes
        got = _propagated(diagonalize(HermitianOperator(m, n)), psi, t).amplitudes
        assert np.allclose(got, expected, atol=1e-11)


def test_echo_trivial_cases():
    params = ChainParams(3, -1.3, 0.1)
    assert loschmidt_echo_exact(params, 0.0, 2.1) == pytest.approx(1.0, abs=1e-12)
    assert loschmidt_echo_exact(params, 0.4, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_echo_matches_expm_oracle():
    # exact echo against full matrix exponentials of H and H + eps*V
    rng = np.random.default_rng(35)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        bz, bx = rng.uniform(-3, 3), rng.uniform(0.05, 0.5)
        eps, t = rng.uniform(-0.3, 0.3), rng.uniform(0, 4)
        params = ChainParams(n, bz, bx)
        h0 = build_hamiltonian(params).matrix
        h1 = build_hamiltonian(params.perturbed(eps)).matrix
        psi = ground_state(params).amplitudes
        amp = psi.conj() @ (expm(1j * h1 * t) @ (expm(-1j * h0 * t) @ psi))
        assert loschmidt_echo_exact(params, eps, t) == pytest.approx(
            abs(amp) ** 2, abs=1e-11
        )


def test_echo_range_and_symmetry():
    rng = np.random.default_rng(36)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        bz, bx = rng.uniform(-3, 3), rng.uniform(0.01, 0.5)
        eps, t = rng.uniform(-0.3, 0.3), rng.uniform(0, 2 * np.pi)
        left = loschmidt_echo_exact(ChainParams(n, bz, bx), eps, t)
        right = loschmidt_echo_exact(ChainParams(n, -bz, bx), -eps, t)
        assert -1e-12 <= left <= 1 + 1e-12
        assert abs(left - right) <= 1e-10


def test_echo_is_one_inside_phases_at_zero_transverse_field():
    # V commutes with the diagonal H and the closed-form state is an eigenstate
    from isingcrit.hamiltonian import closed_form_ground

    for n, bz in ((3, -1.2), (4, 0.4), (5, 2.5)):
        params = ChainParams(n, bz, 0.0)
        (g,) = closed_form_ground(params)
        for t in (0.3, 1.7, 6.0):
            assert loschmidt_echo_exact(params, 0.17, t, g) == pytest.approx(1.0, abs=1e-10)


def test_trotter_step_fidelity_at_left_multiphase_point():
    # one compiled step against the exact composed evolution on the prepared
    # state; frozen from the dense oracle (the squared overlap sits just
    # below 0.97 for this parameter set)
    n, bz, bx, eps, tau = 3, -2.0, 0.1, 0.2, np.pi
    psi = ground_state_approx(n, bz, bx).amplitudes
    u = expm(-1j * tau * build_hamiltonian(ChainParams(n, bz, bx)).matrix)
    up_dag = expm(1j * tau * build_hamiltonian(ChainParams(n, bz - eps, bx)).matrix)
    w = global_z_phases(n, tau * eps).conj() * (up_dag @ (u @ psi))
    fid = abs(np.vdot(psi, w)) ** 2
    assert fid == pytest.approx(0.968606, abs=1e-5)


def _solver_fields():
    """(b_z, b_x) pairs: zero transverse field, the crossovers, seeded random."""
    fields = [(bz, 0.0) for bz in (-2.5, -1.0, 0.0, 0.7)]
    fields += [(bz, 0.1) for bz in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    rng = np.random.default_rng(40)
    fields += [(float(rng.uniform(-3, 3)), float(rng.uniform(0.01, 1.0))) for _ in range(3)]
    return fields


@pytest.mark.parametrize("n", range(1, 10))
def test_spectral_for_matches_plain_dense_eigh(n, monkeypatch):
    # the reflection-even sector holds the 2^ceil(N/2) palindromes and one
    # state per pair i < R i, the odd sector the pairs alone
    pairs = (2**n - 2 ** ((n + 1) // 2)) // 2
    sector_shapes = [(2**n - pairs,) * 2, (pairs,) * 2]
    eigh = np.linalg.eigh
    for bz, bx in _solver_fields():
        params = ChainParams(n, bz, bx)
        h = build_hamiltonian(params).matrix
        shapes = []

        def recording_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", recording_eigh)
            spec = spectral_for(params)
        # pins the blocked path: one eigh per reflection sector, none at B_x = 0
        assert shapes == (sector_shapes if bx != 0.0 else [])
        v, w = spec.eigenvectors, spec.eigenvalues
        assert v.dtype == np.float64
        expected = np.linalg.eigh(h)[0]
        assert np.all(np.abs(w - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
        assert np.max(np.abs((v * w) @ v.T - h)) <= 1e-12 * max(1.0, np.max(np.abs(h)))
        assert np.max(np.abs(v.T @ v - np.eye(2**n))) <= 1e-12


def _blocked_dense_reference(params):
    """Chain solve from the dense matrix, in the arithmetic `spectral_for` must match bit for bit.

    It gathers the even and odd reflection blocks from the dense matrix at
    |b_z|, halves the doubled palindrome entries, solves each block, and at
    b_z < 0 permutes each block's vector rows by the spin flip (the
    complement of every bit). It maps the vectors back, merges the spectra
    stably (even before odd) and fixes the phases. At B_x = 0 it stable-sorts
    the diagonal.
    """
    n = params.n_qubits
    if params.b_x == 0.0:
        diag = np.diagonal(build_hamiltonian(params).matrix)
        order = np.argsort(diag, kind="stable")
        vecs = np.zeros((diag.size,) * 2)
        vecs[order, np.arange(diag.size)] = 1.0
        return diag[order], vecs
    m = build_hamiltonian(ChainParams(n, abs(params.b_z), params.b_x)).matrix
    bits = qubit_bit_values(n)
    rev = bits @ (1 << np.arange(n))
    flipped = (1 - bits) @ (1 << np.arange(n))[::-1]
    idx = np.arange(rev.size)
    pal, rep = np.flatnonzero(rev == idx), np.flatnonzero(idx < rev)
    states = np.concatenate([pal, rep])
    p, r = pal.size, np.sqrt(0.5)
    direct, swapped = m[np.ix_(states, states)], m[np.ix_(states, rev[states])]
    odd = direct[p:, p:] - swapped[p:, p:]
    even = direct + swapped
    even[:p, :p] *= 0.5
    even[:p, p:] *= r
    even[p:, :p] *= r
    w_even, y_even = np.linalg.eigh(even)
    w_odd, y_odd = np.linalg.eigh(odd)
    even_row = np.empty(rev.size, dtype=np.intp)
    even_row[states] = np.arange(states.size)
    even_row[rev[rep]] = even_row[rep]
    if params.b_z < 0.0:
        y_even, y_odd = y_even[even_row[flipped[states]]], y_odd[even_row[flipped[rep]] - p]
    v_odd = np.zeros((m.shape[0], w_odd.size))
    v_odd[rep] = r * y_odd
    v_odd[rev[rep]] = -r * y_odd
    even_weight = np.where(rev == idx, 1.0, r)[:, None]
    v = np.concatenate([y_even[even_row] * even_weight, v_odd], axis=1)
    w = np.concatenate([w_even, w_odd])
    order = np.argsort(w, kind="stable")
    return w[order], _fix_phases(v[:, order])


# b_z = 0, every crossover of either parity and the even-chain splits
_LEVEL_FIELDS = sorted(set(CROSSOVERS["odd"] + CROSSOVERS["even"] + (-EVEN_SPLIT, EVEN_SPLIT)))


@pytest.fixture(scope="module", params=range(1, 11))
def full_solves(request):
    """(params, `spectral_for(params)`) over one grid of fields, for one N.

    The four bit-identity tests below read these solves instead of solving
    again. Pytest runs every test of one N before it builds the next N's grid,
    so only one N's spectra are held: 35 of 8.4 MB each at N = 10.
    """
    n = request.param
    fields = [ChainParams(n, bz, bx) for bx in (0.0, -0.05, 0.05, 0.1, 0.5) for bz in _LEVEL_FIELDS]
    return [(params, spectral_for(params)) for params in fields]


def test_spectral_for_is_bit_identical_to_the_dense_blocked_reference(full_solves):
    for params, spec in full_solves:
        w, v = _blocked_dense_reference(params)
        assert spec.eigenvalues.dtype == w.dtype and spec.eigenvectors.dtype == v.dtype
        assert np.array_equal(spec.eigenvalues, w), params
        assert np.array_equal(spec.eigenvectors, v), params


def test_even_spectral_for_is_the_even_sector_of_spectral_for(full_solves):
    # both solve the even block with the same eigh call on the same bits; the
    # even columns of the full solve are those chain reversal leaves
    # bit-identical (an odd column is antisymmetric and nonzero), and the even
    # solve's vectors, kept in the even basis, map onto them through the
    # sector table and the same per-column phase fix
    for params, full in full_solves:
        n = params.n_qubits
        sector = _reflection_sectors(n)[0]
        even = even_spectral_for(params)
        assert even.eigenvectors.shape == (sector.kets.size, sector.kets.size)
        if params.b_x == 0.0:
            # the stable sort of the sector diagonal: each even basis vector is an eigenvector
            d = hamiltonian_diagonal(params)[sector.kets]
            order = np.argsort(d, kind="stable")
            assert np.array_equal(even.eigenvalues, d[order]), params
            assert np.array_equal(even.eigenvectors, np.eye(d.size)[:, order]), params
            continue
        rev = qubit_bit_values(n) @ (1 << np.arange(n))
        mask = np.all(full.eigenvectors[rev] == full.eigenvectors, axis=0)
        mapped = _fix_phases(sector.embed(even.eigenvectors))
        assert np.array_equal(even.eigenvalues, full.eigenvalues[mask]), params
        assert np.array_equal(mapped, full.eigenvectors[:, mask]), params


def test_level_readers_are_bit_identical_to_spectral_for(full_solves, monkeypatch):
    for params, spec in full_solves:
        w = spec.eigenvalues
        levels = levels_for(params)
        assert levels.dtype == w.dtype and np.array_equal(levels, w), params
        assert np.array_equal(np.signbit(levels), np.signbit(w)), params
        # gap and ground_energy read levels_for: hand them the levels just checked
        monkeypatch.setattr(dynamics, "levels_for", {params: levels}.__getitem__)
        assert gap(params) == float(w[1] - w[0])
        assert ground_energy(params) == float(w[0])


def test_ground_state_is_the_first_column_of_spectral_for(full_solves):
    # for B_x != 0 the even solver's ground vector, mapped, is spectral_for's
    # first column bit for bit; at B_x = 0 both take the first ket of the
    # same stable sort of the diagonal
    for params, spec in full_solves:
        expected = PureState(spec.eigenvectors[:, 0], params.n_qubits).amplitudes
        assert np.array_equal(ground_state(params).amplitudes, expected), params


@pytest.mark.parametrize("n", range(1, 10))
def test_ground_states_are_the_one_field_ground_states_as_bytes(n, monkeypatch):
    # each |b_z| solved once, and mirrored for b_z < 0, gives every field the bytes of
    # its own solve: of ground_state, and at B_x != 0 of the even sector's one-matrix
    # eigh (`even_spectral_for`), embedded; the grid holds +-b_z pairs, 0.0, -0.0 and a
    # repeated field, and its 601 or 32 distinct |b_z| fill many stacks (N <= 6, where a
    # 64 KiB stack holds at least 2 even blocks) or take one (d, d) eigh each (N >= 7)
    grid = list(default_b_z_grid(-3.0, 3.0, 0.005 if n <= 6 else 0.1)) + [0.0, -0.0, 1.25, -1.25, 1.25]
    even = _reflection_sectors(n)[0]
    eighs = []
    eigh = np.linalg.eigh
    for b_x in (0.005, 0.1, 1.0, 0.0):
        eighs.clear()
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
        states = list(ground_states(n, b_x, grid))
        monkeypatch.undo()
        assert len(states) == len(grid)
        if b_x != 0.0:
            d, solves = even.kets.size, len({abs(b) for b in grid})
            per_stack = dynamics._STACK_BYTES // (8 * d * d)
            assert (per_stack >= 2) == (n <= 6)
            if per_stack >= 2:
                assert all(shape[1:] == (d, d) for shape in eighs)
                assert sum(shape[0] for shape in eighs) == solves
                assert len(eighs) == -(-solves // per_stack)
            else:
                assert eighs == [(d, d)] * solves
        else:
            assert eighs == []
        for b_z, state in zip(grid, states):
            params = ChainParams(n, b_z, b_x)
            amplitudes = state.amplitudes.tobytes()
            assert amplitudes == ground_state(params).amplitudes.tobytes(), params
            if b_x != 0.0:
                y0 = _fix_phases(even.embed(even_spectral_for(params).ground_vector)[:, None])
                assert amplitudes == PureState(y0, n).amplitudes.tobytes(), params


def test_ground_states_of_no_fields_is_empty():
    assert list(ground_states(4, 0.1, [])) == [] == list(ground_states(4, 0.0, []))


@pytest.mark.parametrize("b_x", [0.1, 1.0])
@pytest.mark.parametrize("n, bad, error, message", [
    (4, [float("nan"), float("inf")], ValueError, "b_z must be finite, got nan"),
    (3, [-np.inf], ValueError, "b_z must be finite, got -inf"),
    (MAX_QUBITS + 1, [], ChainSizeError, f"n_qubits={MAX_QUBITS + 1} exceeds the cap of {MAX_QUBITS}"),
])
def test_ground_states_checks_every_field_before_any_solve(n, bad, error, message, b_x, monkeypatch):
    # the first read checks the whole grid, so a bad field past many good ones (here after
    # the 1201 fields of a grid, which fill several stacks and row blocks) is refused with
    # the message of the first bad field, and nothing is solved
    eighs, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    states = ground_states(n, b_x, list(default_b_z_grid(-3.0, 3.0, 0.005)) + bad + [0.5])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        next(states)
    assert eighs == []


def test_ground_states_build_rows_a_block_at_a_time_as_bytes():
    # at N = 9 a 2^N complex row is 8 KiB, so a 64 KiB block holds 8 rows: the 25 fields are
    # 4 blocks, and each +-b_z pair has its rows in two of them; each row is ground_state's
    grid = default_b_z_grid(-1.2, 1.2, 0.1)
    assert dynamics._STACK_BYTES // (16 << 9) == 8 and grid.size == 25
    states = list(ground_states(9, 0.1, grid))
    for b_z, state in zip(grid, states):
        assert state.amplitudes.tobytes() == ground_state(ChainParams(9, b_z, 0.1)).amplitudes.tobytes(), b_z
    blocks = [state.amplitudes.base for state in states]
    assert [len({id(b) for b in blocks[i:i + 8]}) for i in range(0, 25, 8)] == [1, 1, 1, 1]
    assert len({id(b) for b in blocks}) == 4


def _as_bytes(spec):
    return spec.eigenvalues.tobytes(), spec.vectors.tobytes(), spec.vectors.strides


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_sector_solves_are_the_per_block_solves_as_bytes(n):
    # a stacked eigh, as a plan runs it up to N = 6, gives each block the levels and vectors
    # of the block's own eigh, in both sectors (the odd one empty at N = 1); and a plan's
    # reads, mirrored for b_z < 0, are the one-field readers' bytes
    grid = default_b_z_grid(-3.0, 3.0, 0.25)
    for b_x in (0.005, 0.1, 1.0):
        for sector in _reflection_sectors(n):
            w, v = np.linalg.eigh(sector.block(np.abs(grid), b_x))
            for g, bz in enumerate(grid):
                one = dynamics._sector_spectral_for(ChainParams(n, abs(bz), b_x), sector)
                assert _as_bytes(SpectralDecomposition(w[g], v[g])) == _as_bytes(one), (bz, b_x)
        fields = [(ChainParams(n, bz, b_x),) for bz in grid]
        for need, solve in ((dynamics.EVEN, even_spectral_for), (dynamics.LEVELS, levels_for)):
            order, reads = dynamics.plan(fields, need)
            for i in order:
                read, (p,) = next(reads), fields[i]
                if need == dynamics.EVEN:
                    assert _as_bytes(read) == _as_bytes(solve(p)), p
                else:
                    assert read.tobytes() == solve(p).tobytes(), p


@pytest.mark.parametrize("stack_bytes, threads, shapes", [
    (2 * 8 * 10 * 10, 1, [(2, 10, 10)] * 5 + [(1, 10, 10)]),
    (2 * 8 * 10 * 10 - 1, 1, [(10, 10)] * 11),
    (2 * 8 * 10 * 10 - 1, 2, [(10, 10)] * 11),
])
def test_a_plan_stacks_where_a_stack_holds_two_even_blocks(stack_bytes, threads, shapes, monkeypatch):
    # the executor rule on both sides of its threshold, at N = 4 (even blocks 10 wide): 11
    # distinct |b_z| in stacks of 2, or one `even_spectral_for` each, serially or on W = 2
    # threads; every read is the one-field solver's bytes
    grid = default_b_z_grid(-1.0, 1.0, 0.1)
    fields = [(ChainParams(4, bz, 0.1),) for bz in grid]
    expected = [_as_bytes(even_spectral_for(p)) for (p,) in fields]
    monkeypatch.setattr(dynamics, "_STACK_BYTES", stack_bytes)
    monkeypatch.setattr(dynamics, "_solve_threads", lambda b_x: threads)
    solver_threads, solve = set(), dynamics.even_spectral_for
    monkeypatch.setattr(dynamics, "even_spectral_for",
                        lambda p: solver_threads.add(threading.get_ident()) or solve(p))
    shapes_read, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes_read.append(a.shape) or eigh(a))
    order, reads = dynamics.plan(fields, dynamics.EVEN)
    with closing(reads):
        for i in order:
            assert _as_bytes(next(reads)) == expected[i], fields[i]
    assert shapes_read == shapes
    if len(shapes[0]) == 3:
        assert solver_threads == set()
    else:
        assert (threading.get_ident() in solver_threads) == (threads == 1)


def test_a_plan_at_zero_transverse_field_sorts_each_field_serially(monkeypatch):
    # B_x = 0 has no |b_z| solve to share: each field's even diagonal is sorted, with no eigh
    monkeypatch.setattr(dynamics, "_solve_threads", lambda b_x: 3)
    monkeypatch.setattr(np.linalg, "eigh", None)
    fields = [(ChainParams(4, bz, 0.0),) for bz in (-1.0, 0.5, 1.0)]
    order, reads = dynamics.plan(fields, dynamics.EVEN)
    for i in order:
        assert _as_bytes(next(reads)) == _as_bytes(even_spectral_for(fields[i][0]))


def _free_fermion_levels(n, b_x):
    """Every level of the N-qubit chain at b_z = 0, ascending, from its free fermions.

    A Jordan-Wigner transformation makes the transverse-field Ising chain free (Lieb,
    Schultz & Mattis 1961; Pfeuty 1970): its mode energies are the singular values of
    A - B, A_ii = 2 b_x, A_i,i+1 = A_i+1,i = 1, B_i,i+1 = -B_i+1,i = 1; the ground level is
    minus half their sum, and each excitation adds one mode energy.
    """
    a = np.diag(np.full(n, 2.0 * b_x)) + np.eye(n, k=1) + np.eye(n, k=-1)
    modes = np.linalg.svd(a - (np.eye(n, k=1) - np.eye(n, k=-1)), compute_uv=False)
    levels = np.array([-0.5 * modes.sum()])
    for mode in modes:
        levels = np.concatenate([levels, levels + mode])
    return np.sort(levels)


@pytest.mark.parametrize("n", range(2, 13))
def test_zero_field_levels_match_the_free_fermion_oracle(n, monkeypatch):
    # every level through `levels_for`, and e0, e1 and the gap through the spectrum rows
    # (a one-point grid at b_z = 0), within 1e-12, the critical b_x = 1 included. From
    # N = 7 the spectrum reads `levels_for` itself: it is handed the levels just checked,
    # rather than solve N = 12 twice
    solved, solve = {}, dynamics.levels_for
    monkeypatch.setattr(dynamics, "levels_for",
                        lambda p: solved[p] if p in solved else solved.setdefault(p, solve(p)))
    for b_x in (0.005, 0.1, 0.5, 1.0, 2.0):
        oracle = _free_fermion_levels(n, b_x)
        assert np.max(np.abs(dynamics.levels_for(ChainParams(n, 0.0, b_x)) - oracle)) <= 1e-12, b_x
        argv = ["spectrum", "--n", str(n), "--bx", repr(b_x), "--bz-min", "0", "--bz-step", "9"]
        (row,) = cli._cmd_spectrum(cli.build_parser().parse_args(argv))[1]
        assert row[0] == 0.0
        assert np.max(np.abs(np.array(row[1:]) - [oracle[0], oracle[1], oracle[1] - oracle[0]])) <= 1e-12, b_x


@pytest.mark.parametrize("n, bx", [(12, 0.0), (10, 0.1)])
def test_levels_for_never_holds_an_eigenvector_matrix(n, bx):
    # spectral_for holds a 2^N x 2^N float64 matrix: 134 MB at N = 12, 8 MB at N = 10
    params = ChainParams(n, -1.9, bx)
    levels_for(params)  # builds the per-N sector tables outside the trace
    tracemalloc.start()
    try:
        levels_for(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 4**n, f"traced peak {peak} bytes"


@pytest.mark.parametrize("n", range(2, 11))
def test_exact_ground_state_is_reflection_even(n):
    rev = qubit_bit_values(n) @ (1 << np.arange(n))
    for bz, bx in _solver_fields() + [(-1.9, -0.05)]:
        if bx == 0.0:
            continue
        params = ChainParams(n, bz, bx)
        full = spectral_for(params)
        ground = full.eigenvectors[:, 0]
        assert np.max(np.abs(ground[rev] - ground)) <= 1e-12, params
        assert even_spectral_for(params).ground_energy == full.ground_energy


def test_even_decomposition_rejects_a_state_with_an_odd_part():
    # even_spectral_for keeps its vectors in the even basis (20 rows at N = 5),
    # as dense columns or, at B_x = 0, as a sort order, so a 2^N state, with an
    # odd part (|00001> pairs with |10000>) or without one, is refused by shape
    # where a silent echo would be wrong; only even_amplitudes gathers a state
    # into that basis, and only an even one
    for bx in (0.1, 0.0):
        params = ChainParams(5, -1.0, bx)
        even, shifted = even_spectral_for(params), even_spectral_for(params.perturbed(0.1))
        for ket in (basis_state(5, "00001"), basis_state(5, "00000")):
            assert spectral_for(params).propagate(ket.amplitudes, np.pi).shape == (32,)
            with pytest.raises(ValueError, match="mismatch"):
                even.propagate(ket.amplitudes, np.pi)
            with pytest.raises(ValueError, match="mismatch"):
                echo_from_spectra(even, shifted, ket.amplitudes, np.pi)
    with pytest.raises(ValueError, match="reflection-even"):
        even_amplitudes(basis_state(5, "00001"))
    assert even_amplitudes(basis_state(5, "00000")).shape == (20,)


def test_echo_of_a_state_of_the_wrong_size_fails_before_any_solve(monkeypatch):
    solved = []
    for name in ("spectral_for", "even_spectral_for", "_sector_spectral_for"):
        solve = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda params, *args, solve=solve: solved.append(params)
                            or solve(params, *args))
    with pytest.raises(ValueError, match="dimension"):
        loschmidt_echo_exact(ChainParams(3, -1.0, 0.1), 0.1, np.pi, basis_state(2, "00"))
    assert solved == []


@pytest.mark.parametrize("reader", ["perturbative_echo", "exact_echo_at_zero_field"])
def test_ground_state_readers_at_twelve_qubits_hold_no_full_basis_matrix(reader):
    # one 2^N x 2^N float64 array is 134 MB at N = 12; an even-sector matrix is 35 MB,
    # which the perturbative echo at B_x != 0 reads, and the zero-field echo holds none:
    # its decompositions are sort orders
    d_even = _reflection_sectors(12)[0].kets.size
    bound = {"perturbative_echo": 8 * 4**12, "exact_echo_at_zero_field": 8 * d_even**2}[reader]
    read = {
        "perturbative_echo": lambda: echo_perturbative(
            even_spectral_for(ChainParams(12, -1.9, 0.1)), even_field_perturbation(12), 0.1, np.pi),
        "exact_echo_at_zero_field": lambda: loschmidt_echo_exact(
            ChainParams(12, -1.9, 0.0), 0.1, np.pi),
    }[reader]
    _reflection_sectors(12)  # the per-N sector tables are built outside the trace
    tracemalloc.start()
    try:
        read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"traced peak {peak} bytes"


@pytest.mark.parametrize("bx", [0.1, 0.0])
def test_given_state_echo_at_eleven_qubits_holds_no_full_basis_matrix(bx):
    # one 2^N x 2^N float64 array is 33.5 MB at N = 11; the state's even and odd parts
    # are propagated in their own sectors (1040 and 1008 states wide), one
    # decomposition at a time, and at B_x = 0 each decomposition is a sort order
    psi = _random_state(np.random.default_rng(43), 11)
    _reflection_sectors(11)  # the per-N sector tables are built outside the trace
    tracemalloc.start()
    try:
        loschmidt_echo_exact(ChainParams(11, -1.9, bx), 0.1, np.pi, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 4**11, f"traced peak {peak} bytes"


def test_given_state_echo_at_eleven_qubits_casts_no_eigenvector_matrix_to_complex():
    # the even vectors are 1056 x 1056 float64, 8.9 MB; a complex state times them cast a
    # complex128 copy of them (17.8 MB), and the traced peak was 26.9 MB; as two real products
    # the peak is the solve itself and its spin-flipped copy, 17.9 MB
    psi = _random_state(np.random.default_rng(43), 11)
    _reflection_sectors(11)  # the per-N sector tables are built outside the trace
    tracemalloc.start()
    try:
        loschmidt_echo_exact(ChainParams(11, -1.9, 0.1), 0.1, np.pi, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"traced peak {peak} bytes"


def test_real_vectors_times_a_complex_vector_are_two_real_products():
    rng = np.random.default_rng(46)
    spec = even_spectral_for(ChainParams(6, -1.3, 0.2))
    x = rng.normal(size=spec.eigenvalues.size) + 1j * rng.normal(size=spec.eigenvalues.size)
    y = spec.vectors
    assert np.array_equal(spec.coefficients(x), y.T @ x.real + 1j * (y.T @ x.imag))
    c = np.exp(-1j * spec.eigenvalues * 0.7) * spec.coefficients(x)
    assert np.array_equal(spec.propagate(x, 0.7), y @ c.real + 1j * (y @ c.imag))
    assert np.max(np.abs(spec.propagate(x, 0.7) - y.astype(complex) @ c)) <= 1e-14


@pytest.mark.parametrize("n", [1, 3, 6])
def test_sort_order_kernels_match_the_dense_permutation(n):
    # a B_x = 0 decomposition holds its sort order; each kernel reads it like the
    # permutation matrix `eigenvectors` builds, bit for bit
    rng = np.random.default_rng(44)
    v = even_field_perturbation(n)
    for bz in (-2.5, -1.0, 0.0, 0.7):
        params = ChainParams(n, bz, 0.0)
        for solve in (spectral_for, even_spectral_for):
            spec, shifted = solve(params), solve(params.perturbed(0.1))
            assert spec.vectors.ndim == 1 and spec.eigenvectors.dtype == np.float64
            dense, dense_shifted = (SpectralDecomposition(s.eigenvalues, s.eigenvectors)
                                    for s in (spec, shifted))
            x = rng.normal(size=spec.eigenvalues.size) + 1j * rng.normal(size=spec.eigenvalues.size)
            assert np.array_equal(spec.ground_vector, dense.ground_vector)
            assert np.array_equal(spec.coefficients(x), dense.coefficients(x))
            assert np.array_equal(spec.propagate(x, 1.3), dense.propagate(x, 1.3))
            assert ground_echo(spec, shifted, np.pi) == ground_echo(dense, dense_shifted, np.pi)
            assert (echo_from_spectra(spec, shifted, x, np.pi)
                    == echo_from_spectra(dense, dense_shifted, x, np.pi))
            if solve is even_spectral_for:
                assert echo_perturbative(spec, v, 0.1, np.pi) == echo_perturbative(dense, v, 0.1, np.pi)
                if n > 1 and spec.eigenvalues[1] > spec.eigenvalues[0]:
                    assert echo_two_level(spec, v, 0.1, np.pi) == echo_two_level(dense, v, 0.1, np.pi)


def test_sector_diagonal_is_the_hamiltonian_diagonal_on_the_sector_rows():
    # the solvers form each sector's diagonal from its stored zz and sum sigma_z
    # terms; it must be H's diagonal on those rows bit for bit, and H's diagonal
    # the bond sum plus b_z times the magnetization, read off the sigma_z table
    rng = np.random.default_rng(45)
    for n in range(1, 13):
        z = sigma_z_values(n)
        for bz in np.concatenate([rng.uniform(-3, 3, 5), [0.0, -2.0, 1.44]]):
            params = ChainParams(n, float(bz), 0.1)
            full = hamiltonian_diagonal(params)
            assert np.array_equal(full, np.sum(z[:, :-1] * z[:, 1:], axis=1) + params.b_z * z.sum(axis=1))
            for sector in _reflection_sectors(n):
                diagonal = sector.diagonal(params.b_z)
                assert np.array_equal(diagonal, full[sector.kets]), (n, bz, sector.sign)


def _sectors_from_bits(n):
    """Both sectors' kets, mirrors, weights and spin flips, rebuilt from the bit table alone."""
    bits = qubit_bit_values(n)
    rev = bits @ (1 << np.arange(n))
    flipped = (1 - bits) @ (1 << np.arange(n))[::-1]
    idx = np.arange(rev.size)
    pal, rep = np.flatnonzero(rev == idx), np.flatnonzero(idx < rev)
    states = np.concatenate([pal, rep])
    even_row = np.empty(rev.size, dtype=np.intp)
    even_row[states] = np.arange(states.size)
    even_row[rev[rep]] = even_row[rep]
    weight = np.where(rev == idx, 1.0, np.sqrt(0.5))
    return [(kets, rev[kets], weight[kets], even_row[flipped[kets]] - offset)
            for kets, offset in ((states, 0), (rep, pal.size))]


@pytest.mark.parametrize("n", range(1, 13))
def test_spin_flip_is_an_involutive_permutation_of_each_sector(n):
    # each flip is also checked against the bit table in the sector-map test below
    even, odd = _reflection_sectors(n)
    palindromes = even.kets.size - odd.kets.size
    rev = qubit_bit_values(n) @ (1 << np.arange(n))
    for flip, size in ((even.flip, even.kets.size), (odd.flip, odd.kets.size)):
        assert np.array_equal(np.sort(flip), np.arange(size))
        assert np.array_equal(flip[flip], np.arange(size))
    # a palindrome's complement is a palindrome, and a pair's complement a pair
    assert np.all(even.flip[:palindromes] < palindromes)
    assert np.all(even.flip[palindromes:] >= palindromes)
    assert np.all(rev[even.kets[even.flip[:palindromes]]] == even.kets[even.flip[:palindromes]])


@pytest.mark.parametrize("n", range(1, 13))
def test_sector_maps_match_a_rebuild_from_the_bit_table_as_bytes(n):
    # each sector's rows, and embed, project and even_amplitudes, against the maps written
    # out from qubit_bit_values: w y at a ket, sign w y at its mirror (zero at an odd
    # sector's missing palindromes); a at a palindrome, w (a + sign a') on a pair
    rng = np.random.default_rng(47)
    a = _random_state(rng, n).amplitudes.copy()
    a.real[::3], a.real[1::3] = -0.0, 0.0  # signed zeros show any other form of a +- a'
    for sector, (kets, mirrors, weight, flip), sign in zip(_reflection_sectors(n), _sectors_from_bits(n),
                                                         (1.0, -1.0)):
        assert sector.sign == sign
        for got, want in ((sector.kets, kets), (sector.mirrors, mirrors), (sector.weight, weight),
                          (sector.flip, flip)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        y = rng.normal(size=(kets.size, 3))
        embedded = np.zeros((2**n, 3))
        embedded[kets] = y * weight[:, None]
        embedded[mirrors] = sign * y * weight[:, None]
        assert sector.embed(y).tobytes() == embedded.tobytes()
        p, r = np.count_nonzero(kets == mirrors), np.sqrt(0.5)  # the palindromes lead
        ket, mirror = a[kets[p:]], a[mirrors[p:]]
        projected = np.concatenate([a[kets[:p]], r * (ket + mirror if sign > 0 else ket - mirror)])
        assert sector.project(a).tobytes() == projected.tobytes()
        # embed, then project, is the identity on the sector, to rounding
        assert np.allclose(sector.project(sector.embed(y)[:, 0]), y[:, 0], rtol=1e-15, atol=0)
    kets, mirrors, weight, _ = _sectors_from_bits(n)[0]
    y = rng.normal(size=(kets.size, 1))
    even_state = PureState(_reflection_sectors(n)[0].embed(y / np.linalg.norm(y))[:, 0], n)
    b = even_state.amplitudes
    assert np.array_equal(b[kets], b[mirrors])
    assert even_amplitudes(even_state).tobytes() == (b[kets] / weight).tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_sector_diagonals_and_sigma_x_triples_map_exactly_under_the_spin_flip(n):
    # P H(b_z) P = H(-b_z): on each sector's rows the diagonal at -b_z is the flipped
    # diagonal at b_z, bytes included, and the sigma_x triples map onto themselves
    for sector in _reflection_sectors(n):
        flip, (rows, cols, vals) = sector.flip, sector.x
        for bz in (0.3, 1.0, 2.0, 2.7, 1.44):
            plus, minus = sector.diagonal(bz), sector.diagonal(-bz)
            assert minus.tobytes() == plus[flip].tobytes(), (bz, sector.sign)
        t = np.lexsort((flip[cols], flip[rows]))  # the mapped triples, re-sorted row-major
        assert np.array_equal(flip[rows][t], rows) and np.array_equal(flip[cols][t], cols)
        assert vals[t].tobytes() == vals.tobytes()


def _recorded_eigh(monkeypatch):
    """Patch `np.linalg.eigh` to record each matrix it is handed (a copy) and return a
    cheap stand-in: the diagonal, sorted, and the identity."""
    matrices = []

    def eigh(a):
        matrices.append(np.array(a))
        return np.sort(np.diagonal(a)), np.eye(len(a))

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return matrices


@pytest.mark.parametrize("n", range(1, 13))
def test_levels_at_negative_b_z_are_the_levels_at_positive_b_z_as_bytes(n, monkeypatch):
    # a solve at b_z < 0 hands eigh the sector blocks of the |b_z| solve, byte for byte
    # (recorded with a stand-in eigh at every N); up to N = 10 the real levels are compared
    fields = [(1.9, 0.1), (0.02, 0.005), (1.0, 1.0)] if n <= 10 else [(1.9, 0.1)]
    for bz, bx in fields:
        if n <= 10:
            plus, minus = (levels_for(ChainParams(n, b, bx)) for b in (bz, -bz))
            assert minus.tobytes() == plus.tobytes(), (bz, bx)
        with monkeypatch.context() as patch:
            matrices = _recorded_eigh(patch)
            plus = levels_for(ChainParams(n, bz, bx))
            minus = levels_for(ChainParams(n, -bz, bx))
        assert len(matrices) == 4  # the even and the odd block (0 x 0 at N = 1), twice
        assert all(a.tobytes() == b.tobytes() for a, b in zip(matrices[:2], matrices[2:]))
        assert minus.tobytes() == plus.tobytes()


@pytest.mark.parametrize("n", range(1, 12))
def test_mirrored_levels_match_a_direct_dense_eigh_at_negative_b_z(n):
    # the mirror is exact in exact arithmetic; against eigh of the full matrix at -b_z
    # the levels agree to rounding, within 5.1e-14 relative on these fields (the full
    # N = 12 matrix takes about 7 s to solve, so the largest N checked is 11)
    fields = [(-1.9, 0.1), (-0.02, 0.005), (-1.0, 1.0), (-2.0, 0.05)] if n <= 10 else [(-1.9, 0.1)]
    for bz, bx in fields:
        params = ChainParams(n, bz, bx)
        expected = np.linalg.eigvalsh(build_hamiltonian(params).matrix)
        w = levels_for(params)
        assert np.all(np.abs(w - expected) <= 2e-13 * np.maximum(1.0, np.abs(expected))), (bz, bx)


@pytest.mark.parametrize("n", range(1, 9))
def test_reflection_sectors_are_read_only(n):
    # one cached pair of sectors per N serves every solve, so no caller may write into it
    arrays = {f"{sector.sign:+}.{name}[{i}]": a
              for sector in _reflection_sectors(n)
              for name, v in vars(sector).items()
              for i, a in enumerate(v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)}
    # every field annotated as an array or a tuple of arrays, in both sectors
    annotated = [f.type for f in dataclasses.fields(dynamics._Sector) if "np.ndarray" in f.type]
    assert len(arrays) == 2 * sum(t.count("np.ndarray") for t in annotated)
    for name, a in arrays.items():
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


@pytest.mark.parametrize("n", range(1, 15))
def test_field_perturbation_equals_the_sigma_z_table_formula_as_bytes(n):
    # bytes, not values: -0.0 where sum_i sigma_z^i = 0 must stay -0.0
    v = global_field_perturbation(n)
    assert v.tobytes() == (-sigma_z_values(n).sum(axis=1).astype(float)).tobytes()
    assert even_field_perturbation(n).tobytes() == v[_reflection_sectors(n)[0].kets].tobytes()


def test_field_perturbations_and_diagonal_terms_are_capped():
    # each is a 2^N vector, and even_field_perturbation would build and keep the N = 15
    # sector tables; the cap is checked before any of it is built
    cached = dynamics._reflection_sectors.cache_info().currsize
    for build in (global_field_perturbation, even_field_perturbation, diagonal_terms,
                  dynamics._reflection_sectors):
        with pytest.raises(ChainSizeError, match=re.escape("n_qubits=15 exceeds the cap of 14")):
            build(15)
    assert dynamics._reflection_sectors.cache_info().currsize == cached
    assert global_field_perturbation(14).size == diagonal_terms(14)[1].size == 2**14


def test_sector_data_at_twelve_qubits_is_sparse():
    # dense sigma_x sector blocks would take 67 MB at N = 12; the triples hold about N per row
    arrays = [a for sector in _reflection_sectors(12) for v in vars(sector).values()
              for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 2_000_000


def test_diagonalize_real_input_keeps_real_eigenvectors():
    rng = np.random.default_rng(41)
    a = rng.normal(size=(8, 8))
    h = a + a.T  # real symmetric, not reflection symmetric
    spec = diagonalize(h)
    assert spec.eigenvectors.dtype == np.float64
    assert np.allclose(spec.eigenvalues, np.linalg.eigvalsh(h), atol=1e-12)
    assert np.allclose((spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T, h,
                       atol=1e-12)


def test_echo_scan_reruns_are_byte_identical(tmp_path):
    path = tmp_path / "scan.json"
    outputs = []
    for _ in range(2):
        assert main(["echo-scan", "--n", "8", "--format", "json", "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_import_and_first_solve_leave_scipy_unloaded():
    src = str(Path(isingcrit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import sys, isingcrit\n"
        "from isingcrit.hamiltonian import ChainParams\n"
        "isingcrit.spectral_for(ChainParams(3, 0.5, 0.1))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _cli_peak_rss_mb(argv, out_path) -> float:
    """Peak RSS of one `isingcrit` run, in MB; `argv` starts with the subcommand.

    Linux carries the peak RSS of the spawning process across execve, so the
    child runs the sweep in a fork, whose RUSAGE_SELF counts only itself.
    """
    src = str(Path(isingcrit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import os, resource, sys\n"
        "from isingcrit.cli import main\n"
        "if os.fork() == 0:\n"
        "    code = main([*sys.argv[2:], '--out', sys.argv[1]])\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)\n"  # KiB
        "    os._exit(code)\n"
        "sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(out_path), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return int(out.stdout) * 1024 / 1e6


def test_zero_field_spectrum_sweep_keeps_peak_memory_bounded(tmp_path):
    # a B_x = 0 eigenvector matrix at N = 10 is an 8 MB permutation; a sweep
    # that kept one per point would grow by that much per point
    peak_mb = _cli_peak_rss_mb(["spectrum", "--n", "10", "--bx", "0", "--bz-step", "0.05"],
                               tmp_path / "spectrum.csv")
    assert peak_mb < 128, f"peak RSS {peak_mb:.1f} MB"


def test_zero_field_spectrum_at_twelve_qubits_builds_no_eigenvectors(tmp_path):
    # a single B_x = 0 eigenvector matrix at N = 12 takes 134 MB
    peak_mb = _cli_peak_rss_mb(["spectrum", "--n", "12", "--bx", "0", "--bz-step", "0.25"],
                               tmp_path / "spectrum.csv")
    assert peak_mb < 64, f"peak RSS {peak_mb:.1f} MB"


def test_zero_field_echo_scan_at_fourteen_qubits_builds_no_eigenvectors(tmp_path):
    # one B_x = 0 permutation matrix of the even sector, 8256 states wide, takes 545 MB at N = 14
    peak_mb = _cli_peak_rss_mb(["echo-scan", "--n", "14", "--bx", "0", "--bz-step", "0.5"],
                               tmp_path / "echo.csv")
    print(f"echo-scan --n 14 --bx 0 --bz-step 0.5: peak RSS {peak_mb:.1f} MB")
    assert peak_mb < 128, f"peak RSS {peak_mb:.1f} MB"


@pytest.mark.parametrize("env, cores, b_x, threads", [
    ({}, 4, 0.1, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 0.1, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, 0.1, 2),
    ({"OMP_NUM_THREADS": "1"}, 4, 0.1, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 0.1, 2),
    ({"OPENBLAS_NUM_THREADS": "0"}, 4, 0.1, 1),
    ({"OPENBLAS_NUM_THREADS": "many"}, 4, 0.1, 1),
    ({"OMP_NUM_THREADS": "0"}, 4, 0.1, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 0.0, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 0.1, 1),
])
def test_solve_threads_are_the_usable_cores_over_the_blas_threads(env, cores, b_x, threads, monkeypatch):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert dynamics._solve_threads(b_x) == threads


def test_solve_ahead_yields_in_field_order_and_joins_its_threads_when_closed(monkeypatch):
    monkeypatch.setattr(dynamics, "_solve_threads", lambda b_x: 3)
    fields = [ChainParams(5, bz, 0.1) for bz in np.linspace(-2.0, 2.0, 9)]
    before = threading.active_count()
    assert [p.b_z for p in dynamics.solve_ahead(lambda p: p, fields)] == [p.b_z for p in fields]
    with closing(dynamics.solve_ahead(levels_for, fields)) as levels:
        assert np.array_equal(next(levels), levels_for(fields[0]))
        assert threading.active_count() > before
    assert threading.active_count() == before


def test_solve_ahead_keeps_field_order_on_more_threads_than_cores(monkeypatch):
    # switch threads as often as possible, so that a solve read out of field order, or a
    # worker thread left running after the last read, would show
    monkeypatch.setattr(dynamics, "_solve_threads", lambda b_x: 2 * os.cpu_count() + 2)
    fields = [ChainParams(3, bz, 0.1) for bz in np.round(np.linspace(-3.0, 3.0, 601), 12)]
    solved, read = [], []

    def solve(p):
        solved.append(p)
        return float(np.sum(np.full(8, p.b_z)))

    def consume():
        read.extend(dynamics.solve_ahead(solve, fields))

    interval, before = sys.getswitchinterval(), threading.active_count()
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(target=consume)
        reader.start()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert read == [8 * p.b_z for p in fields]
    assert sorted(solved, key=lambda p: p.b_z) == fields
    assert threading.active_count() == before


class _Solved:
    """A solve result that a weak reference can watch."""

    def __init__(self, params):
        self.params = params


@pytest.mark.parametrize("threads", [1, 3])
def test_a_plan_solves_each_field_once_and_frees_it_after_its_last_read(threads, monkeypatch):
    # one point whose reads repeat fields, adjacently and after others, read in its order; at
    # N = 7 (even blocks 72 wide) each field is one `even_spectral_for` call, on W threads
    monkeypatch.setattr(dynamics, "_solve_threads", lambda b_x: threads)
    a, b, c, d = (ChainParams(7, bz, 0.1) for bz in (1.5, 0.0, 1.0, 2.0))
    reads = [a, a, b, c, b, b, d, a, c]
    last = {p: i for i, p in enumerate(reads)}
    solved, refs = [], {}

    def solve(p):
        solved.append(p)
        return _Solved(p)

    monkeypatch.setattr(dynamics, "even_spectral_for", solve)
    before = threading.active_count()
    order, spectra = dynamics.plan([reads], dynamics.EVEN)
    assert order == [0]
    with closing(spectra):
        for i, p in enumerate(reads):
            spec = next(spectra)
            assert spec.params == p
            assert p not in refs or refs[p]() is spec
            refs[p] = weakref.ref(spec)
            del spec
            assert {q for q, ref in refs.items() if ref() is None} == {q for q in refs if last[q] <= i}
    assert sorted(solved, key=lambda p: p.b_z) == [b, c, a, d]
    assert threading.active_count() == before
