import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import isingcrit
from isingcrit.cli import main

from isingcrit.dynamics import (
    _fix_phases,
    _reflection_sectors,
    diagonalize,
    gap,
    ground_state,
    loschmidt_echo_exact,
    propagate,
    spectral_for,
)
from isingcrit.criticality import EVEN_SPLIT, ground_state_approx
from isingcrit.gates import global_z_phases
from isingcrit.hamiltonian import CROSSOVERS, ChainParams, build_hamiltonian
from isingcrit.states import (
    HermitianOperator,
    PureState,
    basis_state,
    fidelity,
    qubit_bit_values,
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
    # eigenvectors are basis kets in stable (original index) order
    assert spec.eigenvectors[1, 0] == 1 and spec.eigenvectors[2, 1] == 1


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


def test_propagate_identity_at_zero_time():
    psi = basis_state(2, "01")
    h = build_hamiltonian(ChainParams(2, 0.3, 0.2))
    assert np.allclose(propagate(psi, h, 0.0).amplitudes, psi.amplitudes)


def test_propagate_eigenstate_phase_only():
    sz = HermitianOperator(np.diag([1.0, -1.0]).astype(complex), 1)
    out = propagate(basis_state(1, "0"), sz, 0.7)
    assert fidelity(out, basis_state(1, "0")) == pytest.approx(1.0, abs=1e-12)
    assert out.amplitudes[0] == pytest.approx(np.exp(-1j * 0.7))


def test_propagate_plus_state_quarter_turn():
    # |<+|exp(-i*pi*sigma_z/2)|+>|^2 = 0
    plus = superposition(1, {"0": 1.0, "1": 1.0})
    sz = HermitianOperator(np.diag([1.0, -1.0]).astype(complex), 1)
    out = propagate(plus, sz, np.pi / 2)
    assert fidelity(out, plus) == pytest.approx(0.0, abs=1e-12)


def test_propagate_unitary_and_group_property():
    rng = np.random.default_rng(33)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        psi = _random_state(rng, n)
        h = HermitianOperator(_random_hermitian(rng, 2**n), n)
        t1, t2 = rng.uniform(0, 3, size=2)
        once = propagate(psi, h, t1 + t2)
        twice = propagate(propagate(psi, h, t1), h, t2)
        assert abs(np.linalg.norm(once.amplitudes) - 1) <= 1e-12
        assert fidelity(once, twice) >= 1 - 1e-10


def test_propagate_matches_expm_oracle():
    rng = np.random.default_rng(34)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        psi = _random_state(rng, n)
        m = _random_hermitian(rng, 2**n)
        t = float(rng.uniform(0, 2))
        expected = expm(-1j * m * t) @ psi.amplitudes
        got = propagate(psi, HermitianOperator(m, n), t).amplitudes
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

    It gathers the even and odd reflection blocks from the dense matrix,
    halves the doubled palindrome entries, solves each block, maps the
    vectors back, merges the spectra stably (even before odd) and fixes the
    phases. At B_x = 0 it stable-sorts the diagonal.
    """
    n, m = params.n_qubits, build_hamiltonian(params).matrix
    if params.b_x == 0.0:
        diag = np.diagonal(m)
        order = np.argsort(diag, kind="stable")
        vecs = np.zeros_like(m)
        vecs[order, np.arange(m.shape[0])] = 1.0
        return diag[order], vecs
    rev = qubit_bit_values(n) @ (1 << np.arange(n))
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
    v_odd = np.zeros((m.shape[0], w_odd.size))
    v_odd[rep] = r * y_odd
    v_odd[rev[rep]] = -r * y_odd
    even_weight = np.where(rev == idx, 1.0, r)[:, None]
    v = np.concatenate([y_even[even_row] * even_weight, v_odd], axis=1)
    w = np.concatenate([w_even, w_odd])
    order = np.argsort(w, kind="stable")
    return w[order], _fix_phases(v[:, order])


@pytest.mark.parametrize("n", range(1, 11))
def test_spectral_for_is_bit_identical_to_the_dense_blocked_reference(n):
    fields = sorted(set(CROSSOVERS["odd"] + CROSSOVERS["even"] + (-EVEN_SPLIT, EVEN_SPLIT)))
    for bx in (0.0, 0.05, 0.1, 1.0, -0.3):
        for bz in fields:
            params = ChainParams(n, bz, bx)
            w, v = _blocked_dense_reference(params)
            spec = spectral_for(params)
            assert spec.eigenvalues.dtype == w.dtype and spec.eigenvectors.dtype == v.dtype
            assert np.array_equal(spec.eigenvalues, w), params
            assert np.array_equal(spec.eigenvectors, v), params


def test_sector_data_at_twelve_qubits_is_sparse():
    # dense sigma_x sector blocks would take 67 MB at N = 12; the triples hold about N per row
    sectors = _reflection_sectors(12)
    arrays = [a for v in vars(sectors).values() for a in (v if isinstance(v, tuple) else (v,))]
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


def test_zero_field_spectrum_sweep_keeps_peak_memory_bounded(tmp_path):
    # each B_x = 0 point at N = 10 holds an 8 MB permutation matrix; a sweep
    # that kept its decompositions would grow by that much per point. Linux
    # carries the peak RSS of the spawning process across execve, so the
    # child runs the sweep in a fork, whose RUSAGE_SELF counts only itself.
    src = str(Path(isingcrit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import os, resource, sys\n"
        "from isingcrit.cli import main\n"
        "if os.fork() == 0:\n"
        "    argv = ['spectrum', '--n', '10', '--bx', '0', '--bz-step', '0.05', '--out', sys.argv[1]]\n"
        "    code = main(argv)\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)\n"  # KiB
        "    os._exit(code)\n"
        "sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "spectrum.csv")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    peak_mb = int(out.stdout) * 1024 / 1e6
    assert peak_mb < 128, f"peak RSS {peak_mb:.1f} MB"
