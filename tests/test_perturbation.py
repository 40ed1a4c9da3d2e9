import numpy as np
import pytest
from scipy.linalg import expm

from isingcrit.dynamics import diagonalize, spectral_for
from isingcrit.hamiltonian import ChainParams, global_field_perturbation
from isingcrit.perturbation import (
    DegenerateGapError,
    LandauZenerParams,
    echo_perturbative,
    echo_two_level,
    lz_echo_gaussian,
    lz_gap,
    lz_hamiltonian,
    lz_matrix_element_sq,
)


def _normalized_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    return h / np.linalg.norm(h, 2)


def _random_system(rng, dmin=4, dmax=8, gap_floor=1e-3):
    while True:
        d = int(rng.integers(dmin, dmax + 1))
        h = _normalized_hermitian(rng, d)
        w = np.linalg.eigvalsh(h)
        if w[1] - w[0] >= gap_floor:
            return h, _normalized_hermitian(rng, d)


def _exact_echo(h, v, eps, t):
    w, vecs = np.linalg.eigh(h)
    psi = vecs[:, 0]
    amp = np.vdot(psi, expm(1j * h * t) @ (expm(-1j * (h + eps * v) * t) @ psi))
    return abs(amp) ** 2


def _amplitude_expansion(h, v, eps, t):
    """Second-order expansion of the echo amplitude ell(t), an oracle for echo_perturbative:
    |ell|^2 agrees with it to third order in epsilon (non-degenerate ground level)."""
    w, vecs = np.linalg.eigh(h)
    v0a = vecs.conj().T @ (v @ vecs[:, 0])
    de = w[1:] - w[0]
    weights = (1.0 - np.exp(-1j * de * t) - 1j * t * de) / de**2
    second = abs(v0a[0]) ** 2 * t * t + 2.0 * np.sum(np.abs(v0a[1:]) ** 2 * weights)
    return 1.0 - 1j * t * v0a[0].real * eps - 0.5 * eps**2 * second


def test_perturbative_trivial_cases():
    spec = spectral_for(ChainParams(3, -1.3, 0.1))
    v = global_field_perturbation(3)
    assert echo_perturbative(spec, v, 0.0, 2.0) == pytest.approx(1.0)
    assert echo_perturbative(spec, v, 0.3, 0.0) == pytest.approx(1.0)


def test_perturbative_two_level_closed_form():
    # H = dmin*sigma_x + lam*sigma_z with V = sigma_z reduces to the
    # analytic avoided-crossing expression
    dmin, lam, eps, t = 0.3, 0.45, 0.05, 1.7
    h = np.array([[lam, dmin], [dmin, -lam]], dtype=complex)
    v = np.array([1.0, -1.0])  # sigma_z, as its diagonal
    spec = diagonalize(h)
    delta = 2 * np.sqrt(lam**2 + dmin**2)
    me = dmin**2 / (dmin**2 + lam**2)
    expected = 1 - 2 * eps**2 * me * (1 - np.cos(delta * t)) / delta**2
    assert echo_perturbative(spec, v, eps, t) == pytest.approx(expected, abs=1e-12)


def test_amplitude_squared_consistent_with_echo_formula():
    rng = np.random.default_rng(77)
    for _ in range(10):
        h, v = _random_system(rng)
        spec = diagonalize(h)
        t = 1.4
        for eps in (1e-2, 5e-3):
            l_direct = echo_perturbative(spec, v, eps, t)
            l_from_amp = abs(_amplitude_expansion(h, v, eps, t)) ** 2
            assert abs(l_direct - l_from_amp) <= 10 * eps**3


def test_cubic_order_of_accuracy():
    # halving epsilon shrinks |L_exact - L_pert| at least 6x (cubic or better)
    rng = np.random.default_rng(5)
    for _ in range(20):
        h, v = _random_system(rng)
        spec = diagonalize(h)
        errs = [
            abs(_exact_echo(h, v, eps, 1.0) - echo_perturbative(spec, v, eps, 1.0))
            for eps in (1e-2, 5e-3, 2.5e-3)
        ]
        for big, small in zip(errs, errs[1:]):
            assert small <= big / 6.0


def test_two_level_reductions():
    spec = spectral_for(ChainParams(3, -1.3, 0.1))
    v = global_field_perturbation(3)
    assert echo_two_level(spec, v, 0.0, 1.0) == pytest.approx(1.0)
    # on a genuine two-level system the truncation is the full sum
    h2 = np.array([[0.4, 0.25], [0.25, -0.4]], dtype=complex)
    v2 = np.diag([1.0, -1.0])  # sigma_z as a matrix
    spec2 = diagonalize(h2)
    assert echo_two_level(spec2, v2, 0.07, 2.2) == pytest.approx(
        echo_perturbative(spec2, v2, 0.07, 2.2), abs=1e-14
    )


def test_two_level_raises_on_degenerate_ground():
    spec = spectral_for(ChainParams(3, -2.0, 0.0))
    v = global_field_perturbation(3)
    with pytest.raises(DegenerateGapError):
        echo_two_level(spec, v, 0.1, 1.0)


def test_two_level_skips_uncoupled_parity_partner():
    # even chains: the literal first excited state is the reflection-odd
    # partner with exactly zero coupling; the first contributing level must
    # be used or the curve degenerates to the constant 1
    params = ChainParams(4, -1.9, 0.1)
    spec = spectral_for(params)
    v = global_field_perturbation(4)
    v0a = np.abs(spec.eigenvectors.T @ (v * spec.eigenvectors[:, 0])) ** 2
    assert v0a[1] <= 1e-20
    value = echo_two_level(spec, v, 0.1, np.pi)
    assert value < 1.0 - 1e-4
    # and it equals the hand-built formula on the first coupled level
    alpha = 1 + int(np.argmax(v0a[1:] > 1e-12))
    delta = spec.eigenvalues[alpha] - spec.eigenvalues[0]
    expected = 1 - 2 * (v0a[alpha] / delta**2) * 0.1**2 * (1 - np.cos(delta * np.pi))
    assert value == pytest.approx(expected, abs=1e-12)


def test_lz_gap_examples():
    assert lz_gap(LandauZenerParams(0.25, 0.0)) == pytest.approx(0.5)
    assert lz_gap(LandauZenerParams(3.0, 4.0)) == pytest.approx(10.0)
    for znu in (0.5, 1.0, 2.0):
        p = LandauZenerParams(0.7, 1.0, znu)
        assert lz_gap(p) == pytest.approx(2 * np.sqrt(1 + 0.49))


def test_lz_matrix_element_examples():
    assert lz_matrix_element_sq(LandauZenerParams(0.3, 0.0)) == pytest.approx(1.0)
    assert lz_matrix_element_sq(LandauZenerParams(0.3, 0.3)) == pytest.approx(0.5)
    # heuristic finite-size scaling: dmin = 1/N, large drive
    n, lam = 10.0, 50.0
    me = lz_matrix_element_sq(LandauZenerParams(1 / n, lam))
    assert me * n**2 * lam**2 == pytest.approx(1.0, rel=1e-3)


def test_lz_matrix_element_matches_diagonalization():
    v = np.diag([1.0, -1.0]).astype(complex)
    for lam in np.linspace(-2, 2, 41):
        p = LandauZenerParams(0.1, float(lam))
        spec = diagonalize(lz_hamiltonian(p))
        coupling = abs(spec.eigenvectors[:, 1].conj() @ (v @ spec.eigenvectors[:, 0])) ** 2
        assert coupling == pytest.approx(lz_matrix_element_sq(p), abs=1e-12)
        assert spec.eigenvalues[1] - spec.eigenvalues[0] == pytest.approx(lz_gap(p), abs=1e-12)


def test_lz_gaussian_examples():
    assert lz_echo_gaussian(LandauZenerParams(0.2, 0.0, 1.0, 0.3, 1.5)) == pytest.approx(
        np.exp(-(0.3**2) * 1.5**2)
    )
    assert lz_echo_gaussian(LandauZenerParams(0.2, 0.7, 1.0, 0.3, 0.0)) == pytest.approx(1.0)
    assert lz_echo_gaussian(LandauZenerParams(0.2, 1e9, 1.0, 0.3, 1.5)) == pytest.approx(1.0)


def test_lz_gaussian_monotone_in_drive():
    values = [
        lz_echo_gaussian(LandauZenerParams(0.2, lam, 1.0, 0.3, 0.4))
        for lam in (0.0, 0.1, 0.5, 1.0, 3.0)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_lz_gaussian_matches_two_level_at_short_times():
    dmin, eps = 0.1, 0.1
    for lam in np.linspace(-1, 1, 21):
        p0 = LandauZenerParams(dmin, float(lam), 1.0, eps, 0.0)
        delta = lz_gap(p0)
        t = 0.1 / delta
        p = LandauZenerParams(dmin, float(lam), 1.0, eps, t)
        two_level = 1 - 2 * (lz_matrix_element_sq(p) / delta**2) * eps**2 * (
            1 - np.cos(delta * t)
        )
        assert lz_echo_gaussian(p) == pytest.approx(two_level, abs=(delta * t) ** 4)


def test_lz_params_validation():
    with pytest.raises(ValueError):
        LandauZenerParams(0.0, 1.0)
    with pytest.raises(ValueError):
        LandauZenerParams(0.1, 1.0, z_nu=-1.0)
