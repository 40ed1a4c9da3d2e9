import numpy as np
import pytest

from isingcrit.states import (
    PureState,
    basis_state,
    fidelity,
    pauli_string_apply,
    superposition,
)


def test_basis_state_examples():
    assert basis_state(3, "000").amplitudes[0] == 1
    assert basis_state(3, "101").amplitudes[5] == 1
    # one branch of the alternating even-chain pattern
    assert basis_state(4, "0101").amplitudes[5] == 1


def test_basis_state_is_unit_vector():
    s = basis_state(3, "010")
    assert np.count_nonzero(s.amplitudes) == 1
    assert np.linalg.norm(s.amplitudes) == 1.0


def test_basis_index_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        bits = "".join(rng.choice(["0", "1"], size=n))
        state = basis_state(n, bits)
        idx = int(np.argmax(np.abs(state.amplitudes)))
        assert format(idx, f"0{n}b") == bits


def test_basis_state_rejects_bad_input():
    with pytest.raises(ValueError):
        basis_state(3, "01")
    with pytest.raises(ValueError):
        basis_state(2, "02")


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), 1)  # not normalized
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.0, 0.0]), 1)  # wrong length
    for bad in (np.nan, np.inf):  # a NaN norm fails every comparison
        with pytest.raises(ValueError):
            PureState(np.array([bad, 0.0]), 1)


def test_pure_state_is_immutable():
    s = basis_state(2, "00")
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_pauli_string_examples():
    zero = basis_state(1, "0")
    assert np.allclose(pauli_string_apply(zero, "Z").amplitudes, zero.amplitudes)
    assert np.allclose(pauli_string_apply(zero, "X").amplitudes, basis_state(1, "1").amplitudes)
    s01 = basis_state(2, "01")
    assert np.allclose(pauli_string_apply(s01, "ZZ").amplitudes, -s01.amplitudes)


def test_pauli_string_matches_dense_kron():
    # every string over {I,X,Y,Z} on up to 3 qubits against explicit matrices
    from itertools import product

    from isingcrit.states import PAULI_MATRICES

    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        state = PureState(amps, n)
        for axes in product("IXYZ", repeat=n):
            dense = np.array([[1.0 + 0j]])
            for ax in axes:
                dense = np.kron(dense, PAULI_MATRICES[ax])
            expected = dense @ amps
            got = pauli_string_apply(state, list(axes)).amplitudes
            assert np.allclose(got, expected, atol=1e-12), axes


def test_pauli_string_matches_parity_loop_reference():
    # reference: bit masks per axis and a bit-by-bit parity count of the Z/Y bits
    from itertools import product

    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = PureState(amps / np.linalg.norm(amps), n)
        idx = np.arange(2**n)
        for axes in product("IXYZ", repeat=n):
            flip_mask = sum(1 << (n - 1 - q) for q, ax in enumerate(axes) if ax in "XY")
            sign_mask = sum(1 << (n - 1 - q) for q, ax in enumerate(axes) if ax in "ZY")
            masked, parity = idx & sign_mask, np.zeros(idx.size, dtype=np.int64)
            while sign_mask:
                parity += masked & 1
                masked >>= 1
                sign_mask >>= 1
            phases = (1j) ** axes.count("Y") * np.where(parity % 2, -1.0, 1.0)
            expected = np.empty(2**n, dtype=complex)
            expected[idx ^ flip_mask] = phases * state.amplitudes
            got = pauli_string_apply(state, axes).amplitudes
            assert np.array_equal(got, expected), axes


def test_pauli_string_rejects_bad_axes():
    with pytest.raises(ValueError):
        pauli_string_apply(basis_state(2, "00"), "X")
    with pytest.raises(ValueError):
        pauli_string_apply(basis_state(2, "00"), "XQ")


def test_fidelity_examples():
    zero, one = basis_state(1, "0"), basis_state(1, "1")
    plus = superposition(1, {"0": 1.0, "1": 1.0})
    assert fidelity(zero, zero) == pytest.approx(1.0)
    assert fidelity(zero, one) == pytest.approx(0.0)
    assert fidelity(zero, plus) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        fidelity(zero, basis_state(2, "00"))

