import numpy as np
import pytest

from isingcrit.states import (
    PureState,
    basis_state,
    fidelity,
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


@pytest.mark.parametrize("bits", ["-1", "+1", "0_1", " 11"])
def test_superposition_rejects_non_binary_characters(bits):
    # int(bits, 2) alone would read these as |11>, |01>, |001> and |011>
    with pytest.raises(ValueError, match="non-binary"):
        superposition(len(bits), {bits: 1.0})
    with pytest.raises(ValueError, match="non-binary"):
        superposition(len(bits), {"1" * len(bits): 1.0, bits: 1.0})


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


def test_fidelity_examples():
    zero, one = basis_state(1, "0"), basis_state(1, "1")
    plus = superposition(1, {"0": 1.0, "1": 1.0})
    assert fidelity(zero, zero) == pytest.approx(1.0)
    assert fidelity(zero, one) == pytest.approx(0.0)
    assert fidelity(zero, plus) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        fidelity(zero, basis_state(2, "00"))

