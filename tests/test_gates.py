import itertools

import numpy as np
import pytest

from isingcrit import gates as gates_module
from isingcrit.gates import GATE_ARITY, Gate, apply_gates, global_z_phases, roty_matrix
from isingcrit.states import PureState, basis_state, sigma_z_values


def _random_gate(rng, n):
    kind = rng.choice(list(GATE_ARITY))
    n_t, n_c, has_angle = GATE_ARITY[kind]
    qubits = rng.choice(np.arange(1, n + 1), size=n_t + n_c, replace=False)
    targets = tuple(int(q) for q in qubits[:n_t])
    controls = tuple(int(q) for q in qubits[n_t:])
    angle = float(rng.uniform(-np.pi, np.pi)) if has_angle else None
    return Gate(kind, targets, controls, angle)


def _random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(amps / np.linalg.norm(amps), n)


def test_every_gate_matrix_is_unitary():
    rng = np.random.default_rng(0)
    for kind, (n_t, n_c, has_angle) in GATE_ARITY.items():
        if kind == "GlobalZEvolution":
            continue
        for _ in range(5):
            qubits = tuple(range(1, n_t + n_c + 1))
            g = Gate(
                kind,
                qubits[n_c:],
                qubits[:n_c],
                float(rng.uniform(-np.pi, np.pi)) if has_angle else None,
            )
            u = g.matrix()
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12, kind


def test_global_z_is_unitary_diagonal():
    d = global_z_phases(4, 0.37)
    assert np.allclose(np.abs(d), 1.0)


def test_global_z_phases_small_cases():
    # the compiled echo step exp(-i*tau*eps*sum_i sigma_z^i) at eps = 0 and on one qubit
    assert np.allclose(np.diag(global_z_phases(2, 1.3 * 0.0)), np.eye(4))
    assert np.allclose(global_z_phases(1, 0.9 * 0.2), [np.exp(-1j * 0.18), np.exp(1j * 0.18)])


def test_global_z_phases_match_popcount_reference():
    # reference: sum_i sigma_z^i = N - 2 * popcount(index), counted bit by bit
    for n in range(0, 7):
        idx = np.arange(2**n)
        ones = np.zeros(idx.size, dtype=np.int64)
        v = idx.copy()
        for _ in range(n):
            ones += v & 1
            v >>= 1
        for angle in (0.0, 0.37, -1.9, np.pi):
            expected = np.exp(-1j * angle * (n - 2 * ones))
            assert np.array_equal(global_z_phases(n, angle), expected), (n, angle)


def test_global_z_phases_equal_the_sigma_z_table_formula():
    for n in range(1, 7):
        for angle in (0.0, 0.37, -1.9, np.pi, 2.5e-3):
            expected = np.exp(-1j * angle * sigma_z_values(n).sum(axis=1))
            assert np.array_equal(global_z_phases(n, angle), expected), (n, angle)


def test_every_kind_but_the_global_one_has_one_unitary_entry():
    # the table is the one source of Gate.matrix() and of the kernel: a function of
    # the angle exactly for the kinds that take one, else a shared read-only matrix
    assert set(gates_module._UNITARY) == set(GATE_ARITY) - {"GlobalZEvolution"}
    for kind, u in gates_module._UNITARY.items():
        n_t, n_c, has_angle = GATE_ARITY[kind]
        assert callable(u) == has_angle, kind
        if not has_angle:
            assert not u.flags.writeable, kind
        size = 2 ** (n_t + n_c)
        assert (u(0.3) if has_angle else u).shape == (size, size), kind
    with pytest.raises(ValueError, match="no fixed-size matrix"):
        Gate("GlobalZEvolution", (), angle=0.3).matrix()


@pytest.mark.parametrize("kind", [k for k in GATE_ARITY if k != "GlobalZEvolution"])
def test_gate_matrix_is_a_fresh_writable_copy(kind):
    n_t, n_c, has_angle = GATE_ARITY[kind]
    gate = Gate(kind, tuple(range(n_c + 1, n_c + n_t + 1)), tuple(range(1, n_c + 1)),
                0.3 if has_angle else None)
    state = _random_state(np.random.default_rng(7), 3)
    before = apply_gates(state, (gate,)).amplitudes
    u = gate.matrix()
    assert u.flags.writeable and not np.shares_memory(u, gate.matrix())
    expected = u.copy()
    u[:] = 0
    assert np.array_equal(gate.matrix(), expected)
    assert np.array_equal(apply_gates(state, (gate,)).amplitudes, before)


def test_roty_convention():
    # exp(i*phi*sigma_y)|0> = cos(phi)|0> - sin(phi)|1>
    out = apply_gates(basis_state(1, "0"), (Gate("RotY", (1,), angle=np.pi / 4),))
    expected = np.array([np.cos(np.pi / 4), -np.sin(np.pi / 4)])
    assert np.allclose(out.amplitudes, expected, atol=1e-15)
    # and the matrix is the analytic 2x2 exponential of i*phi*sigma_y
    phi = 0.3
    sy = np.array([[0, -1j], [1j, 0]])
    series = np.cos(phi) * np.eye(2) + 1j * np.sin(phi) * sy
    assert np.allclose(roty_matrix(phi), series, atol=1e-15)


def test_cnot_examples():
    cnot = Gate("CNOT", (2,), (1,))
    assert np.allclose(
        apply_gates(basis_state(2, "00"), (cnot,)).amplitudes, basis_state(2, "00").amplitudes
    )
    assert np.allclose(
        apply_gates(basis_state(2, "10"), (cnot,)).amplitudes, basis_state(2, "11").amplitudes
    )


def test_apply_gate_preserves_norm():
    rng = np.random.default_rng(42)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        state = _random_state(rng, n)
        gate = _random_gate(rng, max(n, 2)) if n >= 2 else Gate("RotY", (1,), angle=0.3)
        if any(q > n for q in gate.qubits):
            continue
        out = apply_gates(state, (gate,))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def test_apply_gate_matches_dense_embedding():
    # embed the gate matrix with identity kron factors and compare
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        state = _random_state(rng, n)
        gate = _random_gate(rng, n)
        if gate.kind == "GlobalZEvolution":
            dense = np.diag(global_z_phases(n, gate.angle))
        else:
            qubits = gate.qubits
            k = len(qubits)
            u = gate.matrix().reshape([2] * (2 * k))
            dense = np.zeros((2**n, 2**n), dtype=complex)
            for col in range(2**n):
                bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
                in_bits = tuple(bits[q - 1] for q in qubits)
                for localrow in range(2**k):
                    out_bits = bits.copy()
                    for pos, q in enumerate(qubits):
                        out_bits[q - 1] = (localrow >> (k - 1 - pos)) & 1
                    row = int("".join(map(str, out_bits)), 2)
                    dense[row, col] += u[tuple((localrow >> (k - 1 - p)) & 1 for p in range(k)) + in_bits]
        expected = dense @ state.amplitudes
        got = apply_gates(state, (gate,)).amplitudes
        assert np.allclose(got, expected, atol=1e-12), gate


def test_global_z_equals_product_of_single_z():
    n, theta = 3, 0.21
    state = _random_state(np.random.default_rng(9), n)
    out = apply_gates(state, (Gate("GlobalZEvolution", (), angle=theta),))
    step = state
    for q in range(1, n + 1):
        step = apply_gates(step, (Gate("ZEvolution", (q,), angle=theta),))
    assert np.allclose(out.amplitudes, step.amplitudes, atol=1e-13)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1,), (1,))  # repeated qubit
    with pytest.raises(ValueError):
        Gate("RotY", (1,))  # missing angle
    with pytest.raises(ValueError):
        Gate("NOT", (1,), angle=0.2)  # spurious angle
    with pytest.raises(ValueError):
        Gate("Twist", (1,))
    with pytest.raises(ValueError):
        Gate("NOT", (0,))
    with pytest.raises(ValueError, match="integers"):
        Gate("NOT", (1.7,))  # not truncated to qubit 1
    with pytest.raises(ValueError, match="integers"):
        Gate("CNOT", (2,), (np.float64(1.0),))
    assert Gate("CNOT", (np.int64(2),), (1,)).targets == (2,)
    with pytest.raises(ValueError):
        apply_gates(basis_state(2, "00"), (Gate("NOT", (3,)),))


def test_dagger_inverts():
    rng = np.random.default_rng(13)
    state = _random_state(rng, 3)
    for _ in range(20):
        g = _random_gate(rng, 3)
        back = apply_gates(state, (g, g.dagger()))
        assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_dagger_negates_the_angle_of_an_equal_gate():
    # the inverse is built without a second validation; it is the validated gate at -angle
    for kind, (n_t, n_c, has_angle) in GATE_ARITY.items():
        if not has_angle:
            continue
        qubits = tuple(range(1, n_t + n_c + 1))
        g = Gate(kind, qubits[n_c:], qubits[:n_c], 0.3)
        assert g.dagger() == Gate(kind, qubits[n_c:], qubits[:n_c], -0.3)
        assert g.dagger().dagger() == g


def _moveaxis_reference(state, gate):
    """Reference application: the gate's qubits moved to the front of a (2,)*N tensor."""
    n = state.n_qubits
    if gate.kind == "GlobalZEvolution":
        return global_z_phases(n, gate.angle) * state.amplitudes
    k = len(gate.qubits)
    axes = [q - 1 for q in gate.qubits]
    psi = np.moveaxis(state.amplitudes.reshape([2] * n), axes, range(k))
    shape = psi.shape
    psi = gate.matrix() @ psi.reshape(2**k, -1)
    return np.moveaxis(psi.reshape(shape), range(k), axes).reshape(-1)


def test_kernel_is_bit_identical_to_the_moveaxis_reference():
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        state = _random_state(rng, n)
        for kind, (n_t, n_c, has_angle) in GATE_ARITY.items():
            for qubits in itertools.permutations(range(1, n + 1), n_t + n_c):
                angle = float(rng.uniform(-np.pi, np.pi)) if has_angle else None
                gate = Gate(kind, qubits[n_c:], qubits[:n_c], angle)
                expected = _moveaxis_reference(state, gate)
                assert np.array_equal(apply_gates(state, (gate,)).amplitudes, expected), (n, gate)


def test_apply_gates_rejects_an_out_of_register_gate_mid_list():
    gates = (Gate("NOT", (1,)), Gate("CNOT", (3,), (1,)), Gate("NOT", (2,)))
    with pytest.raises(ValueError, match="exceed register size 2"):
        apply_gates(basis_state(2, "00"), gates)


def test_apply_gates_builds_one_state_per_gate_list(monkeypatch):
    built = []
    monkeypatch.setattr(gates_module, "PureState", lambda *args: built.append(args) or PureState(*args))
    state = _random_state(np.random.default_rng(5), 4)
    gates = [_random_gate(np.random.default_rng(seed), 4) for seed in range(12)]
    out = apply_gates(state, gates)
    assert len(built) == 1
    expected = state.amplitudes
    for g in gates:
        expected = _moveaxis_reference(PureState(expected, 4), g)
    assert np.array_equal(out.amplitudes, expected)
