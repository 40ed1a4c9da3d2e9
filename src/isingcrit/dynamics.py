"""Spectral machinery: diagonalization, propagators and the exact echo.

Propagation goes through full spectral decomposition rather than a matrix
exponential per time point. Nothing is memoized: every `spectral_for` call
solves, and a caller that reads a spectrum again keeps it, as the exact
`echo_scan` does for the perturbed fields its grid meets again. The
perturbed evolution uses H + epsilon*V with V = -sum_i sigma_z^i, i.e. a
longitudinal field shifted to B_z - epsilon.

`spectral_for` solves the chain from its parameters, with no dense 2^N x 2^N
matrix. At B_x = 0 the chain is diagonal and its eigenbasis is a stable sort
of `hamiltonian_diagonal`. Otherwise it is real symmetric and commutes with
chain reversal R (qubit i <-> qubit N+1-i): the reflection-even and -odd
sectors, spanned by palindromes |i> = |R i> and (|i> +- |R i>)/sqrt(2), are
each the diagonal of H plus B_x times sum_i sigma_x^i, built once per N from
bit flips, and each gets one dense real `eigh`. `diagonalize` takes any
Hermitian matrix: it sorts diagonal input and gives the rest one dense `eigh`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hamiltonian import ChainParams, hamiltonian_diagonal
from .states import (
    HERMITIAN_TOL,
    HermitianOperator,
    PureState,
    frozen_array,
    is_hermitian,
    qubit_bit_values,
)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with aligned orthonormal eigenvector columns.

    Real eigenvectors are stored as float64, complex ones as complex128. The
    arrays are kept as handed over, not copied, and marked read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.eigenvectors)
        for name, a in (("eigenvalues", np.asarray(self.eigenvalues, float)),
                        ("eigenvectors", np.asarray(v, complex if np.iscomplexobj(v) else float))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    def ground_state(self, n_qubits: int) -> PureState:
        return PureState(self.eigenvectors[:, 0], n_qubits)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the first largest-magnitude component of each column real positive."""
    idx = np.argmax(np.abs(v), axis=0)
    pivots = v[idx, np.arange(v.shape[1])]
    phases = pivots / np.abs(pivots)
    return v * phases.conj()[None, :]


@dataclass(frozen=True)
class _ReflectionSectors:
    """Chain reversal R on an N-qubit register, and sum_i sigma_x^i in its sectors.

    Palindromes i = R i span part of the even sector as they are; each pair
    i < R i contributes (|i> + |R i>)/sqrt(2) to the even sector and
    (|i> - |R i>)/sqrt(2) to the odd one. The even basis lists palindromes
    first, then pairs; the odd basis lists the same pairs. Each sigma_x block
    is kept as (row, column, value) triples of its nonzeros, about N per row.
    """

    states: np.ndarray  # basis index of each even-basis state
    rep: np.ndarray  # first index of each pair
    mirror: np.ndarray  # its reversed partner
    even_row: np.ndarray  # even-basis row that each basis index loads from
    even_weight: np.ndarray  # column: 1 for palindromes, 1/sqrt(2) for pair members
    x_even: tuple[np.ndarray, np.ndarray, np.ndarray]  # sum_i sigma_x^i in the even basis
    x_odd: tuple[np.ndarray, np.ndarray, np.ndarray]  # and in the odd basis


def _summed_triples(rows, cols, vals, size: int):
    """Nonzero (row, column, value) triples in row-major order, duplicates summed."""
    keys, inverse = np.unique(rows * size + cols, return_inverse=True)
    sums = np.bincount(inverse, weights=vals)
    return keys[sums != 0] // size, keys[sums != 0] % size, sums[sums != 0]


@lru_cache(maxsize=None)
def _reflection_sectors(n_qubits: int) -> _ReflectionSectors:
    """Sector bookkeeping and sigma_x blocks for one register size, built once per N.

    Block entry (a, b) is <e_a|X|e_b>: the flips s_a ^ (1 << k) of e_a's first
    index that land on s_b or R s_b (minus for R s_b in the odd block), times
    1/sqrt(2) from a palindrome to a pair and 2/sqrt(2) from a pair to a
    palindrome, which R s_a reaches too.
    """
    rev = qubit_bit_values(n_qubits) @ (1 << np.arange(n_qubits))
    idx = np.arange(rev.size)
    pal = np.flatnonzero(rev == idx)
    rep = np.flatnonzero(idx < rev)
    states = np.concatenate([pal, rep])
    even_row = np.empty(rev.size, dtype=np.intp)
    even_row[states] = np.arange(states.size)
    even_row[rev[rep]] = even_row[rep]

    p, r = pal.size, np.sqrt(0.5)
    rows = np.repeat(np.arange(states.size), n_qubits)
    flipped = (states[:, None] ^ (1 << np.arange(n_qubits))).ravel()
    cols = even_row[flipped]
    er, ec, ev = _summed_triples(rows, cols, np.ones(rows.size), states.size)
    ev[(er < p) & (ec >= p)] *= r
    ev[(er >= p) & (ec < p)] *= 2 * r
    odd = (rows >= p) & (cols >= p)
    x_odd = _summed_triples(rows[odd] - p, cols[odd] - p, np.sign(rev - idx)[flipped[odd]], rep.size)
    for rr, cc, vv in ((er, ec, ev), x_odd):
        t = np.lexsort((rr, cc))  # the transpose, re-sorted row-major
        if not (np.array_equal(cc[t], rr) and np.array_equal(rr[t], cc) and np.array_equal(vv[t], vv)):
            raise ArithmeticError("sector blocks of sum_i sigma_x^i are not symmetric")
    return _ReflectionSectors(
        states=states,
        rep=rep,
        mirror=rev[rep],
        even_row=even_row,
        even_weight=np.where(rev == idx, 1.0, r)[:, None],
        x_even=(er, ec, ev),
        x_odd=x_odd,
    )


def _sorted_diagonal(diag: np.ndarray) -> SpectralDecomposition:
    """Eigenbasis of a diagonal matrix: the basis kets in stable order of its diagonal."""
    order = np.argsort(diag.real, kind="stable")
    vecs = np.zeros((diag.size, diag.size), diag.dtype)
    vecs[order, np.arange(diag.size)] = 1.0
    return SpectralDecomposition(diag.real[order], vecs)


def diagonalize(op: "HermitianOperator | np.ndarray") -> SpectralDecomposition:
    """Spectral decomposition with a deterministic eigenvector phase convention.

    Exactly diagonal input is handled by a stable sort of the diagonal, the
    rest by one dense `eigh`. Real input yields real eigenvectors.
    """
    if isinstance(op, HermitianOperator):
        m = op.matrix  # hermiticity already validated on construction
    else:
        m = frozen_array(op)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not is_hermitian(m, HERMITIAN_TOL * max(1.0, float(np.max(np.abs(m))))):
            raise ValueError("matrix is not Hermitian within tolerance")
    diag = np.diagonal(m)
    if np.count_nonzero(m) == np.count_nonzero(diag):
        return _sorted_diagonal(diag)
    w, v = np.linalg.eigh(m)
    return SpectralDecomposition(w, _fix_phases(v))


def spectral_for(params: ChainParams) -> SpectralDecomposition:
    """Decomposition of the chain Hamiltonian at these parameters, solved on every call.

    At B_x = 0 it sorts the diagonal like `diagonalize`; otherwise it solves
    both reflection sectors and keeps even-sector levels first within a tie.
    """
    d = hamiltonian_diagonal(params)
    if params.b_x == 0.0:
        return _sorted_diagonal(d)
    s = _reflection_sectors(params.n_qubits)
    # a flip changes the popcount, which R keeps, so X has no diagonal triples
    # and the zeros that np.diag leaves stay +0.0
    h_even, h_odd = np.diag(d[s.states]), np.diag(d[s.rep])
    h_even[s.x_even[:2]] = params.b_x * s.x_even[2]
    h_odd[s.x_odd[:2]] = params.b_x * s.x_odd[2]
    w_even, y_even = np.linalg.eigh(h_even)
    w_odd, y_odd = np.linalg.eigh(h_odd)
    v_odd = np.zeros((d.size, w_odd.size))
    v_odd[s.rep] = np.sqrt(0.5) * y_odd
    v_odd[s.mirror] = -np.sqrt(0.5) * y_odd
    v = np.concatenate([y_even[s.even_row] * s.even_weight, v_odd], axis=1)
    w = np.concatenate([w_even, w_odd])
    order = np.argsort(w, kind="stable")
    return SpectralDecomposition(w[order], _fix_phases(v[:, order]))


def ground_state(params: ChainParams) -> PureState:
    """Exact ground eigenvector of the chain Hamiltonian."""
    return spectral_for(params).ground_state(params.n_qubits)


def ground_energy(params: ChainParams) -> float:
    return spectral_for(params).ground_energy


def gap(params: ChainParams) -> float:
    """E_1 - E_0, counting degenerate levels literally (0 at exact crossings)."""
    w = spectral_for(params).eigenvalues
    return float(w[1] - w[0])


def evolve(spec: SpectralDecomposition, state: PureState, t: float) -> PureState:
    """exp(-i*H*t)|state> through the decomposition of H."""
    coeffs = spec.eigenvectors.conj().T @ state.amplitudes
    out = spec.eigenvectors @ (np.exp(-1j * spec.eigenvalues * t) * coeffs)
    return PureState(out, state.n_qubits)


def propagate(state: PureState, h: HermitianOperator, t: float) -> PureState:
    """exp(-i*H*t)|state> for an arbitrary Hermitian operator."""
    if h.matrix.shape[0] != state.dim:
        raise ValueError(
            f"operator dimension {h.matrix.shape[0]} does not match state dimension {state.dim}"
        )
    return evolve(diagonalize(h), state, t)


def loschmidt_echo_exact(
    params: ChainParams,
    epsilon: float,
    t: float,
    initial: "PureState | None" = None,
) -> float:
    """L = |<initial| exp(i(H+eps*V)t) exp(-iHt) |initial>|^2, V = -sum sigma_z.

    Defaults to the exact ground state of H as the initial state.
    """
    spec = spectral_for(params)
    if initial is None:
        initial = spec.ground_state(params.n_qubits)
    if initial.dim != 2 ** params.n_qubits:
        raise ValueError("initial state dimension does not match the chain")
    return echo_from_spectra(spec, spectral_for(params.perturbed(epsilon)), initial, t)


def echo_from_spectra(spec: SpectralDecomposition, perturbed: SpectralDecomposition,
                      initial: PureState, t: float) -> float:
    """The exact echo of `initial` from the decompositions of H and of H + eps*V."""
    fwd = evolve(spec, initial, t)
    bwd = evolve(perturbed, initial, t)
    return float(abs(np.vdot(bwd.amplitudes, fwd.amplitudes)) ** 2)
