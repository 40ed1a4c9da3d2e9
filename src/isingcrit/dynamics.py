"""Spectral machinery: diagonalization, propagators, the exact echo and the
single-step compiled echo operator.

Propagation goes through full spectral decomposition rather than a matrix
exponential per time point, because scans reuse the same spectrum across
many (epsilon, t) values; decompositions of chain Hamiltonians are memoized
per (N, B_z, B_x). The perturbed evolution uses H + epsilon*V with
V = -sum_i sigma_z^i, i.e. a longitudinal field shifted to B_z - epsilon.

The chain Hamiltonian is real symmetric, so it is solved in float64 and its
eigenvectors are stored real. It also commutes with chain reversal R (qubit
i <-> qubit N+1-i), so `diagonalize` splits it into the reflection-even and
reflection-odd sectors, built by index arithmetic on the basis kets
(|i> +- |R i>)/sqrt(2) and palindromes |i> = |R i>, solves each sector
with a dense real `eigh` and merges the two spectra. Diagonal inputs (the
B_x = 0 chains) skip the solver; complex or non-reflection-symmetric inputs
go through one dense `eigh` of the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gates import global_z_phases
from .hamiltonian import ChainParams, build_hamiltonian
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

    Real eigenvectors are stored as float64, complex ones as complex128.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", frozen_array(self.eigenvalues, float))
        object.__setattr__(self, "eigenvectors", frozen_array(self.eigenvectors))

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
    """Basis bookkeeping of chain reversal R on an N-qubit register.

    Palindromes i = R i span part of the even sector as they are; each pair
    i < R i contributes (|i> + |R i>)/sqrt(2) to the even sector and
    (|i> - |R i>)/sqrt(2) to the odd one. The even basis lists palindromes
    first, then pairs.
    """

    n_pal: int
    reversal: tuple  # np.ix_ gathering m[R i, R j]
    direct: tuple  # np.ix_ gathering m[s_a, s_b] over the even basis states s
    swapped: tuple  # np.ix_ gathering m[s_a, R s_b]
    rep: np.ndarray  # first index of each pair
    mirror: np.ndarray  # its reversed partner
    even_row: np.ndarray  # even-basis row that each basis index loads from
    even_weight: np.ndarray  # column: 1 for palindromes, 1/sqrt(2) for pair members


@lru_cache(maxsize=None)
def _reflection_sectors(n_qubits: int) -> _ReflectionSectors:
    """Sector bookkeeping for one register size, built once per N."""
    rev = qubit_bit_values(n_qubits) @ (1 << np.arange(n_qubits))
    idx = np.arange(rev.size)
    pal = np.flatnonzero(rev == idx)
    rep = np.flatnonzero(idx < rev)
    states = np.concatenate([pal, rep])
    even_row = np.empty(rev.size, dtype=np.intp)
    even_row[states] = np.arange(states.size)
    even_row[rev[rep]] = even_row[rep]
    return _ReflectionSectors(
        n_pal=pal.size,
        reversal=np.ix_(rev, rev),
        direct=np.ix_(states, states),
        swapped=np.ix_(states, rev[states]),
        rep=rep,
        mirror=rev[rep],
        even_row=even_row,
        even_weight=np.where(rev == idx, 1.0, np.sqrt(0.5))[:, None],
    )


def _reflection_symmetric(m: np.ndarray) -> "_ReflectionSectors | None":
    """Sector bookkeeping if m is real, 2^N x 2^N and commutes exactly with R."""
    n = m.shape[0].bit_length() - 1
    if not np.isrealobj(m) or m.shape[0] != 1 << n:
        return None
    sectors = _reflection_sectors(n)
    return sectors if (m[sectors.reversal] == m).all() else None


def _eigh_by_sector(m: np.ndarray, sectors: _ReflectionSectors) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a real symmetric m that commutes with R, one sector at a time.

    Each sector block is a sum of at most two gathered entries of m.
    """
    p, r = sectors.n_pal, np.sqrt(0.5)
    direct, swapped = m[sectors.direct], m[sectors.swapped]
    odd = direct[p:, p:] - swapped[p:, p:]
    even = direct + swapped  # twice the palindrome entries, which the scaling undoes
    even[:p, :p] *= 0.5
    even[:p, p:] *= r
    even[p:, :p] *= r
    w_even, y_even = np.linalg.eigh(even)
    w_odd, y_odd = np.linalg.eigh(odd)

    v_odd = np.zeros((m.shape[0], w_odd.size))
    v_odd[sectors.rep] = r * y_odd
    v_odd[sectors.mirror] = -r * y_odd
    v = np.concatenate([y_even[sectors.even_row] * sectors.even_weight, v_odd], axis=1)
    w = np.concatenate([w_even, w_odd])
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def diagonalize(op: "HermitianOperator | np.ndarray") -> SpectralDecomposition:
    """Spectral decomposition with a deterministic eigenvector phase convention.

    Exactly diagonal inputs (the B_x = 0 chains) are handled by a stable sort
    of the diagonal, which keeps large zero-field sweeps cheap. Real input
    that commutes exactly with chain reversal is solved sector by sector;
    the merged spectrum keeps even-sector levels before odd-sector ones
    within a degenerate cluster. Real input yields real eigenvectors.
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
        order = np.argsort(diag.real, kind="stable")
        vecs = np.zeros_like(m)
        vecs[order, np.arange(m.shape[0])] = 1.0
        return SpectralDecomposition(diag.real[order], vecs)
    sectors = _reflection_symmetric(m)
    if sectors is not None:
        w, v = _eigh_by_sector(m, sectors)
    else:
        w, v = np.linalg.eigh(m)
    return SpectralDecomposition(w, _fix_phases(v))


@lru_cache(maxsize=64)
def spectral_for(params: ChainParams) -> SpectralDecomposition:
    """Memoized decomposition of the chain Hamiltonian at these parameters."""
    return diagonalize(build_hamiltonian(params))


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
    if initial is None:
        initial = ground_state(params)
    if initial.dim != 2 ** params.n_qubits:
        raise ValueError("initial state dimension does not match the chain")
    fwd = evolve(spectral_for(params), initial, t)
    bwd = evolve(spectral_for(params.perturbed(epsilon)), initial, t)
    return float(abs(np.vdot(bwd.amplitudes, fwd.amplitudes)) ** 2)


def trotter_echo_diagonal(n_qubits: int, epsilon: float, tau: float) -> np.ndarray:
    """Diagonal of the compiled echo step exp(-i*tau*eps*sum_i sigma_z^i)."""
    return global_z_phases(n_qubits, tau * epsilon)


def trotter_echo_operator(n_qubits: int, epsilon: float, tau: float) -> np.ndarray:
    """The compiled echo step as a dense diagonal unitary."""
    return np.diag(trotter_echo_diagonal(n_qubits, epsilon, tau))
