"""Spectral machinery: diagonalization, propagators and the exact echo.

Propagation goes through full spectral decomposition rather than a matrix
exponential per time point. Nothing is memoized: every solver call solves,
and a scan that reads a field twice reads it through `solve_ahead`, which
solves it once. The perturbed evolution uses H + epsilon*V with
V = -sum_i sigma_z^i, i.e. a longitudinal field shifted to B_z - epsilon.

The chain is solved from its parameters, with no dense 2^N x 2^N matrix. At
B_x = 0 it is diagonal and its eigenbasis is a stable sort of
`hamiltonian_diagonal`. Otherwise it is real symmetric and commutes with
chain reversal R (qubit i <-> qubit N+1-i): the reflection-even and -odd
sectors, spanned by palindromes |i> = |R i> and (|i> +- |R i>)/sqrt(2), are
each the diagonal of H plus B_x times sum_i sigma_x^i, built once per N from
bit flips, and each gets one dense real `eigh`. `diagonalize` takes any
Hermitian matrix: it sorts diagonal input and gives the rest one dense `eigh`.

Each reader calls the solver that builds only what it reads, in the basis it
reads it in:

* `levels_for` (the `spectrum` command, `gap`, `ground_energy`): the levels
  of `spectral_for` with no eigenvector matrix assembled.
* `even_spectral_for` (ground-state echoes, both expansions, `ground_state`):
  the even sector alone, its vectors left in the even basis. For B_x != 0, H
  in the basis signed by prod_i sigma_z^i (which commutes with R) is
  connected with non-positive off-diagonals, so by Perron-Frobenius its
  ground state is unique and even; at B_x = 0 the even basis holds a ground
  state too, since H(s) = H(R s). V is diagonal in the even basis as well
  (`even_field_perturbation`), and the approximate ground state of the scans
  lies in it, its kets being palindromes or mirror pairs (`even_amplitudes`),
  so nothing maps these vectors to 2^N rows but `ground_state`, which maps one.
* `spectral_for` (only `loschmidt_echo_exact` of a given state): both
  sectors mapped to the 2^N computational basis.

A scan hands its reads, in order, to `solve_ahead`: it solves each distinct
field once, up to W + 1 fields ahead on W threads (each `eigh` releases the
GIL), and holds the result until the field's last read. W is the usable
cores over the BLAS threads per solve (`_solve_threads`); with no BLAS
variable set, or at B_x = 0, W = 1 solves in the calling thread. Each solve
is the serial call, so the results are bit for bit the serial ones.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .hamiltonian import ChainParams, global_field_perturbation, hamiltonian_diagonal
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


def _sector_eigh(diag: np.ndarray, x, b_x: float):
    """`eigh` of one reflection sector: H's diagonal there plus b_x times its sigma_x triples."""
    h = np.diag(diag)  # X flips change the popcount, which R keeps: no diagonal, zeros stay +0.0
    h[x[:2]] = b_x * x[2]
    return np.linalg.eigh(h)


def _both_sectors(d: np.ndarray, s: _ReflectionSectors, b_x: float):
    """Both sectors' `eigh`, merged: levels ascending (even first in a tie), the merge
    order, and each sector's vectors in its own basis."""
    w_even, y_even = _sector_eigh(d[s.states], s.x_even, b_x)
    w_odd, y_odd = _sector_eigh(d[s.rep], s.x_odd, b_x)
    w = np.concatenate([w_even, w_odd])
    order = np.argsort(w, kind="stable")
    return w[order], order, y_even, y_odd


def spectral_for(params: ChainParams) -> SpectralDecomposition:
    """Decomposition of the chain Hamiltonian at these parameters, solved on every call.

    At B_x = 0 it sorts the diagonal like `diagonalize`; otherwise it solves
    both reflection sectors and keeps even-sector levels first within a tie.
    """
    d = hamiltonian_diagonal(params)
    if params.b_x == 0.0:
        return _sorted_diagonal(d)
    s = _reflection_sectors(params.n_qubits)
    w, order, y_even, y_odd = _both_sectors(d, s, params.b_x)
    v_odd = np.zeros((d.size, y_odd.shape[1]))
    v_odd[s.rep] = np.sqrt(0.5) * y_odd
    v_odd[s.mirror] = -np.sqrt(0.5) * y_odd
    v = np.concatenate([y_even[s.even_row] * s.even_weight, v_odd], axis=1)
    return SpectralDecomposition(w, _fix_phases(v[:, order]))


def levels_for(params: ChainParams) -> np.ndarray:
    """`spectral_for(params).eigenvalues`, bit for bit, with no eigenvector matrix built."""
    d = hamiltonian_diagonal(params)
    if params.b_x == 0.0:
        return d[np.argsort(d, kind="stable")]  # `_sorted_diagonal`'s order
    return _both_sectors(d, _reflection_sectors(params.n_qubits), params.b_x)[0]


def even_spectral_for(params: ChainParams) -> SpectralDecomposition:
    """The reflection-even levels, with vectors in the even basis: row a is the
    ket or pair of `_reflection_sectors(N).states[a]`."""
    d = hamiltonian_diagonal(params)
    s = _reflection_sectors(params.n_qubits)
    if params.b_x == 0.0:
        return _sorted_diagonal(d[s.states])
    return SpectralDecomposition(*_sector_eigh(d[s.states], s.x_even, params.b_x))


def _solve_threads(b_x: float) -> int:
    """How many solves a scan runs at once: the usable cores over the BLAS threads each
    solve takes (`OPENBLAS_NUM_THREADS`, else `OMP_NUM_THREADS`).

    With neither set, BLAS takes the cores itself, so the scan stays serial; so it does at
    B_x = 0, where no solve runs `eigh`.
    """
    try:
        blas = int(os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "")
    except ValueError:  # unset or not a number
        return 1
    if b_x == 0.0 or blas < 1:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, cores // blas)


def solve_ahead(solve, reads):
    """Yield `solve(p)` at each read p of `reads`, in order, solving each distinct field once
    and holding its result only until its last read.

    Fields are solved in first-read order, up to W + 1 of them ahead on W threads (W from
    `_solve_threads`; W = 1 solves a field in the calling thread at its first read). Each solve
    is the serial call, so the values are bit for bit the serial ones, and the first failure in
    read order is raised. Close the generator (`contextlib.closing`) so that an early exit
    joins its threads.
    """
    reads = list(reads)
    last = {p: i for i, p in enumerate(reads)}  # its keys: the distinct fields in first-read order
    threads = min(_solve_threads(reads[0].b_x), len(last)) if reads else 1
    pool = None
    if threads > 1:  # imported here: it loads `logging`, which serial runs do without
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(threads)
    fields, ahead, held = iter(last), deque(), {}
    try:
        for i, p in enumerate(reads):
            if p not in held and pool is None:
                held[p] = solve(p)
            elif p not in held:
                ahead.extend(pool.submit(solve, q) for q in islice(fields, threads + 1 - len(ahead)))
                held[p] = ahead.popleft().result()
            yield held[p] if last[p] > i else held.pop(p)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # waits for the running solves


def even_field_perturbation(n_qubits: int) -> np.ndarray:
    """V = -sum_i sigma_z^i in the even basis of `even_spectral_for`: a diagonal, as V(s) = V(R s)."""
    return global_field_perturbation(n_qubits)[_reflection_sectors(n_qubits).states]


def even_amplitudes(state: PureState) -> np.ndarray:
    """`state` in the even basis of `even_spectral_for`; ValueError if it has an odd part."""
    s, a = _reflection_sectors(state.n_qubits), state.amplitudes
    if np.any(a[s.rep] != a[s.mirror]):
        raise ValueError("state is not reflection-even: its amplitudes differ on a mirror pair")
    return a[s.states] / s.even_weight[s.states, 0]


def ground_state(params: ChainParams) -> PureState:
    """`spectral_for(params)`'s first column, bit for bit: at B_x = 0 the first ket of the
    diagonal's stable sort, otherwise the even ground vector mapped to 2^N rows."""
    n = params.n_qubits
    if params.b_x == 0.0:
        return PureState(np.eye(1, 2**n, int(np.argmin(hamiltonian_diagonal(params)))), n)
    s = _reflection_sectors(n)
    y0 = even_spectral_for(params).eigenvectors[:, :1]
    return PureState(_fix_phases(y0[s.even_row] * s.even_weight), n)


def ground_energy(params: ChainParams) -> float:
    return float(levels_for(params)[0])


def gap(params: ChainParams) -> float:
    """E_1 - E_0, counting degenerate levels literally (0 at exact crossings)."""
    w = levels_for(params)
    return float(w[1] - w[0])


def evolve(spec: SpectralDecomposition, state: PureState, t: float) -> PureState:
    """exp(-i*H*t)|state> through the decomposition of H."""
    coeffs = spec.eigenvectors.conj().T @ state.amplitudes
    out = spec.eigenvectors @ (np.exp(-1j * spec.eigenvalues * t) * coeffs)
    return PureState(out, state.n_qubits)


def loschmidt_echo_exact(
    params: ChainParams,
    epsilon: float,
    t: float,
    initial: "PureState | None" = None,
) -> float:
    """L = |<initial| exp(i(H+eps*V)t) exp(-iHt) |initial>|^2, V = -sum sigma_z.

    Defaults to the exact ground state of H, whose echo reads the even sector only.
    """
    if initial is None:
        return ground_echo(even_spectral_for(params), even_spectral_for(params.perturbed(epsilon)), t)
    if initial.dim != 2 ** params.n_qubits:
        raise ValueError("initial state dimension does not match the chain")
    return echo_from_spectra(spectral_for(params), spectral_for(params.perturbed(epsilon)),
                             initial.amplitudes, t)


def echo_from_spectra(spec: SpectralDecomposition, perturbed: SpectralDecomposition,
                      initial: np.ndarray, t: float) -> float:
    """The exact echo of the amplitudes `initial` from decompositions of H and H + eps*V in its basis."""
    fwd, bwd = (s.eigenvectors @ (np.exp(-1j * s.eigenvalues * t) * (s.eigenvectors.conj().T @ initial))
                for s in (spec, perturbed))
    return float(abs(np.vdot(bwd, fwd)) ** 2)


def ground_echo(spec: SpectralDecomposition, perturbed: SpectralDecomposition, t: float) -> float:
    """The exact echo of the ground vector y0 of `spec`, from real decompositions of H and of
    H + eps*V in one basis: y0 only picks up a phase under H, so L = |sum_k c_k^2 exp(i E'_k t)|^2
    with c = Y'^T y0."""
    c = perturbed.eigenvectors.T @ spec.eigenvectors[:, 0]
    return float(abs(np.sum(c * c * np.exp(1j * perturbed.eigenvalues * t))) ** 2)
