"""Spectral machinery: diagonalization, the sector solvers and the exact echo.

Propagation goes through full spectral decomposition rather than a matrix
exponential per time point, in one kernel, `SpectralDecomposition.propagate`.
Every solver call solves; a scan that reads a field twice reads it through
`solve_points`, which solves it once. The perturbed evolution uses H + epsilon*V
with V = -sum_i sigma_z^i, i.e. a longitudinal field shifted to B_z - epsilon.

The chain is solved from its parameters, with no dense 2^N x 2^N matrix. At
B_x = 0 it is diagonal and its eigenbasis is a stable sort of
`hamiltonian_diagonal`, held as that order. Otherwise it is real symmetric
and commutes with chain reversal R (qubit i <-> qubit N+1-i): the
reflection-even and -odd sectors, spanned by palindromes |i> = |R i> and
(|i> +- |R i>)/sqrt(2), are each the diagonal of H plus B_x times
sum_i sigma_x^i, built once per N from bit flips, and each gets one dense
real `eigh`. The diagonal is formed from the bond sum and sum_i sigma_z^i on
the sector's rows, also kept once per N. `diagonalize` takes any Hermitian
matrix: it sorts diagonal input and gives the rest one dense `eigh`.

The mirror rule: the global spin flip P = prod_i sigma_x^i commutes with R
and maps H(b_z) to H(-b_z) exactly (V to -V). On each sector's rows it is a
permutation, kept once per N, under which the sector diagonal at -b_z is the
one at b_z, bit for bit, and the sigma_x triples map onto themselves. So at
B_x != 0 every sector solve diagonalizes at |b_z|, and for b_z < 0 returns the
same levels with the vector rows permuted; every reader below gets that one
mirrored decomposition. B_x = 0 sorts its own diagonal at each field.

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
  (`even_field_perturbation`, read from the stored sum_i sigma_z^i), and the
  approximate ground state of the scans lies in it, its kets being palindromes
  or mirror pairs (`even_amplitudes`), so nothing maps these vectors to 2^N
  rows but `ground_state`, which maps one.
* `loschmidt_echo_exact` of a given state: its even and its odd part, each
  through its own sector's solve, in that sector's basis.

`spectral_for`, both sectors mapped to the 2^N basis, is the reference the
sector solvers are checked against; no reader in the package calls it.

A scan hands the fields each point reads to `solve_points`, which owns the
solved field (|b_z| at B_x != 0) and the visit order. It groups the points by
the set of fields they read; an echo scan's |b_z| is read by at most two such
groups, so the groups form chains, and walked chain by chain at most two
solved fields are held at once. Their reads, in that order, go to
`solve_ahead`: it solves each distinct field once, up to W + 1 fields ahead on
W threads (each `eigh` releases the GIL), and holds the result until the
field's last read; a read at b_z < 0 is mirrored. W is the usable cores over
the BLAS threads per solve (`_solve_threads`); with no BLAS variable set, or
at B_x = 0, W = 1 solves in the calling thread. Each solve is the serial
call, so the results are bit for bit the serial ones, and bit for bit the
per-point solvers' own.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .hamiltonian import ChainParams, diagonal_terms, hamiltonian_diagonal
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
    """Ascending eigenvalues with aligned orthonormal eigenvectors.

    `vectors` holds them as dense columns or, for a diagonal operator, as the
    stable sort order of its diagonal, eigenvector k being the basis ket
    `vectors[k]`. Kernels read either form through `ground_vector`,
    `coefficients` and `propagate`; `eigenvectors` builds the dense matrix of
    a sort order on each read. `dtype` is the eigenvectors' (float64 if real,
    else complex128; read from dense columns). Arrays are kept as handed over,
    not copied, and marked read-only.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    dtype: type = float

    def __post_init__(self):
        v = np.asarray(self.vectors)
        if v.ndim == 2:
            object.__setattr__(self, "dtype", complex if np.iscomplexobj(v) else float)
            v = np.asarray(v, self.dtype)
        for name, a in (("eigenvalues", np.asarray(self.eigenvalues, float)), ("vectors", v)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def eigenvectors(self) -> np.ndarray:
        if self.vectors.ndim == 2:
            return self.vectors
        kets = np.zeros((self.vectors.size,) * 2, self.dtype)
        kets[self.vectors, np.arange(self.vectors.size)] = 1.0
        return kets

    @property
    def ground_vector(self) -> np.ndarray:
        if self.vectors.ndim == 2:
            return self.vectors[:, 0]
        return np.eye(1, self.vectors.size, self.vectors[0], self.dtype)[0]

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Y^dagger x: the vector x, given in the decomposed operator's basis, in its eigenbasis."""
        if len(x) != self.eigenvalues.size:
            raise ValueError(f"dimension mismatch: {len(x)} amplitudes, {self.eigenvalues.size} levels")
        v = self.vectors
        if v.ndim == 1:
            return x[v]
        return _product(v.conj().T if np.iscomplexobj(v) else v.T, x)

    def propagate(self, x: np.ndarray, t: float) -> np.ndarray:
        """exp(-iHt) x = Y exp(-i E t) Y^dagger x."""
        c = np.exp(-1j * self.eigenvalues * t) * self.coefficients(x)
        if self.vectors.ndim == 2:
            return _product(self.vectors, c)
        out = np.empty_like(c)
        out[self.vectors] = c
        return out


def _product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x; a real m times a complex x as two real products, with no complex copy of m."""
    if np.iscomplexobj(m) or not np.iscomplexobj(x):
        return m @ x
    out = np.empty(m.shape[0], complex)
    out.real, out.imag = m @ x.real, m @ x.imag
    return out


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
    is kept as (row, column, value) triples of its nonzeros, about N per row,
    and H's diagonal as its two field-free terms on the sector's rows, which
    R keeps: a state and its mirror share them.

    The global spin flip P = prod_i sigma_x^i commutes with R, so it permutes
    each sector's basis: `flip_even[a]` is the even row of the flipped kets of
    row a, a palindrome's flip being a palindrome, and `flip_odd` likewise
    (P sends each odd basis state to minus its image's, a sign that drops out
    of P H P). One instance per N is shared by every solve, so every array is
    read-only.
    """

    states: np.ndarray  # basis index of each even-basis state
    rep: np.ndarray  # first index of each pair
    mirror: np.ndarray  # its reversed partner
    even_row: np.ndarray  # even-basis row that each basis index loads from
    even_weight: np.ndarray  # column: 1 for palindromes, 1/sqrt(2) for pair members
    x_even: tuple[np.ndarray, np.ndarray, np.ndarray]  # sum_i sigma_x^i in the even basis
    x_odd: tuple[np.ndarray, np.ndarray, np.ndarray]  # and in the odd basis
    diagonal_even: tuple[np.ndarray, np.ndarray]  # `diagonal_terms` on the even rows
    diagonal_odd: tuple[np.ndarray, np.ndarray]  # and on the odd rows
    flip_even: np.ndarray  # even row of each even row's spin-flipped kets
    flip_odd: np.ndarray  # and odd row of each odd row's

    def __post_init__(self):
        for field in vars(self).values():
            for a in field if isinstance(field, tuple) else (field,):
                a.setflags(write=False)


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
    palindrome, which R s_a reaches too. N is capped at MAX_QUBITS, checked
    before anything is built or cached.
    """
    terms = diagonal_terms(n_qubits)
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
        diagonal_even=tuple(t[states] for t in terms),
        diagonal_odd=tuple(t[rep] for t in terms),
        flip_even=even_row[states ^ idx[-1]],
        flip_odd=even_row[rep ^ idx[-1]] - p,
    )


def _sorted_diagonal(diag: np.ndarray) -> SpectralDecomposition:
    """Eigenbasis of a diagonal matrix: the basis kets in stable order of its diagonal."""
    order = np.argsort(diag.real, kind="stable")
    return SpectralDecomposition(diag.real[order], order, complex if np.iscomplexobj(diag) else float)


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


def _sector_diagonal(params: ChainParams, odd: bool) -> np.ndarray:
    """`hamiltonian_diagonal(params)` on one sector's rows, bit for bit, from the stored terms."""
    s = _reflection_sectors(params.n_qubits)
    zz, magnetization = s.diagonal_odd if odd else s.diagonal_even
    return zz + params.b_z * magnetization


def _solved_field(params: ChainParams) -> ChainParams:
    """The field a solve at `params` diagonalizes: |b_z| for B_x != 0, else `params` itself."""
    if params.b_x == 0.0 or params.b_z >= 0.0:
        return params
    return ChainParams(params.n_qubits, -params.b_z, params.b_x)


def _mirrored(spec: SpectralDecomposition, flip: np.ndarray) -> SpectralDecomposition:
    """The decomposition at -b_z from the one at b_z: the same levels, vector rows permuted
    by a sector's spin flip."""
    return SpectralDecomposition(spec.eigenvalues, spec.vectors[flip])


def mirror_even(spec: SpectralDecomposition, n_qubits: int) -> SpectralDecomposition:
    """`even_spectral_for` at -b_z from its result at b_z > 0, for B_x != 0, bit for bit."""
    return _mirrored(spec, _reflection_sectors(n_qubits).flip_even)


def _sector_spectral_for(params: ChainParams, odd: bool) -> SpectralDecomposition:
    """One reflection sector's decomposition, in that sector's basis (odd row a: the pair
    (|rep[a]> - |mirror[a]>)/sqrt(2) of `_reflection_sectors(N)`): H's diagonal there, sorted
    at B_x = 0, else plus b_x times the sector's sigma_x triples, given one `eigh` at |b_z|.

    P H(b_z) P = H(-b_z), and on the sector's rows P is the permutation `flip_even` or
    `flip_odd`: the sector diagonal at -b_z is the permuted one at b_z, bit for bit, and the
    sigma_x triples map onto themselves. So for b_z < 0 the levels are those of the |b_z|
    solve and the vectors its rows, permuted.
    """
    s, solved = _reflection_sectors(params.n_qubits), _solved_field(params)
    if solved != params:
        return _mirrored(_sector_spectral_for(solved, odd), s.flip_odd if odd else s.flip_even)
    d = _sector_diagonal(params, odd)
    if params.b_x == 0.0:
        return _sorted_diagonal(d)
    rows, cols, x = s.x_odd if odd else s.x_even
    h = np.diag(d)  # X flips change the popcount, which R keeps: no diagonal, zeros stay +0.0
    h[rows, cols] = params.b_x * x
    return SpectralDecomposition(*np.linalg.eigh(h))


def _both_sectors(params: ChainParams):
    """Both sectors' solves, merged: levels ascending (even first in a tie), the merge
    order, and each sector's vectors in its own basis."""
    even, odd = (_sector_spectral_for(params, odd) for odd in (False, True))
    w = np.concatenate([even.eigenvalues, odd.eigenvalues])
    order = np.argsort(w, kind="stable")
    return w[order], order, even.vectors, odd.vectors


def spectral_for(params: ChainParams) -> SpectralDecomposition:
    """Decomposition of the chain Hamiltonian at these parameters, solved on every call.

    At B_x = 0 it sorts the diagonal like `diagonalize`; otherwise it solves
    both reflection sectors and keeps even-sector levels first within a tie.
    """
    if params.b_x == 0.0:
        return _sorted_diagonal(hamiltonian_diagonal(params))
    s = _reflection_sectors(params.n_qubits)
    w, order, y_even, y_odd = _both_sectors(params)
    v_odd = np.zeros((s.even_row.size, y_odd.shape[1]))
    v_odd[s.rep] = np.sqrt(0.5) * y_odd
    v_odd[s.mirror] = -np.sqrt(0.5) * y_odd
    v = np.concatenate([y_even[s.even_row] * s.even_weight, v_odd], axis=1)
    return SpectralDecomposition(w, _fix_phases(v[:, order]))


def levels_for(params: ChainParams) -> np.ndarray:
    """`spectral_for(params).eigenvalues`, bit for bit, with no eigenvector matrix built: at
    B_x != 0 the levels of the |b_z| solve, which the spin flip leaves as they are."""
    if params.b_x == 0.0:
        return _sorted_diagonal(hamiltonian_diagonal(params)).eigenvalues
    return _both_sectors(_solved_field(params))[0]


def even_spectral_for(params: ChainParams) -> SpectralDecomposition:
    """The reflection-even levels, with vectors in the even basis: row a is the
    ket or pair of `_reflection_sectors(N).states[a]`."""
    return _sector_spectral_for(params, odd=False)


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


def _visit_order(fields) -> list[int]:
    """Point indices, point i reading the fields `fields[i]`, grouped by the set of fields
    read and the groups walked chain by chain.

    Groups that share a field are neighbours. When each field lies in at most two groups,
    as in an echo scan (|b_z| is read by the points at +-|b_z| and at eps +- |b_z|, and these
    read only two pairs), the groups form chains; walked from an end, at most two fields are
    read between their first and their last read at any time. Groups start in first-read
    order and keep their points in index order.
    """
    groups: dict[frozenset, list[int]] = {}
    for i, read in enumerate(fields):
        groups.setdefault(frozenset(read), []).append(i)
    touching: dict[ChainParams, list[frozenset]] = {}
    for g in groups:
        for field in g:
            touching.setdefault(field, []).append(g)
    ends = [g for g in groups if any(len(touching[field]) == 1 for field in g)]
    order, walked = [], set()
    for g in ends + list(groups):  # the chains' ends, then whatever is left (closed chains)
        while g is not None and g not in walked:
            walked.add(g)
            order.extend(groups[g])
            g = next((h for field in g for h in touching[field] if h not in walked), None)
    return order


def solve_points(solve, points, mirror):
    """The visit order and the reads of a scan whose point i reads the fields `points[i]`.

    Returns (order, reads): the point indices in `_visit_order` of the fields solved, and a
    generator of `solve(q)` at each field q of each point in that order. At B_x != 0 each
    distinct |b_z| (`_solved_field`) is solved once, through `solve_ahead`, and a read at
    b_z < 0 yields `mirror(result, N)` of its |b_z| solve (`mirror` None: the result itself,
    as for levels), which is the per-point solver's own value, bit for bit. Close the
    generator (`contextlib.closing`); nothing is solved before its first read.
    """
    order = _visit_order([[_solved_field(q) for q in reads] for reads in points])
    return order, _mirrored_reads(solve, [q for i in order for q in points[i]], mirror)


def _mirrored_reads(solve, reads, mirror):
    fields = [_solved_field(q) for q in reads]
    with closing(solve_ahead(solve, fields)) as solved:
        for q, field in zip(reads, fields):
            # no name holds a result: `solve_ahead` frees each one after its last read
            yield next(solved) if mirror is None or field == q else mirror(next(solved), q.n_qubits)


def even_field_perturbation(n_qubits: int) -> np.ndarray:
    """V = -sum_i sigma_z^i in the even basis of `even_spectral_for`: a diagonal, as V(s) = V(R s)."""
    return -_reflection_sectors(n_qubits).diagonal_even[1].astype(float)


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
        return PureState(_sorted_diagonal(hamiltonian_diagonal(params)).ground_vector, n)
    s = _reflection_sectors(n)
    y0 = even_spectral_for(params).ground_vector[:, None]
    return PureState(_fix_phases(y0[s.even_row] * s.even_weight), n)


def ground_energy(params: ChainParams) -> float:
    return float(levels_for(params)[0])


def gap(params: ChainParams) -> float:
    """E_1 - E_0, counting degenerate levels literally (0 at exact crossings)."""
    w = levels_for(params)
    return float(w[1] - w[0])


def loschmidt_echo_exact(
    params: ChainParams,
    epsilon: float,
    t: float,
    initial: "PureState | None" = None,
) -> float:
    """L = |<initial| exp(i(H+eps*V)t) exp(-iHt) |initial>|^2, V = -sum sigma_z.

    Defaults to the exact ground state of H, whose echo reads the even sector only. A
    given state is split into its parts in the even and odd sectors, which H and V both
    keep, so its echo amplitude is the sum of theirs, each propagated in its own sector.
    """
    if initial is None:
        return ground_echo(even_spectral_for(params), even_spectral_for(params.perturbed(epsilon)), t)
    if initial.dim != 2 ** params.n_qubits:
        raise ValueError("initial state dimension does not match the chain")
    s, a, r = _reflection_sectors(params.n_qubits), initial.amplitudes, np.sqrt(0.5)
    palindromes = s.states[: s.states.size - s.rep.size]
    parts = (np.concatenate([a[palindromes], r * (a[s.rep] + a[s.mirror])]), r * (a[s.rep] - a[s.mirror]))
    amplitude = 0j
    for odd, part in enumerate(parts):
        if part.any():  # a sector the state has no part in adds nothing and is not solved
            # one decomposition alive at a time: the forward leg's, then the backward leg's
            fwd, bwd = (_sector_spectral_for(q, odd).propagate(part, t)
                        for q in (params, params.perturbed(epsilon)))
            amplitude += np.vdot(bwd, fwd)
    return float(abs(amplitude) ** 2)


def echo_from_spectra(spec: SpectralDecomposition, perturbed: SpectralDecomposition,
                      initial: np.ndarray, t: float) -> float:
    """The exact echo of the amplitudes `initial` from decompositions of H and H + eps*V in its basis."""
    fwd, bwd = (s.propagate(initial, t) for s in (spec, perturbed))
    return float(abs(np.vdot(bwd, fwd)) ** 2)


def ground_echo(spec: SpectralDecomposition, perturbed: SpectralDecomposition, t: float) -> float:
    """The exact echo of the ground vector y0 of `spec`, from real decompositions of H and of
    H + eps*V in one basis: y0 only picks up a phase under H, so L = |sum_k c_k^2 exp(i E'_k t)|^2
    with c = Y'^T y0."""
    c = perturbed.coefficients(spec.ground_vector)
    return float(abs(np.sum(c * c * np.exp(1j * perturbed.eigenvalues * t))) ** 2)
