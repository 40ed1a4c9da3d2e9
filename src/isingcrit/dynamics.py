"""Spectral machinery: diagonalization, the sector solvers and the exact echo.

Propagation goes through full spectral decomposition rather than a matrix
exponential per time point, in one kernel, `SpectralDecomposition.propagate`.
Every solver call solves; a scan that reads a field twice reads it through
`solve_points`, or a grid of ground states through `ground_states`, which
solve it once. The perturbed evolution uses H + epsilon*V
with V = -sum_i sigma_z^i, i.e. a longitudinal field shifted to B_z - epsilon.

The chain is solved from its parameters, with no dense 2^N x 2^N matrix. At
B_x = 0 it is diagonal and its eigenbasis is a stable sort of
`hamiltonian_diagonal`, held as that order. Otherwise it is real symmetric
and commutes with chain reversal R (qubit i <-> qubit N+1-i), and each of
R's two sectors gets one dense real `eigh`. A `_Sector`, built once per N
(`_reflection_sectors(N)` is (even, odd)), holds its rows, palindromes
|i> = |R i> and pairs (|i> +- |R i>)/sqrt(2), H's field-free diagonal terms
and sum_i sigma_x^i on them, and the spin flip; its `embed` and `project`
are the one map between the sector and the 2^N basis. `diagonalize` takes
any Hermitian matrix: it sorts diagonal input and gives the rest one dense
`eigh`.

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
* `even_spectral_for` (ground-state echoes, both expansions): the even sector
  alone, its vectors left in the even basis. For B_x != 0, H in the basis
  signed by prod_i sigma_z^i (which commutes with R) is connected with
  non-positive off-diagonals, so by Perron-Frobenius its ground state is
  unique and even; at B_x = 0 the even basis holds a ground state too, since
  H(s) = H(R s). V is diagonal in the even basis as well
  (`even_field_perturbation`, read from the stored sum_i sigma_z^i), and the
  approximate ground state of the scans lies in it, its kets being palindromes
  or mirror pairs (`even_amplitudes`), so nothing embeds these vectors in 2^N
  rows.
* `ground_states` (the `protocol` command's fidelity column, and
  `ground_state`, its one-field case): the even ground vector of each field
  of a grid in 2^N rows. Each distinct |b_z| is solved once, the even blocks
  of many fields stacked into one `eigh` (up to `_STACK_BYTES` of blocks).
* `loschmidt_echo_exact` of a given state: its `project`ed even and odd
  parts, each through its own sector's solve, in that sector's basis.

`spectral_for`, both sectors embedded in the 2^N basis, is the reference the
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
class _Sector:
    """One chain-reversal sector of an N-qubit register, and H's field-free parts in it.

    R maps qubit i to qubit N+1-i. Row a of the sector is the ket |kets[a]> if it is a
    palindrome (mirrors[a] = R kets[a] = kets[a], weight 1), else the pair
    (|kets[a]> + sign |mirrors[a]>)/sqrt(2) (weight sqrt(1/2), kets[a] < mirrors[a]).
    The even sector (sign +1) lists the palindromes, then the pairs; the odd sector
    (sign -1) the same pairs. sum_i sigma_x^i is kept as (row, column, value) triples
    of its nonzeros, about N per row, and H's diagonal as its two field-free terms on
    the rows, which R keeps: a ket and its mirror share them.

    The global spin flip P = prod_i sigma_x^i commutes with R, so it permutes the rows:
    `flip[a]` is the row of the flipped kets of row a, a palindrome's flip being a
    palindrome (P sends an odd row to minus its image, a sign that drops out of P H P).
    One instance per N and sector is shared by every solve, so every array is read-only.
    """

    n_qubits: int
    kets: np.ndarray  # basis index of each row: the palindrome, or the pair's first ket
    mirrors: np.ndarray  # R kets
    weight: np.ndarray  # 1 for a palindrome, 1/sqrt(2) for a pair
    sign: float  # +1 (even) or -1 (odd): the mirror's sign in a pair
    zz: np.ndarray  # the bond sum on the rows
    magnetization: np.ndarray  # sum_i sigma_z^i on the rows
    x: tuple[np.ndarray, np.ndarray, np.ndarray]  # sum_i sigma_x^i as triples
    flip: np.ndarray  # row of each row's spin-flipped kets

    def __post_init__(self):
        for field in vars(self).values():
            for a in field if isinstance(field, tuple) else (field,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)

    def diagonal(self, b_z: float) -> np.ndarray:
        """`hamiltonian_diagonal` at this b_z on the sector's rows, bit for bit."""
        return self.zz + b_z * self.magnetization

    def block(self, b_z, b_x: float) -> np.ndarray:
        """H on the sector's rows at B_x != 0: a d x d block, or one per field if b_z is an array."""
        b_z = np.asarray(b_z, dtype=float)
        d = self.kets.size
        h = np.zeros(b_z.shape + (d, d))
        h[..., np.arange(d), np.arange(d)] = self.diagonal(b_z[..., None])
        rows, cols, x = self.x
        h[..., rows, cols] = b_x * x  # X flips change the popcount, which R keeps: no diagonal
        return h

    def embed(self, y: np.ndarray) -> np.ndarray:
        """A sector vector, or columns, y as 2^N rows: w y at each ket, and sign w y at its mirror."""
        out = np.zeros((1 << self.n_qubits,) + y.shape[1:])
        out[self.kets] = col = (y.T * self.weight).T
        out[self.mirrors] = col if self.sign > 0 else -col
        return out

    def project(self, a: np.ndarray) -> np.ndarray:
        """The sector part of 2^N amplitudes a: a at a palindrome, w (a + sign a') on a pair."""
        ket, mirror = a[self.kets], a[self.mirrors]
        pairs = self.weight * (ket + mirror if self.sign > 0 else ket - mirror)
        return np.where(self.kets == self.mirrors, ket, pairs)


def _summed_triples(rows, cols, vals, size: int):
    """Nonzero (row, column, value) triples in row-major order, duplicates summed."""
    keys, inverse = np.unique(rows * size + cols, return_inverse=True)
    sums = np.bincount(inverse, weights=vals)
    return keys[sums != 0] // size, keys[sums != 0] % size, sums[sums != 0]


@lru_cache(maxsize=None)
def _reflection_sectors(n_qubits: int) -> tuple[_Sector, _Sector]:
    """The even and the odd sector of one register size, built once per N.

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
    return tuple(
        _Sector(n_qubits, kets, rev[kets], np.where(rev[kets] == kets, 1.0, r), sign,
                *(t[kets] for t in terms), x, flip)
        for kets, sign, x, flip in ((states, 1.0, (er, ec, ev), even_row[states ^ idx[-1]]),
                                    (rep, -1.0, x_odd, even_row[rep ^ idx[-1]] - p))
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
    return _mirrored(spec, _reflection_sectors(n_qubits)[0].flip)


def _sector_spectral_for(params: ChainParams, sector: _Sector) -> SpectralDecomposition:
    """One reflection sector's decomposition, in its basis (row a: the ket or pair of
    `sector.kets[a]`): `sector.diagonal`, sorted at B_x = 0, else one `eigh` of
    `sector.block` at |b_z|.

    P H(b_z) P = H(-b_z), and on the sector's rows P is the permutation `sector.flip`: the
    sector diagonal at -b_z is the permuted one at b_z, bit for bit, and the sigma_x
    triples map onto themselves. So for b_z < 0 the levels are those of the |b_z| solve
    and the vectors its rows, permuted.
    """
    solved = _solved_field(params)
    if solved != params:
        return _mirrored(_sector_spectral_for(solved, sector), sector.flip)
    if params.b_x == 0.0:
        return _sorted_diagonal(sector.diagonal(params.b_z))
    return SpectralDecomposition(*np.linalg.eigh(sector.block(params.b_z, params.b_x)))


def _both_sectors(params: ChainParams):
    """Both sectors' solves, merged: levels ascending (even first in a tie), the merge
    order, and each sector's vectors in its own basis."""
    specs = [_sector_spectral_for(params, sector) for sector in _reflection_sectors(params.n_qubits)]
    w = np.concatenate([spec.eigenvalues for spec in specs])
    order = np.argsort(w, kind="stable")
    return w[order], order, [spec.vectors for spec in specs]


def spectral_for(params: ChainParams) -> SpectralDecomposition:
    """Decomposition of the chain Hamiltonian at these parameters, solved on every call.

    At B_x = 0 it sorts the diagonal like `diagonalize`; otherwise it solves
    both reflection sectors and keeps even-sector levels first within a tie.
    """
    if params.b_x == 0.0:
        return _sorted_diagonal(hamiltonian_diagonal(params))
    w, order, vectors = _both_sectors(params)
    sectors = _reflection_sectors(params.n_qubits)
    v = np.concatenate([sector.embed(y) for sector, y in zip(sectors, vectors)], axis=1)
    return SpectralDecomposition(w, _fix_phases(v[:, order]))


def levels_for(params: ChainParams) -> np.ndarray:
    """`spectral_for(params).eigenvalues`, bit for bit, with no eigenvector matrix built: at
    B_x != 0 the levels of the |b_z| solve, which the spin flip leaves as they are."""
    if params.b_x == 0.0:
        return _sorted_diagonal(hamiltonian_diagonal(params)).eigenvalues
    return _both_sectors(_solved_field(params))[0]


def even_spectral_for(params: ChainParams) -> SpectralDecomposition:
    """The reflection-even levels, with vectors in the even basis: row a is the
    ket or pair of `_reflection_sectors(N)[0].kets[a]`."""
    return _sector_spectral_for(params, _reflection_sectors(params.n_qubits)[0])


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
    return -_reflection_sectors(n_qubits)[0].magnetization.astype(float)


def even_amplitudes(state: PureState) -> np.ndarray:
    """`state` in the even basis of `even_spectral_for`; ValueError if it has an odd part."""
    even, a = _reflection_sectors(state.n_qubits)[0], state.amplitudes
    if np.any(a[even.kets] != a[even.mirrors]):
        raise ValueError("state is not reflection-even: its amplitudes differ on a mirror pair")
    return a[even.kets] / even.weight


# The most bytes one stacked `eigh` of `ground_states` is handed, (G, d, d) float64 even
# blocks; a stack and its vectors hold twice this. Stacking pays where the per-call cost
# rivals the LAPACK work: G = 227 at N = 3 (d = 6), 81 at N = 4 (d = 10), 6 at N = 6, and 1
# from N = 7 (d = 72) on. A larger stack only adds to the peak memory of a protocol sweep.
_STACK_BYTES = 1 << 16


def _even_ground_vectors(n_qubits: int, b_x: float, b_z: np.ndarray) -> np.ndarray:
    """The even sector's ground vector at each field of b_z (B_x != 0), one row each.

    The blocks (`_Sector.block`) are `_sector_spectral_for`'s, stacked into one `eigh` per
    `_STACK_BYTES` of them; `eigh` runs the one-matrix LAPACK call on each block of a
    stack, so each vector is bit for bit the one a solve of its field alone gives.
    """
    even = _reflection_sectors(n_qubits)[0]
    d = even.kets.size
    chunk = max(1, _STACK_BYTES // (8 * d * d))
    ground = np.empty((b_z.size, d))
    for start in range(0, b_z.size, chunk):
        stack = even.block(b_z[start:start + chunk], b_x)
        ground[start:start + len(stack)] = np.linalg.eigh(stack)[1][:, :, 0]
    return ground


def ground_states(n_qubits: int, b_x: float, b_z_values):
    """Yield `spectral_for`'s first column at each field b_z of `b_z_values`, bit for bit.

    Nothing is checked or solved before the first state is read. At B_x = 0 each field is
    checked (`ChainParams`) and its diagonal sorted as it is read: the state is the sort's
    first ket. Otherwise the first read checks every field, then solves each distinct |b_z|
    (`_solved_field`) once, in stacked `eigh` calls (`_even_ground_vectors`). A field at
    b_z < 0 reads its |b_z| vector with the rows permuted by the spin flip, and each vector
    is mapped to 2^N rows as it is yielded, so only the states a caller keeps are held.
    """
    fields = (ChainParams(n_qubits, b_z, b_x) for b_z in b_z_values)
    if b_x == 0.0:
        for p in fields:
            yield PureState(_sorted_diagonal(hamiltonian_diagonal(p)).ground_vector, n_qubits)
        return
    stacked, reads = {}, []  # each distinct solved field's row; each field's row and mirroring
    for p in fields:
        solved = _solved_field(p)
        reads.append((stacked.setdefault(solved, len(stacked)), solved != p))
    b_z = np.array([q.b_z for q in stacked])
    ground = _even_ground_vectors(n_qubits, float(b_x), b_z)
    even = _reflection_sectors(n_qubits)[0]
    for row, mirrored in reads:
        y0 = even.embed(ground[row][even.flip] if mirrored else ground[row])
        yield PureState(_fix_phases(y0[:, None]), n_qubits)


def ground_state(params: ChainParams) -> PureState:
    """`spectral_for(params)`'s first column, bit for bit: `ground_states` at one field."""
    return next(ground_states(params.n_qubits, params.b_x, [params.b_z]))


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
    amplitude = 0j
    for sector in _reflection_sectors(params.n_qubits):
        part = sector.project(initial.amplitudes)
        if part.any():  # a sector the state has no part in adds nothing and is not solved
            # one decomposition alive at a time: the forward leg's, then the backward leg's
            fwd, bwd = (_sector_spectral_for(q, sector).propagate(part, t)
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
