"""Spectral machinery: diagonalization, the sector solvers, the field planner and the exact echo.

Propagation goes through full spectral decomposition rather than a matrix
exponential per time point, in one kernel, `SpectralDecomposition.propagate`.
Every solver call solves; a reader of a grid of fields reads them through
`plan`, which solves each field once. The perturbed evolution uses H + epsilon*V
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
B_x != 0 every sector solve diagonalizes at |b_z| (`_solved_field`), and for
b_z < 0 returns the same levels with the vector rows permuted (`_mirrored`,
the one place the rule is applied). B_x = 0 sorts its own diagonal at each
field.

Each one-field reader calls the solver that builds only what it reads, in the
basis it reads it in:

* `levels_for` (`gap`, `ground_energy`): the levels of `spectral_for` with no
  eigenvector matrix assembled.
* `even_spectral_for`: the even sector alone, its vectors left in the even
  basis. For B_x != 0, H in the basis signed by prod_i sigma_z^i (which
  commutes with R) is connected with non-positive off-diagonals, so by
  Perron-Frobenius its ground state is unique and even; at B_x = 0 the even
  basis holds a ground state too, since H(s) = H(R s). V is diagonal in the
  even basis as well (`even_field_perturbation`, read from the stored
  sum_i sigma_z^i), and the approximate ground state of the scans lies in it,
  its kets being palindromes or mirror pairs (`even_amplitudes`), so nothing
  embeds these vectors in 2^N rows.
* `ground_state`: `ground_states` at one field, whose rows are even ground
  vectors embedded in 2^N amplitudes as one array.
* `loschmidt_echo_exact` of a given state: its `project`ed even and odd
  parts, each through its own sector's solve, in that sector's basis.

`spectral_for`, both sectors embedded in the 2^N basis, is the reference the
sector solvers are checked against; no reader in the package calls it.

A grid reader (the echo scans, the `spectrum` command and
`network.protocol_vs_exact`) hands `plan` the fields each point reads, what it
takes of them (LEVELS or EVEN, the even decomposition) and a function of a
point's index and reads, and gets back that function's value at each point, in
point order. The planner owns the solved field, the mirror, the visit order,
each result's lifetime, the executor and joining its threads, on return and on
any exception. It groups the points by the set of solved fields they read; an
echo scan's |b_z| is read by at most two such groups, so the groups form
chains, and walked chain by chain at most two solved fields are held at once,
each until the value of its last read. One rule on the even block width d
picks the executor: a stacked `eigh` where a `_STACK_BYTES` (64 KiB) stack
holds at least 2 blocks (d <= 64, N <= 6); otherwise one field per call,
`solve_ahead`, on W threads (each `eigh` releases the GIL), W being the usable
cores over the BLAS threads per solve (`_solve_threads`), or serially at W = 1;
and at B_x = 0 each field's sorted diagonal, serially. numpy runs the
one-matrix LAPACK call on each block of a stack and each threaded solve is the
serial call, so every executor reads the bytes of the one-field solvers.
Memory: one stack of up to 64 KiB per sector read, or the held solves (2 in an
echo scan) plus up to W solved ahead.

`ground_states` reads its grid as one array instead of through `plan`: it
solves the distinct |b_z| through the same executor (`_solves`), keeping each
even ground vector alone (GROUND), then builds the 2^N rows a 64 KiB block at a
time (at least one row), each block with one mirror index, one `embed`, one
`_fix_phases` and one norm check. It holds the distinct ground vectors and one
block.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice

import numpy as np

from .hamiltonian import ChainParams, diagonal_terms, hamiltonian_diagonal
from .states import (
    HERMITIAN_TOL,
    HermitianOperator,
    PureState,
    frozen_array,
    is_hermitian,
    pure_states,
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
    """The field a solve at `params` diagonalizes: the chain at |b_z| for B_x != 0 and b_z < 0,
    else `params` itself (the same object: a read is mirrored when its solved field is not it)."""
    if params.b_x == 0.0 or params.b_z >= 0.0:
        return params
    return ChainParams(params.n_qubits, -params.b_z, params.b_x)


def _mirrored(result, sector: _Sector):
    """A sector solve at |b_z|, a decomposition or a (G, d) block of ground vectors as rows,
    read at -|b_z|: the one place the mirror rule is applied.

    P H(b_z) P = H(-b_z), and on the sector's rows P is the permutation `sector.flip`: the
    sector diagonal at -b_z is the permuted one at b_z, bit for bit, and the sigma_x
    triples map onto themselves. So for b_z < 0 the levels are those of the |b_z| solve
    and the vectors its rows, permuted.
    """
    if isinstance(result, np.ndarray):
        return result[:, sector.flip]
    return SpectralDecomposition(result.eigenvalues, result.vectors[sector.flip])


def _sector_spectral_for(params: ChainParams, sector: _Sector) -> SpectralDecomposition:
    """One reflection sector's decomposition, in its basis (row a: the ket or pair of
    `sector.kets[a]`): `sector.diagonal`, sorted at B_x = 0, else one `eigh` of
    `sector.block` at |b_z|, `_mirrored` to `params`."""
    if params.b_x == 0.0:
        return _sorted_diagonal(sector.diagonal(params.b_z))
    solved = _solved_field(params)
    spec = SpectralDecomposition(*np.linalg.eigh(sector.block(solved.b_z, params.b_x)))
    return spec if solved is params else _mirrored(spec, sector)


def spectral_for(params: ChainParams) -> SpectralDecomposition:
    """Decomposition of the chain Hamiltonian at these parameters, solved on every call.

    At B_x = 0 it sorts the diagonal like `diagonalize`; otherwise it solves
    both reflection sectors and keeps even-sector levels first within a tie.
    """
    if params.b_x == 0.0:
        return _sorted_diagonal(hamiltonian_diagonal(params))
    sectors = _reflection_sectors(params.n_qubits)
    specs = [_sector_spectral_for(params, sector) for sector in sectors]
    w = np.concatenate([spec.eigenvalues for spec in specs])
    order = np.argsort(w, kind="stable")
    v = np.concatenate([sector.embed(spec.vectors) for sector, spec in zip(sectors, specs)], axis=1)
    return SpectralDecomposition(w[order], _fix_phases(v[:, order]))


def levels_for(params: ChainParams) -> np.ndarray:
    """`spectral_for(params).eigenvalues`, bit for bit, with no eigenvector matrix built: at
    B_x != 0 the levels of the |b_z| solve, which the spin flip leaves as they are, each
    sector's vectors freed as its levels are taken."""
    if params.b_x == 0.0:
        return _sorted_diagonal(hamiltonian_diagonal(params)).eigenvalues
    specs = (_sector_spectral_for(_solved_field(params), s) for s in _reflection_sectors(params.n_qubits))
    return _merged([spec.eigenvalues for spec in specs])


def _merged(levels) -> np.ndarray:
    """Both sectors' levels in one ascending array, even first within a tie: `spectral_for`'s merge."""
    return np.sort(np.concatenate(levels), kind="stable")


def even_spectral_for(params: ChainParams) -> SpectralDecomposition:
    """The reflection-even levels, with vectors in the even basis: row a is the
    ket or pair of `_reflection_sectors(N)[0].kets[a]`."""
    return _sector_spectral_for(params, _reflection_sectors(params.n_qubits)[0])


# What a plan read takes of each field: the levels (`levels_for`) or the even decomposition
# (`even_spectral_for`); `ground_states` has `_solves` keep the even ground vector alone (GROUND).
LEVELS, EVEN, GROUND = "levels", "even", "ground"

# The most bytes of blocks one stacked `eigh` is handed, (G, d, d) float64 sector blocks.
# Stacking pays where the per-call cost rivals the LAPACK work: G = 227 at N = 3 (d = 6),
# 81 at N = 4 (d = 10), 6 at N = 6 (d = 36). A plan stacks where a stack holds at least
# 2 even blocks, d <= 64, so up to N = 6; from N = 7 (d = 72) each field is its own `eigh`.
_STACK_BYTES = 1 << 16


def plan(points, need, value):
    """`value(i, *reads)` of each point i of a grid solve, in point order, where point i reads
    the fields `points[i]`, all of one N and B_x, and its reads are `need`'s value (LEVELS
    or EVEN) at each of them, bit for bit the one-field reader's.

    The points are visited in `_visit_order` of their solved fields. Each distinct solved
    field is solved once, by the executor rule (`_solves`), at its first read, and held
    until the value of the last point that reads it returns; a read at b_z < 0 is the
    `_mirrored` |b_z| solve. Any solve threads are joined on return and when `value` or a
    solve raises.
    """
    solved = [[_solved_field(q) for q in point] for point in points]
    order = _visit_order([[field.b_z for field in point] for point in solved])
    # a plan's fields share N and B_x, so a solved field is keyed by its b_z (a float, which
    # hashes in C): the point that reads it last, and the distinct ones in first-read order
    last = {field.b_z: i for i in order for field in solved[i]}
    held, values = {}, [None] * len(points)
    with closing(_solves(list({f.b_z: f for i in order for f in solved[i]}.values()), need)) as solves:
        for i in order:
            for field in solved[i]:
                if field.b_z not in held:
                    held[field.b_z] = next(solves)
            # the reads are passed unnamed, so a result is freed once its last point's value
            # returns, before the next point's fields are solved
            values[i] = value(i, *[_read(need, held[f.b_z], q, f) for q, f in zip(points[i], solved[i])])
            held = {b_z: result for b_z, result in held.items() if last[b_z] != i}
    return values


def _solves(fields, need):
    """Each field's result for `need`, in order, from the executor of the rule: one `eigh`
    per sector read and stack of fields where a `_STACK_BYTES` stack holds 2 even blocks,
    else `solve_ahead` of each field's one-field solve (`_solve`)."""
    b_x = fields[0].b_x if fields else 0.0
    sectors = _reflection_sectors(fields[0].n_qubits)[:1 + (need == LEVELS)] if b_x != 0.0 else ()
    size = _STACK_BYTES // (8 * sectors[0].kets.size ** 2) if sectors else 0
    if size < 2:
        yield from solve_ahead(partial(_solve, need), fields)
        return
    for start in range(0, len(fields), size):
        b_z = np.array([q.b_z for q in fields[start:start + size]])
        (w, v), *odd = [np.linalg.eigh(sector.block(b_z, b_x)) for sector in sectors]
        for g in range(b_z.size):
            yield _merged([w[g], *(u[g] for u, _ in odd)]) if need == LEVELS else _kept(need, w[g], v[g])
        del w, v, odd  # freed before the next stack is solved


def _solve(need, field: ChainParams):
    """One field's result for `need`, from its one-field solver."""
    if need == LEVELS:
        return levels_for(field)
    spec = even_spectral_for(field)
    return spec if need == EVEN else _kept(need, spec.eigenvalues, spec.vectors)


def _kept(need, w: np.ndarray, v: np.ndarray):
    """An even solve as `need`'s result, copied, so that what it was read from is freed: all
    of it (EVEN) or its ground vector (GROUND)."""
    return SpectralDecomposition(w.copy(), v.copy()) if need == EVEN else v[:, 0].copy()


def _read(need, result, q: ChainParams, field: ChainParams):
    """`need`'s value at q from the result of its solved field (the spin flip leaves levels as they are)."""
    return result if need == LEVELS or field is q else _mirrored(result, _reflection_sectors(q.n_qubits)[0])


def _solve_threads(b_x: float) -> int:
    """How many solves a plan runs at once: the usable cores over the BLAS threads each
    solve takes (`OPENBLAS_NUM_THREADS`, else `OMP_NUM_THREADS`).

    With neither set, BLAS takes the cores itself, so the solves stay serial; so they do at
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


def solve_ahead(solve, fields):
    """Yield `solve(q)` at each field q of `fields`, in order, up to W + 1 of them ahead on W
    threads (W from `_solve_threads`; W = 1 solves each in the calling thread as it is read).

    Each solve is the serial call, so the values are bit for bit the serial ones, and the
    first failure in field order is raised. Close the generator (`contextlib.closing`) so
    that an early exit joins its threads.
    """
    fields = list(fields)
    threads = min(_solve_threads(fields[0].b_x), len(fields)) if fields else 1
    if threads == 1:
        yield from map(solve, fields)
        return
    # imported here: it loads `logging`, which serial runs do without
    from concurrent.futures import ThreadPoolExecutor
    pool, fields = ThreadPoolExecutor(threads), iter(fields)
    try:
        ahead = [pool.submit(solve, q) for q in islice(fields, threads + 1)]
        while ahead:
            yield ahead.pop(0).result()
            ahead += [pool.submit(solve, q) for q in islice(fields, 1)]
    finally:
        pool.shutdown(cancel_futures=True)  # waits for the running solves


def _visit_order(fields) -> list[int]:
    """Point indices, point i reading the fields `fields[i]` (any hashable keys of them),
    grouped by the set of fields read and the groups walked chain by chain.

    Groups that share a field are neighbours. When each field lies in at most two groups,
    as in an echo scan (|b_z| is read by the points at +-|b_z| and at eps +- |b_z|, and these
    read only two pairs), the groups form chains; walked from an end, at most two fields are
    read between their first and their last read at any time. Groups start in first-read
    order and keep their points in index order.
    """
    groups: dict[frozenset, list[int]] = {}
    for i, read in enumerate(fields):
        groups.setdefault(frozenset(read), []).append(i)
    touching: dict[float, list[frozenset]] = {}
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


def even_field_perturbation(n_qubits: int) -> np.ndarray:
    """V = -sum_i sigma_z^i in the even basis of `even_spectral_for`: a diagonal, as V(s) = V(R s)."""
    return -_reflection_sectors(n_qubits)[0].magnetization.astype(float)


def even_amplitudes(state: PureState) -> np.ndarray:
    """`state` in the even basis of `even_spectral_for`; ValueError if it has an odd part."""
    even, a = _reflection_sectors(state.n_qubits)[0], state.amplitudes
    if np.any(a[even.kets] != a[even.mirrors]):
        raise ValueError("state is not reflection-even: its amplitudes differ on a mirror pair")
    return a[even.kets] / even.weight


def ground_states(n_qubits: int, b_x: float, b_z_values):
    """Yield `spectral_for`'s first column at each field b_z of `b_z_values`, in order, bit for bit.

    Nothing is checked or solved before the first state is read. That read checks every
    field, then solves each distinct |b_z| once through the planner's executor (`_solves`,
    stacked up to N = 6), keeping the even ground vector alone. The rows are then built as
    arrays, `_STACK_BYTES` of 2^N rows (at least one) at a time: each field's even ground
    vector, `_mirrored` for b_z < 0 in one index, embedded, phase-fixed and norm-checked as
    one block (`pure_states`). At B_x = 0 a row is the first ket of its field's full sort,
    which has no even form. Beyond the distinct solves, only one block of rows and the
    states a caller keeps are held.
    """
    fields = [ChainParams(n_qubits, b_z, b_x) for b_z in b_z_values]  # every field, before any solve
    if not fields:
        return
    b_z = np.array([q.b_z for q in fields])
    if b_x != 0.0:
        even = _reflection_sectors(n_qubits)[0]
        magnitudes, solved = np.unique(np.abs(b_z), return_inverse=True)
        with closing(_solves([ChainParams(n_qubits, m, b_x) for m in magnitudes], GROUND)) as solves:
            vectors = np.fromiter(solves, np.dtype((float, even.kets.size)), magnitudes.size)
    else:
        kets = np.array([_sorted_diagonal(hamiltonian_diagonal(q)).vectors[0] for q in fields], np.intp)
    size = max(1, _STACK_BYTES // (16 << n_qubits))
    for start in range(0, len(fields), size):
        rows = slice(start, start + size)
        if b_x != 0.0:
            y, flipped = vectors[solved[rows]], b_z[rows] < 0.0
            y[flipped] = _mirrored(y[flipped], even)
            block = _fix_phases(even.embed(y.T)).T
        else:
            ket = kets[rows]
            block = np.zeros((ket.size, 1 << n_qubits))
            block[np.arange(ket.size), ket] = 1.0
        yield from pure_states(block, n_qubits)


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
