"""Semi-supervised planted bisection model.

Two balanced hidden communities over n vertices; within-community pairs are
edges with probability a/n, cross pairs with probability b/n, and a balanced
subset of m = 2*floor(rho*n/2) true labels is revealed.  This module holds the
parameter/instance types, the seeded sampler (a graph draw, then a reveal
draw, which alone reads rho), and the centered adjacency
operator A - (d/n) 11^T used by the SDP machinery.  It is the one module that
knows how an operator is stored, and a graph is its sorted edge list and
nothing else, which the census reads as it stands.  The one CSR matrix,
``MatrixOperator.offdiag``, imports ``scipy.sparse`` when it is first built,
and ``MatrixOperator.offdiag_product`` is the one product with it.
The input rules live here too, each written once, as one function each:
integers with an optional floor for counts (``_require_int``, on every count
and size field), real numbers (``_require_real``) and arrays of them
(``_floats``, on an operator's weights, u and dense matrix), seeds, votes in
{+1, 0, -1} (``_ternary``, on a reveal, the census's votes or labels), the
key width of packed index pairs (``_check_size``, on a vertex count or a
dimension, and so on every key the census packs), reveal ratios and rates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from .rng import stream

if TYPE_CHECKING:
    import scipy.sparse


def _store(obj, name: str, arr: np.ndarray, *rest) -> np.ndarray:
    """Store ``arr``, a fresh array no caller holds, read-only as the field
    ``name`` of the frozen dataclass ``obj`` (as ``(arr, *rest)`` given
    ``rest``, whose arrays are made read-only too)."""
    for held in (arr, *rest):
        if isinstance(held, np.ndarray):
            held.setflags(write=False)
    object.__setattr__(obj, name, (arr, *rest) if rest else arr)
    return arr


def _indices(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; ValueError where the cast would change a
    value (0.7, nan, "1").  Integer input is cast with no pass over it: a
    uint64 above 2**63 - 1 wraps negative, for the caller's range check."""
    raw = np.asarray(values)
    idx = raw.astype(np.int64, copy=False)
    if raw.dtype.kind not in "biu" and not np.array_equal(idx, raw):
        raise ValueError(f"{what} must be integers")
    return idx


def _ternary(values, what: str) -> np.ndarray:
    """``values`` as a fresh int8 array; ValueError unless each is +1, 0 or -1.
    The cast is compared with the input only when that is not int8 already,
    where it is exact, so re-checking a validated vector costs one range test."""
    raw = np.asarray(values)
    v = raw.astype(np.int8)
    if (raw.dtype != np.int8 and not np.array_equal(v, raw)) or np.any((v < -1) | (v > 1)):
        raise ValueError(f"{what} must lie in {{+1, 0, -1}}")
    return v


def _floats(values, what: str) -> np.ndarray:
    """``values`` as a fresh float64 array; ValueError unless they are held
    as integers or floats (a string, an object or a bool is not a number)."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be numbers, got dtype {raw.dtype}")
    return raw.astype(np.float64)


_LOW = (1 << 32) - 1  # the hi field of a key made by _pack


def _check_size(size: int, what: str) -> None:
    """ValueError when the indices below ``size`` would not all pack into
    :func:`_pack`'s keys."""
    if size > 1 << 31:
        raise ValueError(f"{what} must be at most 2**31 for pairs to pack "
                         f"into one int64 key, got {size}")


def _pack(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The int64 keys ``(lo << 32) | hi`` of index pairs below 2**31, which
    sort by (lo, hi); :func:`_unpack` reads them back."""
    return (lo << 32) | hi


def _unpack(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (lo, hi) of the keys made by :func:`_pack`."""
    return keys >> 32, keys & _LOW


def _require_int(value, name: str, floor: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy's included;
    bool is not one), so that a config holding "2" is a usage error rather
    than a failure deep inside a comparison; and, given a ``floor``, unless
    it is at least that (``<name> must be >= <floor>``), the one rule for a
    count such as a depth, a replication count or a rank."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if floor is not None and value < floor:
        raise ValueError(f"{name} must be >= {floor}")


def _require_real(value, name: str) -> None:
    """:func:`_require_int`'s rule for a real number (integers included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _check_seed(seed) -> None:
    """Raise ValueError unless ``seed`` is an integer in [0, 2**64), the one
    rule for every seed a parameter set or config holds; outside that range
    the streams would fold it onto another seed (-1 onto 2**64 - 1)."""
    _require_int(seed, "seed")
    if not 0 <= int(seed) < 1 << 64:
        raise ValueError("seed must be an unsigned 64-bit integer")


def _check_rho(rho) -> None:
    """Raise ValueError unless the reveal ratio ``rho`` is a number in [0, 1]."""
    _require_real(rho, "rho")
    if not 0 <= rho <= 1:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")


def _check_rates(a, b) -> None:
    """Raise ValueError unless the rates a and b are numbers with a >= b >= 0."""
    _require_real(a, "a")
    _require_real(b, "b")
    if not 0 <= b <= a:
        raise ValueError(f"rates must satisfy a >= b >= 0, got a={a}, b={b}")


def snr(a: float, b: float) -> float:
    """Signal-to-noise ratio (a - b)^2 / (2 (a + b)).

    Unsupervised weak recovery is feasible iff this exceeds 1 (the
    Kesten-Stigum threshold).
    """
    _check_rates(a, b)
    if a + b == 0:
        raise ValueError("snr undefined for a + b = 0")
    return (a - b) ** 2 / (2.0 * (a + b))


@dataclass(frozen=True)
class ModelParams:
    """Complete parameter set for one semi-supervised planted bisection instance.

    Attributes:
        n: vertex count, a positive even integer, at most 2**31.
        a: within-community rate; edge probability is a/n.
        b: cross-community rate, 0 <= b <= a; edge probability is b/n.
        rho: fraction of labels to reveal, in [0, 1].
        seed: integer in [0, 2**64); every random choice derives from it.
    """

    n: int
    a: float
    b: float
    rho: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _require_int(self.n, "n")
        _check_seed(self.seed)
        if self.n <= 0 or self.n % 2:
            raise ValueError(f"n must be a positive even integer, got {self.n}")
        _check_size(self.n, "vertex count")
        _check_rates(self.a, self.b)
        if self.a > self.n:
            raise ValueError(f"invalid edge probability a/n = {self.a / self.n} > 1")
        _check_rho(self.rho)

    @property
    def d(self) -> float:
        """Average degree (a + b) / 2."""
        return 0.5 * (self.a + self.b)

    def null(self, seed: int) -> ModelParams:
        """The matched Erdős–Rényi null drawn from ``seed``: a = b = d, same n, rho."""
        return replace(self, a=self.d, b=self.d, seed=seed)

    @property
    def m(self) -> int:
        """Number of revealed labels, 2*floor(rho*n/2); always even, balanced.
        Counted in integers, with rho read to nine decimals, so it is exact
        for every n up to 2**31: in floats 0.3 * 1500 is 449.999..., and
        above n ~ 4e7 rho * n / 2 can fall a unit below its floor."""
        return 2 * (round(self.rho * 10**9) * self.n // (2 * 10**9))


@dataclass(frozen=True)
class Labels:
    """Ground-truth community assignment: a balanced vector of +-1.  Its two
    communities are derived from it once, as read-only int64 arrays:
    ``communities`` holds the sorted positions of the +1 labels, then of
    the -1 labels, which the graph and every reveal draw read."""

    values: np.ndarray
    communities: tuple[np.ndarray, np.ndarray] = field(init=False)

    def __post_init__(self):
        v = _store(self, "values", _ternary(self.values, "labels"))
        if v.ndim != 1 or v.size == 0 or not v.all():
            raise ValueError("labels must be a nonempty vector with entries +-1")
        if int(v.sum(dtype=np.int64)) != 0:
            raise ValueError("labels must be balanced (equal community sizes)")
        _store(self, "communities", np.flatnonzero(v > 0), np.flatnonzero(v < 0))

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Graph:
    """Sparse undirected simple graph with ground-truth labels, stored as its
    edge list.

    ``ei`` and ``ej`` hold every edge once, as read-only int64 arrays with
    ``ei < ej``, sorted by (ei, ej).  The constructor takes the edges in any
    order and orientation and raises ValueError on endpoint arrays that are
    not 1-D of equal length, an endpoint that is not an integer (2.2) or lies
    outside [0, n), a self-loop or a repeated edge (in either orientation),
    so every Graph is simple by construction; and on an n that is not an
    integer or is above 2**31, before it reads the edges, since each edge is
    sorted as one packed int64 key.
    """

    n: int
    ei: np.ndarray
    ej: np.ndarray
    labels: Labels

    def __post_init__(self):
        _require_int(self.n, "n")
        _check_size(self.n, "vertex count")
        ei, ej = _indices(self.ei, "edge endpoints"), _indices(self.ej, "edge endpoints")
        if ei.ndim != 1 or ei.shape != ej.shape:
            raise ValueError(f"endpoint arrays must be 1-D of equal length, got shapes "
                             f"{ei.shape} and {ej.shape}")
        lo, hi = np.minimum(ei, ej), np.maximum(ei, ej)
        if ei.size and (lo.min() < 0 or hi.max() >= self.n):
            raise ValueError(f"edge endpoint out of range [0, {self.n})")
        if np.any(lo == hi):
            raise ValueError(f"self-loop at vertex {lo[lo == hi][0]}")
        keys = _pack(lo, hi)  # distinct unless an edge repeats
        keys.sort()  # in place: np.sort would copy
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            raise ValueError("repeated edge ({}, {})".format(*_unpack(keys[repeated[0]])))
        lo, hi = _unpack(keys)
        _store(self, "ei", lo)
        _store(self, "ej", hi)
        if self.labels.n != self.n:
            raise ValueError("label vector length does not match vertex count")

    @property
    def num_edges(self) -> int:
        return self.ei.size


@dataclass(frozen=True)
class RevealedLabels:
    """Ternary reveal vector: +-1 on the revealed set, 0 elsewhere.  Both
    index sets are derived from it, as read-only int64 arrays:
    ``revealed_set``, the sorted nonzero positions, and ``unrevealed_set``,
    the sorted zeros, which every estimator labels and the overlap scores."""

    values: np.ndarray
    revealed_set: np.ndarray = field(init=False)
    unrevealed_set: np.ndarray = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.values)
        if raw.ndim != 1:
            raise ValueError(f"reveal values must be a vector, got shape {raw.shape}")
        v = _store(self, "values", _ternary(raw, "reveal values"))
        _store(self, "revealed_set", np.flatnonzero(v))
        _store(self, "unrevealed_set", np.flatnonzero(v == 0))
        if int(v.sum(dtype=np.int64)) != 0:
            raise ValueError("reveal must be balanced across communities")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def m(self) -> int:
        return self.revealed_set.size


@dataclass(frozen=True)
class MatrixOperator:
    """Symmetric matrix in sparse + rank-one form.

    Dense entry: ``M[i, j] = S[i, j] + c * u[i] * u[j]`` where S is symmetric
    and stored once per unordered pair (rows <= cols), sorted by (rows, cols),
    in read-only arrays of the operator's own, and ``rank1 = (u, c)``, which
    is (0, 0.0) when none is given.
    Duplicate entries in the input are summed in input order; exact zeros
    are dropped.  ``dim`` is an integer of at most 2**31, checked first,
    since each pair is coalesced as one packed int64 key; ``rows``, ``cols``
    and ``weights`` are vectors of one length, and every entry (the weights,
    u and c) is a finite number, the weights and u held as integers or
    floats (a string or a bool is refused, not cast).  Every product with
    M's off-diagonal part B goes through ``offdiag_product``, one product
    with the cached CSR matrix ``offdiag``: M S = B S + diag(M) S, in
    O((nnz + dim) k) for k columns; ``offdiag_radii`` gives the Gershgorin
    radii of B.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    rank1: tuple[np.ndarray, float] | None = None
    # not a field: 0.0 for every operator; only the solve hash of
    # bench/run.py (repeated_solves) reads it
    diag_shift: ClassVar[float] = 0.0

    def __post_init__(self):
        _require_int(self.dim, "dim")
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        _check_size(self.dim, "dimension")
        r = _indices(self.rows, "sparse indices")
        c = _indices(self.cols, "sparse indices")
        w = _floats(self.weights, "weights")
        if not (r.shape == c.shape == w.shape):
            raise ValueError("rows/cols/weights must have equal length")
        if r.ndim != 1:
            raise ValueError(f"rows/cols/weights must be vectors, got shape {r.shape}")
        lo, hi = np.minimum(r, c), np.maximum(r, c)
        if r.size and (lo.min() < 0 or hi.max() >= self.dim):
            raise ValueError("sparse entry out of range")
        # coalesce duplicates, each pair's weights summed in input order
        keys = _pack(lo, hi)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.flatnonzero(np.diff(keys, prepend=-1))  # group starts; keys >= 0
        with np.errstate(over="ignore"):  # an inf sum is refused below
            w = np.add.reduceat(w[order], first)
        nz = w != 0.0
        lo, hi = _unpack(keys[first[nz]])
        _store(self, "rows", lo)
        _store(self, "cols", hi)
        _store(self, "weights", w[nz])
        u, coeff = self.rank1 or (np.zeros(self.dim), 0)
        _require_real(coeff, "rank-one coefficient")
        u = _store(self, "rank1", _floats(u, "rank-one vector"), float(coeff))
        if u.size != self.dim:
            raise ValueError("rank-one vector length does not match dim")
        if not (np.isfinite(self.weights).all() and np.isfinite(u).all()
                and math.isfinite(self.rank1[1])):
            raise ValueError("operator entries must be finite")

    @classmethod
    def from_dense(cls, M) -> "MatrixOperator":
        """Operator view of a dense symmetric matrix (upper triangle stored)."""
        M = _floats(M, "matrix entries")
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.allclose(M, M.T, atol=1e-12, rtol=0):
            raise ValueError("matrix must be symmetric")
        r, c = np.nonzero(np.triu(M))
        return cls(M.shape[0], r, c, M[r, c])

    @cached_property
    def offdiag(self) -> scipy.sparse.csr_matrix:
        """The off-diagonal part B of M as one dim x (dim + 1) CSR matrix
        W = [B_s - diag(c u*u) | c u], for B_s the off-diagonal sparse part
        and c u u^T the rank-one part (last column zero without one), so
        that ``offdiag @ [S; u^T S] = B S``.  Columns are sorted within each
        row, which fixes the summation order of every product against it."""
        n = self.dim
        off = self.rows != self.cols
        r, c, w = self.rows[off], self.cols[off], self.weights[off]
        u, coeff = self.rank1
        idx = np.arange(n)
        rows, cols = [r, c, idx, idx], [c, r, idx, np.full(n, n)]
        data = [w, w, -coeff * u * u, coeff * u]
        # imported here: at module level scipy.sparse adds ~0.12 s to `import
        # ssbm`, which every sweep worker and CLI call pays, and a census
        # never builds this matrix
        import scipy.sparse
        entries = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
        return scipy.sparse.csr_matrix(entries, shape=(n, n + 1))

    def offdiag_product(self, stack: np.ndarray) -> np.ndarray:
        """B X for the off-diagonal part B of M, where ``stack`` holds X in all
        but its last row (its last entry, for a vector X): that spare row is
        overwritten with u^T X, and ``offdiag @ stack`` returned.  The one
        product with B, so a caller that keeps its stack allocates nothing
        but the result."""
        np.matmul(self.rank1[0], stack[:-1], out=stack[-1, ...])
        return self.offdiag @ stack

    def diagonal(self) -> np.ndarray:
        """Full matrix diagonal: sparse + rank-one contributions."""
        d = np.zeros(self.dim)
        on = self.rows == self.cols
        d[self.rows[on]] = self.weights[on]
        u, c = self.rank1
        d += c * u * u
        return d

    def offdiag_radii(self) -> np.ndarray:
        """Gershgorin radii of B, the off-diagonal part of M, summed over its
        sparse and rank-one parts apart (so at least B's own radii):
        sum_{j != i} |S_ij| + |c| |u_i| sum_{j != i} |u_j|."""
        off = self.rows != self.cols
        w = np.abs(self.weights[off])
        lam = (np.bincount(self.rows[off], weights=w, minlength=self.dim)
               + np.bincount(self.cols[off], weights=w, minlength=self.dim))
        u, c = self.rank1
        au = np.abs(u)
        return lam + abs(c) * au * (au.sum() - au)

    def to_dense(self) -> np.ndarray:
        """The dense matrix, built in place: one dim x dim array, plus one
        temporary of that size for the rank-one part."""
        D = np.zeros((self.dim, self.dim))
        D[self.rows, self.cols] = self.weights
        D[self.cols, self.rows] = self.weights
        u, c = self.rank1
        uu = np.outer(u, u)
        uu *= c
        D += uu
        return D

    def congruence(self, col, sign, dim: int) -> "MatrixOperator":
        """P^T M P for the signed assignment P that sends vertex v to index
        ``col[v]`` with sign ``sign[v]`` (+1 throughout when ``sign`` is None)
        and drops v where ``col[v] < 0``.

        Stored pairs are relabelled and left to the constructor to coalesce; an
        off-diagonal pair whose ends land on one index counts twice there, once
        per ordered pair.  The rank-one vector maps to P^T u.
        """
        col = _indices(col, "target indices")
        s = np.ones(self.dim) if sign is None else np.asarray(sign, dtype=np.float64)
        r, c = col[self.rows], col[self.cols]
        kept = (r >= 0) & (c >= 0)
        rows, cols, r, c = self.rows[kept], self.cols[kept], r[kept], c[kept]
        w = self.weights[kept] * s[rows] * s[cols]
        w[(r == c) & (rows != cols)] *= 2.0
        on = col >= 0
        u, coeff = self.rank1
        r1 = (np.bincount(col[on], weights=(s * u)[on], minlength=dim), coeff)
        return MatrixOperator(dim, r, c, w, rank1=r1)

    def restrict(self, keep: np.ndarray) -> "MatrixOperator":
        """Principal submatrix on the sorted index set ``keep``; ValueError on
        an index outside [0, dim) or a repeated one."""
        keep = _indices(keep, "kept indices")
        if keep.size and (keep.min() < 0 or keep.max() >= self.dim):
            raise ValueError(f"kept index out of range [0, {self.dim})")
        col = np.full(self.dim, -1, dtype=np.int64)
        col[keep] = np.arange(keep.size)
        if np.count_nonzero(col >= 0) != keep.size:
            raise ValueError("kept indices must be distinct")
        return self.congruence(col, None, keep.size)


def _bernoulli_hits(rng: np.random.Generator, count: int, p: float) -> np.ndarray:
    """Positions in [0, count) selected by independent Bernoulli(p) trials.

    Geometric skip sampling: instead of testing every position, jump ahead by
    Geometric(p) gaps, which takes O(count * p) expected time (at p = 1
    every gap is 1, so every position is hit).
    """
    if count <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    expected = count * p
    batch = int(expected + 10.0 * math.sqrt(expected) + 16.0)
    chunks = []
    pos = -1
    while True:
        # clipped, saturated gaps (tiny p) cannot wrap int64; np.minimum makes
        # the array the running sums overwrite, so the generator's is left as is
        steps = np.minimum(rng.geometric(p, size=batch), count + 1)
        np.cumsum(steps, out=steps)
        steps += pos
        # the positions rise, so those in range are a prefix; a gap past the
        # end ends the scan
        end = int(np.searchsorted(steps, count))
        if end < batch:
            chunks.append(steps[:end])
            break
        chunks.append(steps)
        pos = int(steps[-1])
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _pair_decode(k: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the row-major enumeration of pairs (i < j) over h items, exactly
    for h <= 2**30.  Row i starts at key i (b - i) / 2 with b = 2h - 1, so the
    row of key k is the floor of the smaller root (b - sqrt(b**2 - 8k)) / 2.
    The int64 radicand is exact, so the float root is within one of the true
    row, and one integer correction each way makes it exact."""
    b = 2 * h - 1
    i = ((b - np.sqrt(b * b - 8 * k)) / 2).astype(np.int64)
    # the row starts are halved by a shift: their products are even and >= 0
    i -= k < (i * (b - i) >> 1)
    i += k >= ((i + 1) * (b - i - 1) >> 1)
    return i, k - (i * (b - i) >> 1) + i + 1


def sample_graph(params: ModelParams) -> Graph:
    """Draw the graph of one realization, deterministic in the seed: a
    uniform balanced bisection, and each block's edges (within each
    community, and across) by geometric skip sampling.  It reads neither
    rho nor the ``"reveal"`` stream, so every rho of one seed draws this
    graph."""
    n, a, b = params.n, params.a, params.b
    half = n // 2

    perm = stream(params.seed, "partition").permutation(n)
    values = np.full(n, -1, dtype=np.int8)
    values[perm[:half]] = 1
    labels = Labels(values)
    s1, s2 = labels.communities

    pairs_within = half * (half - 1) // 2
    ei_chunks, ej_chunks = [], []
    for name, comm in (("edges-within-1", s1), ("edges-within-2", s2)):
        hits = _bernoulli_hits(stream(params.seed, name), pairs_within, a / n)
        li, lj = _pair_decode(hits, half)
        ei_chunks.append(comm[li])
        ej_chunks.append(comm[lj])
    hits = _bernoulli_hits(stream(params.seed, "edges-cross"), half * half, b / n)
    li, lj = np.divmod(hits, half)
    ei_chunks.append(s1[li])
    ej_chunks.append(s2[lj])
    ei = np.concatenate(ei_chunks)
    ej = np.concatenate(ej_chunks)
    return Graph(n, ei, ej, labels)


def sample_reveal(params: ModelParams, labels: Labels) -> RevealedLabels:
    """Draw the reveal of one realization given its ``labels``: m/2
    vertices uniformly from each of ``labels.communities``, the +1 one
    first, from the ``"reveal"`` stream of the seed, each revealed as its
    community's sign.  It reads nothing of ``params`` but m and the seed."""
    half = params.m // 2
    rng = stream(params.seed, "reveal")
    rv = np.zeros(labels.n, dtype=np.int8)
    for sign, community in zip((1, -1), labels.communities):
        rv[rng.choice(community, size=half, replace=False)] = sign
    return RevealedLabels(rv)


def sample_instance(params: ModelParams) -> tuple[Graph, RevealedLabels]:
    """Draw one (graph, revealed labels) realization, deterministic in the
    seed: :func:`sample_graph`, then :func:`sample_reveal` on its labels.
    The reveal is independent of the edges given the partition."""
    graph = sample_graph(params)
    return graph, sample_reveal(params, graph.labels)


def centered_adjacency(g: Graph, d: float) -> MatrixOperator:
    """The operator A - (d/n) 11^T: adjacency as the sparse part, a rank-one
    all-ones correction with coefficient -d/n."""
    _require_real(d, "average degree d")
    if d < 0:
        raise ValueError("average degree d must be nonnegative")
    return MatrixOperator(
        g.n, g.ei, g.ej, np.ones(g.num_edges),
        rank1=(np.ones(g.n), -d / g.n),
    )


def write_instance(path, g: Graph, rev: RevealedLabels) -> None:
    """Export to the plain-text edge-list format, for other tools: no
    ``ssbm`` command reads it back.

    Line 1: ``n m_edges``; one ``i j`` edge per line (0-based, i < j); then an
    ``L`` line with the n ground-truth labels and an ``R`` line with the n
    revealed values in {+1, 0, -1}.
    """
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.num_edges}\n")
        np.savetxt(fh, np.column_stack([g.ei, g.ej]), fmt="%d")
        fh.write("L " + " ".join(map(str, g.labels.values.tolist())) + "\n")
        fh.write("R " + " ".join(map(str, rev.values.tolist())) + "\n")

