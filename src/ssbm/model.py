"""Semi-supervised planted bisection model.

Two balanced hidden communities over n vertices; within-community pairs are
edges with probability a/n, cross pairs with probability b/n, and a balanced
subset of m = 2*floor(rho*n/2) true labels is revealed.  This module holds the
parameter/instance types, the seeded sampler, and the centered adjacency
operator A - (d/n) 11^T used by the SDP machinery.  It is the one module that
knows how a graph (a sorted edge list) and an operator are stored; the others
reach the graph through ``Graph.neighbours`` and ``centered_adjacency``.  The
one CSR matrix, ``MatrixOperator.offdiag``, imports ``scipy.sparse`` when it
is first built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from .rng import stream

if TYPE_CHECKING:
    import scipy.sparse


def _store(obj, name: str, arr: np.ndarray, *rest) -> np.ndarray:
    """Store ``arr``, a fresh array no caller holds, read-only as the field
    ``name`` of the frozen dataclass ``obj`` (as ``(arr, *rest)`` given ``rest``)."""
    arr.setflags(write=False)
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


def snr(a: float, b: float) -> float:
    """Signal-to-noise ratio (a - b)^2 / (2 (a + b)).

    Unsupervised weak recovery is feasible iff this exceeds 1 (the
    Kesten-Stigum threshold).
    """
    if not (0 <= b <= a):
        raise ValueError(f"rates must satisfy a >= b >= 0, got a={a}, b={b}")
    if a + b == 0:
        raise ValueError("snr undefined for a + b = 0")
    return (a - b) ** 2 / (2.0 * (a + b))


@dataclass(frozen=True)
class ModelParams:
    """Complete parameter set for one semi-supervised planted bisection instance.

    Attributes:
        n: vertex count, positive and even.
        a: within-community rate; edge probability is a/n.
        b: cross-community rate, 0 <= b <= a; edge probability is b/n.
        rho: fraction of labels to reveal, in [0, 1].
        seed: 64-bit unsigned seed; every random choice derives from it.
    """

    n: int
    a: float
    b: float
    rho: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n <= 0 or self.n % 2:
            raise ValueError(f"n must be a positive even integer, got {self.n}")
        if not (0 <= self.b <= self.a):
            raise ValueError(f"rates must satisfy 0 <= b <= a, got a={self.a}, b={self.b}")
        if self.a > self.n:
            raise ValueError(f"invalid edge probability a/n = {self.a / self.n} > 1")
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")

    @property
    def d(self) -> float:
        """Average degree (a + b) / 2."""
        return 0.5 * (self.a + self.b)

    @property
    def m(self) -> int:
        """Number of revealed labels, 2*floor(rho*n/2); always even, balanced."""
        # epsilon guards against e.g. 0.3 * 1500 = 449.999... in binary floats
        return 2 * int(math.floor(self.rho * self.n / 2 + 1e-9))

    @property
    def snr(self) -> float:
        return snr(self.a, self.b)


@dataclass(frozen=True)
class Labels:
    """Ground-truth community assignment: a balanced vector of +-1."""

    values: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.values)
        v = _store(self, "values", raw.astype(np.int8))
        # compared with the input, so a value that int8 wraps or truncates fails
        if v.ndim != 1 or v.size == 0 or not np.array_equal(v, raw) or not np.all(np.abs(v) == 1):
            raise ValueError("labels must be a nonempty vector with entries +-1")
        if int(v.sum(dtype=np.int64)) != 0:
            raise ValueError("labels must be balanced (equal community sizes)")

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
    so every Graph is simple by construction.
    """

    n: int
    ei: np.ndarray
    ej: np.ndarray
    labels: Labels

    def __post_init__(self):
        ei, ej = _indices(self.ei, "edge endpoints"), _indices(self.ej, "edge endpoints")
        if ei.ndim != 1 or ei.shape != ej.shape:
            raise ValueError(f"endpoint arrays must be 1-D of equal length, got shapes "
                             f"{ei.shape} and {ej.shape}")
        if ei.size and (min(ei.min(), ej.min()) < 0 or max(ei.max(), ej.max()) >= self.n):
            raise ValueError(f"edge endpoint out of range [0, {self.n})")
        lo, hi = np.minimum(ei, ej), np.maximum(ei, ej)
        if np.any(lo == hi):
            raise ValueError(f"self-loop at vertex {lo[lo == hi][0]}")
        keys = np.sort(lo * self.n + hi)  # distinct unless an edge repeats
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            k = keys[repeated[0]]
            raise ValueError(f"repeated edge ({k // self.n}, {k % self.n})")
        lo, hi = np.divmod(keys, self.n)
        _store(self, "ei", lo)
        _store(self, "ej", hi)
        if self.labels.n != self.n:
            raise ValueError("label vector length does not match vertex count")

    @property
    def num_edges(self) -> int:
        return self.ei.size

    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted neighbour lists as ``(indptr, nbr)``: the neighbours of v
        are ``nbr[indptr[v]:indptr[v + 1]]``, ascending, both arrays int64.
        One sort of the edge keys v * n + w in both orientations."""
        n = self.n
        keys = np.concatenate([self.ei * n + self.ej, self.ej * n + self.ei])
        keys.sort()  # in place: np.sort would copy
        indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
        return indptr, keys % n


@dataclass(frozen=True)
class RevealedLabels:
    """Ternary reveal vector: +-1 on the revealed set, 0 elsewhere.  The
    revealed set is derived: the sorted nonzero positions, read-only int64."""

    values: np.ndarray
    revealed_set: np.ndarray = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.values)
        v = _store(self, "values", raw.astype(np.int8))
        if v.ndim != 1:
            raise ValueError(f"reveal values must be a vector, got shape {v.shape}")
        if not np.array_equal(v, raw) or np.any((v < -1) | (v > 1)):
            raise ValueError("reveal values must lie in {+1, 0, -1}")
        _store(self, "revealed_set", np.flatnonzero(v))
        if int(v.sum(dtype=np.int64)) != 0:
            raise ValueError("reveal must be balanced across communities")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def m(self) -> int:
        return self.revealed_set.size

    def unrevealed(self) -> np.ndarray:
        """Sorted indices of the unrevealed vertices."""
        return np.flatnonzero(self.values == 0)

    def check_truthful(self, labels: Labels) -> None:
        r = self.revealed_set
        if not np.array_equal(self.values[r], labels.values[r]):
            raise ValueError("revealed labels disagree with ground truth")


@dataclass(frozen=True)
class MatrixOperator:
    """Symmetric matrix in sparse + rank-one form.

    Dense entry: ``M[i, j] = S[i, j] + c * u[i] * u[j]`` where S is symmetric
    and stored once per unordered pair (rows <= cols), sorted by (rows, cols),
    in read-only arrays of the operator's own, and ``rank1 = (u, c)``, which
    is (0, 0.0) when none is given.
    Duplicate entries in the input are summed in input order; exact zeros
    are dropped.  Every product with M goes through ``offdiag``, built once
    and cached: M S = offdiag @ [S; u^T S] + diag(M) S, in O((nnz + dim) k)
    for k columns; ``offdiag_radii`` gives the Gershgorin radii of its
    off-diagonal part.
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
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        r = _indices(self.rows, "sparse indices")
        c = _indices(self.cols, "sparse indices")
        w = np.asarray(self.weights, dtype=np.float64)
        if not (r.shape == c.shape == w.shape):
            raise ValueError("rows/cols/weights must have equal length")
        lo, hi = np.minimum(r, c), np.maximum(r, c)
        if r.size and (lo.min() < 0 or hi.max() >= self.dim):
            raise ValueError("sparse entry out of range")
        # coalesce duplicates, each pair's weights summed in input order
        keys = lo * self.dim + hi
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.flatnonzero(np.diff(keys, prepend=-1))  # group starts; keys >= 0
        w = np.add.reduceat(w[order], first)
        nz = w != 0.0
        lo, hi = np.divmod(keys[first[nz]], self.dim)
        _store(self, "rows", lo)
        _store(self, "cols", hi)
        _store(self, "weights", w[nz])
        u, coeff = self.rank1 or (np.zeros(self.dim), 0)
        u = _store(self, "rank1", np.array(u, dtype=np.float64), float(coeff))
        if u.size != self.dim:
            raise ValueError("rank-one vector length does not match dim")

    @classmethod
    def from_dense(cls, M) -> "MatrixOperator":
        """Operator view of a dense symmetric matrix (upper triangle stored)."""
        M = np.asarray(M, dtype=np.float64)
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
    Geometric(p) gaps, which takes O(count * p) expected time.
    """
    if count <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(count, dtype=np.int64)
    expected = count * p
    batch = int(expected + 10.0 * math.sqrt(expected) + 16.0)
    chunks = []
    pos = -1
    while True:
        # a gap past the end ends the scan; clipped, saturated gaps (tiny p) cannot wrap int64
        steps = pos + np.cumsum(np.minimum(rng.geometric(p, size=batch), count + 1))
        if steps[-1] >= count:
            chunks.append(steps[steps < count])
            break
        chunks.append(steps)
        pos = int(steps[-1])
    return np.concatenate(chunks)


def _pair_decode(k: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the row-major enumeration of pairs (i < j) over h items: row i
    starts at key i (2h - i - 1) / 2, found by an exact integer search."""
    r = np.arange(h, dtype=np.int64)
    starts = r * (2 * h - r - 1) // 2
    i = np.searchsorted(starts, k, side="right") - 1
    j = k - starts[i] + i + 1
    return i, j


def sample_instance(params: ModelParams) -> tuple[Graph, RevealedLabels]:
    """Draw one (graph, revealed labels) realization, deterministic in the seed.

    The partition is a uniform balanced bisection; edges are sampled per block
    (within each community, and across) by geometric skip sampling; the reveal
    set picks m/2 vertices uniformly from each community, independent of the
    edges given the partition.
    """
    n, a, b = params.n, params.a, params.b
    half = n // 2

    perm = stream(params.seed, "partition").permutation(n)
    s1 = np.sort(perm[:half])
    s2 = np.sort(perm[half:])
    values = np.full(n, -1, dtype=np.int8)
    values[s1] = 1
    labels = Labels(values)

    pairs_within = half * (half - 1) // 2
    ei_chunks, ej_chunks = [], []
    for name, comm in (("edges-within-1", s1), ("edges-within-2", s2)):
        hits = _bernoulli_hits(stream(params.seed, name), pairs_within, a / n)
        li, lj = _pair_decode(hits, half)
        ei_chunks.append(comm[li])
        ej_chunks.append(comm[lj])
    hits = _bernoulli_hits(stream(params.seed, "edges-cross"), half * half, b / n)
    ei_chunks.append(s1[hits // half])
    ej_chunks.append(s2[hits % half])
    ei = np.concatenate(ei_chunks)
    ej = np.concatenate(ej_chunks)

    graph = Graph(n, ei, ej, labels)

    m = params.m
    rng = stream(params.seed, "reveal")
    revealed = np.concatenate([
        rng.choice(s1, size=m // 2, replace=False),
        rng.choice(s2, size=m // 2, replace=False),
    ])
    rv = np.zeros(n, dtype=np.int8)
    rv[revealed] = labels.values[revealed]
    return graph, RevealedLabels(rv)


def centered_adjacency(g: Graph, d: float) -> MatrixOperator:
    """The operator A - (d/n) 11^T: adjacency as the sparse part, a rank-one
    all-ones correction with coefficient -d/n."""
    if d < 0:
        raise ValueError("average degree d must be nonnegative")
    return MatrixOperator(
        g.n, g.ei, g.ej, np.ones(g.num_edges),
        rank1=(np.ones(g.n), -d / g.n),
    )


def write_instance(path, g: Graph, rev: RevealedLabels) -> None:
    """Serialize to the plain-text exchange format.

    Line 1: ``n m_edges``; one ``i j`` edge per line (0-based, i < j); then an
    ``L`` line with the n ground-truth labels and an ``R`` line with the n
    revealed values in {+1, 0, -1}.
    """
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.num_edges}\n")
        np.savetxt(fh, np.column_stack([g.ei, g.ej]), fmt="%d")
        fh.write("L " + " ".join(map(str, g.labels.values.tolist())) + "\n")
        fh.write("R " + " ".join(map(str, rev.values.tolist())) + "\n")


def _int_rows(rows: list[list[str]], first: int, message: str) -> np.ndarray:
    """The token rows (equal lengths, the first on line ``first``) as one
    int64 array; a token that int() rejects raises ``line N: message``."""
    try:
        return np.array(rows, dtype=np.int64)
    except ValueError:
        for no, row in enumerate(rows, first):
            try:
                list(map(int, row))
            except ValueError:
                raise ValueError(f"line {no}: {message}") from None
        raise


def read_instance(path) -> tuple[Graph, RevealedLabels]:
    """Parse the plain-text exchange format written by :func:`write_instance`.

    Rejects edge lines that are not ``i j`` with 0 <= i < j < n, naming the
    first, repeated edges (through the :class:`Graph` constructor), label or
    reveal lines of the wrong length or outside {+1, 0, -1}, untruthful
    reveals, and any non-empty line after the ``R`` line.  A token that is
    not an integer is reported with its line.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("bad header, expected 'n m_edges'")
    n, m_edges = _int_rows([header], 1, "bad header, expected 'n m_edges'")[0].tolist()
    if len(lines) < m_edges + 3:
        raise ValueError("header does not match the file length")
    rows = [ln.split() for ln in lines[1:1 + m_edges]]
    ragged = [no for no, row in enumerate(rows, 2) if len(row) != 2]
    if ragged:
        raise ValueError(f"line {ragged[0]}: bad edge line, expected 'i j'")
    edges = _int_rows(rows, 2, "bad edge line, expected 'i j'").reshape(m_edges, 2)
    ei, ej = edges[:, 0], edges[:, 1]
    bad = np.flatnonzero((ei < 0) | (ei >= ej) | (ej >= n))
    if bad.size:
        raise ValueError(f"line {bad[0] + 2}: bad edge line, expected 0 <= i < j < n")
    label_line = lines[1 + m_edges].split()
    reveal_line = lines[2 + m_edges].split()
    if label_line[:1] != ["L"] or reveal_line[:1] != ["R"]:
        raise ValueError("missing L/R companion lines")
    if any(ln.strip() for ln in lines[3 + m_edges:]):
        raise ValueError("unexpected content after the R line")
    lv = _int_rows([label_line[1:]], 2 + m_edges, "bad label line, expected integers")[0]
    rv = _int_rows([reveal_line[1:]], 3 + m_edges, "bad reveal line, expected integers")[0]
    if lv.size != n or rv.size != n:
        raise ValueError("label/reveal line length does not match n")
    g = Graph(n, ei, ej, Labels(lv))
    rev = RevealedLabels(rv)
    rev.check_truthful(g.labels)
    return g, rev
