"""Census estimator: majority vote of revealed labels at a fixed graph distance.

An unrevealed vertex v is labeled by the sign of the sum of revealed labels
over the vertices at shortest-path distance exactly t from v (default t = 1),
with a fair coin on ties.  The tallies cover the rows asked for (the
unrevealed vertices), with no per-vertex search.  At t = 1 they are two
bincounts over the edge list, one per orientation.  Above it they come from
one breadth-first search over the pairs (row, vertex), a level at a time:
the first level is the rows' neighbour lists as they stand, each later level
one sort of packed int64 keys, and the last level reaches the voter
(revealed) vertices only.  Alongside the estimator live its closed-form
accuracy predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (_LOW, Graph, Labels, RevealedLabels, _check_rho, _check_seed, _check_size,
                    _indices, _pack, _require_int, _store, snr)
from .rng import coins


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one estimator run.

    estimates is the full length-n +-1 vector with revealed labels copied
    through; overlap is |<x, x_hat>| / (n - m) restricted to unrevealed
    vertices; ties_broken counts fair-coin invocations.
    """

    estimates: np.ndarray
    ties_broken: int
    overlap: float

    def __post_init__(self):
        _store(self, "estimates", np.array(self.estimates, dtype=np.int8))


def overlap(estimates: np.ndarray, labels: Labels, rev: RevealedLabels) -> float:
    """|<x, x_hat>| / (n - m) over the unrevealed vertices (0 if there are none)."""
    unrev = rev.unrevealed()
    truth = labels.values[unrev].astype(np.int64)
    return abs(int(truth @ estimates[unrev].astype(np.int64))) / max(unrev.size, 1)


# census_estimate's refusal when no vertex is unrevealed (a sweep's rho = 1
# cell raises it before sampling)
_ALL_REVEALED = "all vertices are revealed; nothing to estimate"


def _check_depth(t) -> None:
    """Raise ValueError unless the census depth ``t`` is an integer >= 1
    (numpy's included; bool is not one)."""
    _require_int(t, "depth t")
    if t < 1:
        raise ValueError("depth t must be >= 1")


def margins_at_depth(g: Graph, votes: np.ndarray, t: int, rows: np.ndarray) -> np.ndarray:
    """Signed vote sums at distance exactly t, for the vertices ``rows``.

    ``votes`` is any length-n vector in {+1, 0, -1}; zeros do not vote, and
    ``np.abs(votes)`` gives the voter counts instead.  ``rows`` are the
    sorted vertices whose tallies are wanted, returned in that order;
    ValueError on a row that is not an integer in [0, n) or on votes of
    another length.  At t = 1 the tallies are A @ votes, taken on the edge
    list as two bincounts (one per orientation) with no adjacency matrix
    built.  Above it a breadth-first search runs over the pairs (i, x), x at
    distance s from ``rows[i]``, one shell_s of pairs per level, from
    shell_0 = {(i, rows[i])}.  Shell_1 is the neighbour lists of the rows as
    they stand: a simple graph's lists are sorted, hold no repeats and never
    the vertex itself, so that level needs no sort.  A neighbour of a vertex
    at distance s lies at distance s - 1, s or s + 1, so shell_{s+1} is the
    neighbours of shell_s outside shell_{s-1} and shell_s (see
    :func:`_next_shell`).  The last level takes only the voter neighbours
    and excludes only the voter pairs; the tally of row i is the sum of
    ``votes`` over its pairs in shell_t.  ValueError unless t is an integer
    >= 1.
    """
    _check_depth(t)
    rows = _indices(rows, "rows")
    # a pair (i, x) is the key _pack(i, x << 1), so keys sort by (i, x)
    if t > 1:
        _check_size(max(g.n, rows.size), "the vertex and row counts")
    votes = np.asarray(votes)
    if votes.shape != (g.n,):
        raise ValueError(f"votes must be a vector of length {g.n}, got shape {votes.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= g.n):
        raise ValueError(f"row out of range [0, {g.n})")
    # float64 once, the weights' type for every bincount below
    votes = votes.astype(np.float64)
    if t == 1:
        # each edge (i, j) once: j votes at i and i at j; the float sums are
        # exact, |tally| <= n - 1 < 2**53
        tally = np.bincount(g.ei, weights=votes[g.ej], minlength=g.n)
        tally += np.bincount(g.ej, weights=votes[g.ei], minlength=g.n)
        return tally[rows].astype(np.int64)
    indptr, nbr = g.neighbours()
    voter = votes != 0
    ids = _pack(np.arange(rows.size), 0)  # the row field of row i's pair keys
    deg, pos = _segments(indptr, rows)
    prev, shell = ids | (rows << 1), np.repeat(ids, deg) | (nbr[pos] << 1)
    if t > 2:
        tagged = (nbr << 1) | 1
        for _ in range(t - 2):
            prev, shell = shell, _next_shell(shell, np.concatenate([prev, shell]), indptr, tagged)
    # the last level on the voter neighbour lists, against the voter pairs
    on = voter[nbr]
    vptr = np.concatenate([[0], np.cumsum(on)])[indptr]
    excl = np.concatenate([prev, shell])
    excl = np.compress(voter[(excl & _LOW) >> 1], excl)
    last = _next_shell(shell, excl, vptr, (np.compress(on, nbr) << 1) | 1)
    # float sums of +-1 and 0, exact as at t = 1
    tally = np.bincount(last >> 32, weights=votes[(last & _LOW) >> 1], minlength=rows.size)
    return tally.astype(np.int64)


def _segments(indptr: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The segment lengths ``deg[k] = indptr[x[k] + 1] - indptr[x[k]]`` and
    the positions of the segments ``indptr[x[k]]:indptr[x[k] + 1]``, laid end
    to end in the order of ``x``."""
    start, deg = indptr[x], indptr[x + 1] - indptr[x]
    pos = np.arange(deg.sum()) + np.repeat(start - np.cumsum(deg) + deg, deg)
    return deg, pos


def _next_shell(shell: np.ndarray, excl: np.ndarray, indptr: np.ndarray,
                tagged: np.ndarray) -> np.ndarray:
    """The sorted keys of the pairs (i, y) outside ``excl``, for (i, x) in
    ``shell`` and y a neighbour of x, whose key fields (y << 1) | 1 are
    ``tagged[indptr[x]:indptr[x + 1]]``.

    Each candidate is tagged 1 in bit 0 and sorted with the tag-0 keys of
    ``excl``, which sort just before it; a candidate is kept when the key
    before it is of another pair.  That one sort both drops repeats and
    excludes ``excl``."""
    deg, pos = _segments(indptr, (shell & _LOW) >> 1)
    keys = np.concatenate([np.repeat(shell & ~_LOW, deg) | tagged[pos], excl])
    keys.sort()  # in place: np.sort would copy
    keep = (keys & 1).astype(bool)
    keep[1:] &= (keys[:-1] | 1) != keys[1:]
    # np.compress: about twice as fast as a boolean index here
    return np.compress(keep, keys) ^ 1


def census_estimate(g: Graph, rev: RevealedLabels, t: int = 1, seed: int = 0) -> EstimateReport:
    """Estimate every unrevealed label by its depth-t census.

    Ties (zero margin) get the fair coin ``coin(seed, "census-tie", v)`` keyed
    by the vertex index, so no vertex's coin perturbs another's; :func:`coins`
    draws them all in one array operation.  Revealed labels are copied through;
    overlap is computed on the unrevealed vertices only.  ValueError when the
    reveal's length differs from the graph's, or on a depth that
    :func:`margins_at_depth` refuses.
    """
    if rev.n != g.n:
        raise ValueError(f"reveal length {rev.n} does not match the graph's {g.n} vertices")
    unrev = rev.unrevealed()
    if unrev.size == 0:
        raise ValueError(_ALL_REVEALED)
    margins = margins_at_depth(g, rev.values, t, unrev)
    return _vote_report(margins, unrev, rev, g.labels, seed, "census-tie")


def _vote_report(scores: np.ndarray, verts: np.ndarray, rev: RevealedLabels,
                 labels: Labels, seed: int, purpose: str) -> EstimateReport:
    """The vote rule both estimators share: the sorted unrevealed vertex
    ``verts[k]`` gets the sign of ``scores[k]``, or the fair coin
    ``coin(seed, purpose, verts[k])`` when that is zero; revealed labels are
    copied through, and the overlap is taken on the unrevealed vertices.
    ValueError on a seed outside [0, 2**64), which the coins would fold
    onto another."""
    _check_seed(seed)
    signs = np.sign(scores).astype(np.int8)
    tied = signs == 0
    signs[tied] = coins(seed, purpose, verts[tied])
    estimates = rev.values.copy()
    estimates[verts] = signs
    return EstimateReport(estimates=estimates, ties_broken=int(np.count_nonzero(tied)),
                          overlap=overlap(estimates, labels, rev))


def predict_accuracy_erf(a: float, b: float, rho: float, t: int = 1) -> float:
    """Asymptotic per-vertex accuracy 1/2 + 1/2 erf(sqrt(rho SNR^t / 2))."""
    _check_rho(rho)
    _check_depth(t)
    if rho == 0.0:
        return 0.5
    return 0.5 + 0.5 * math.erf(math.sqrt(rho * snr(a, b) ** t / 2.0))


def overlap_lower_curve(a: float, b: float, rho: float) -> float:
    """Asymptotic expected-overlap lower bound (2/3) sqrt(rho SNR) at t = 1."""
    _check_rho(rho)
    if rho == 0.0:
        return 0.0
    return (2.0 / 3.0) * math.sqrt(rho * snr(a, b))
