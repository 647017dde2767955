"""Census estimator: majority vote of revealed labels at a fixed graph distance.

An unrevealed vertex v is labeled by the sign of the sum of revealed labels
over the vertices at shortest-path distance exactly t from v (default t = 1),
with a fair coin on ties.  The tallies cover the rows asked for (the
unrevealed vertices), with no per-vertex search.  At t = 1 they are two
bincounts over the edge list, one per orientation.  Above it they come from
one breadth-first search over the pairs (row, vertex), a level at a time,
on the edge list: the first level is the edges out of a row, with no sort;
each middle level of t >= 3 is one sort of packed int64 keys over the
neighbour lists; and the last level joins the edges into a voter (a
revealed vertex).  Both lists are built here from the edge list.  The rows
run in blocks that keep every level within a fixed key budget.  Alongside
the estimator live its closed-form accuracy predictions.
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
    _require_int(t, "depth t", 1)


def margins_at_depth(g: Graph, votes: np.ndarray, t: int, rows: np.ndarray) -> np.ndarray:
    """Signed vote sums at distance exactly t, for the vertices ``rows``.

    ``votes`` is any length-n vector in {+1, 0, -1}; zeros do not vote, and
    ``np.abs(votes)`` gives the voter counts instead.  ``rows`` are the
    vertices whose tallies are wanted, in any order and with repeats,
    returned in that order; ValueError on a row that is not an integer in
    [0, n) or on votes of another length.  At t = 1 the tallies are
    A @ votes, taken on the edge list as two bincounts (one per
    orientation) with no adjacency matrix built.  Above it a breadth-first
    search runs over the pairs (v, x), x at distance s from the row v, one
    shell_s of pairs per level, from shell_0 = {(v, v)}.  Shell_1 is the
    edge list in both orientations, kept where the first end is a row, with
    no sort.  A neighbour of a vertex at distance s lies at distance s - 1,
    s or s + 1, so shell_{s+1} is the vertices next to shell_s outside
    shell_{s-1} and shell_s (see :func:`_next_shell`); the middle levels of
    t >= 3 read the neighbour lists, every edge grouped by the vertex it
    leaves (see :func:`_lists`).  The last level joins shell_{t-1} with the
    edges into a voter only, and excludes only the voter pairs; the tally
    of row v is the sum of ``votes`` over its pairs in shell_t.  The rows
    run in blocks, ranges of vertices whose levels stay within
    ``_KEY_BUDGET`` keys (see :func:`_block_bounds`), and a block's tally
    is one bincount over its range.  ValueError unless t is an integer >= 1.
    """
    _check_depth(t)
    rows = _indices(rows, "rows")
    # a pair (v, x) is the key _pack(v, x << 1), so keys sort by (v, x)
    if t > 1:
        _check_size(g.n, "the vertex count")
    votes = np.asarray(votes)
    if votes.shape != (g.n,):
        raise ValueError(f"votes must be a vector of length {g.n}, got shape {votes.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= g.n):
        raise ValueError(f"row out of range [0, {g.n})")
    # float64 once, the weights' type for every bincount below
    votes = votes.astype(np.float64)
    if t == 1:
        return _adjacency_product(g, votes)[rows].astype(np.int64)
    isrow = np.zeros(g.n, dtype=bool)
    isrow[rows] = True
    # the pair key _pack(v, x << 1) of every edge (v, x), built in place, one
    # array per orientation: (ei, ej) and (ej, ei)
    fwd, bwd = g.ei << 32, g.ej << 32
    fwd |= g.ej << 1
    bwd |= g.ei << 1
    # shell_1 of every row, with no sort: the edges out of a row
    firsts = np.concatenate([np.compress(isrow[g.ei], fwd), np.compress(isrow[g.ej], bwd)])
    # the edges into a voter, and at t >= 3 all edges, by the vertex left
    voter = votes != 0
    voters = _lists(np.concatenate([np.compress(voter[g.ej], fwd),
                                    np.compress(voter[g.ei], bwd)]), g.n)
    nbrs = _lists(np.concatenate([fwd, bwd]), g.n) if t > 2 else None
    del fwd, bwd
    # blocks of vertices, each a range whose rows keep every level within the
    # key budget; the tallies are taken at every vertex and read at rows.
    # Block k's shell_1 is firsts[cuts[k]:cuts[k + 1]], one run of it sorted
    # (one block takes it all, unsorted)
    bounds = _block_bounds(g, t, isrow, firsts.size, nbrs, voters)
    cuts = [0, firsts.size]
    if len(bounds) > 2:
        firsts.sort()
        cuts[1:1] = np.searchsorted(firsts, np.array(bounds[1:-1]) << 32).tolist()
    tally = np.concatenate([
        _block_tally(bounds[k], bounds[k + 1], isrow, firsts[cuts[k]:cuts[k + 1]], t, nbrs,
                     voters, voter, votes) for k in range(len(bounds) - 1)])
    return tally[rows].astype(np.int64)


# the most keys that one level of the t >= 2 census holds at once (32 MB)
_KEY_BUDGET = 1 << 22


def _adjacency_product(g: Graph, x: np.ndarray) -> np.ndarray:
    """A @ x for the float vector x, taken on the edge list as two bincounts
    (one per orientation: j adds to i and i to j) with no matrix built; for
    integer x of magnitude below 2**53 / n the sums are exact."""
    y = np.bincount(g.ei, weights=x[g.ej], minlength=g.n)
    y += np.bincount(g.ej, weights=x[g.ei], minlength=g.n)
    return y


def _block_bounds(g: Graph, t: int, isrow: np.ndarray, first: int, nbrs, voters) -> list[int]:
    """The bounds of the depth-t census's blocks: block k is the vertices
    ``bounds[k]:bounds[k + 1]`` and the rows among them (``isrow``), whose
    shell_1 holds ``first`` pairs in all; ``nbrs`` (t >= 3) and ``voters``
    are the lists that :func:`_block_tally` reads.

    A level holds a shell of pairs, or the candidates for the next one, and
    the two shells before it.  So all rows together hold at most
    rows + first (1 + dmax + ... + dmax**(t - 2) (1 + vmax)) keys, for dmax
    the largest degree and vmax the most voters next to one vertex; when
    that fits ``_KEY_BUDGET``, all vertices are one block, with no pass over
    the edges (the per-row bound below costs t products over them, about a
    fifth of the census at n = 3000, t = 2).  Otherwise :func:`_blocks` cuts
    them on a bound per row: w_0 + ... + w_t, for w_s the walks of length s
    from the row (a shortest path is one), and at most 2 |E| + n."""
    dmax = float(nbrs[1].max(initial=0)) if nbrs else 0.0
    level = float(first)
    total = np.count_nonzero(isrow) + level
    for _ in range(t - 2):
        level *= dmax
        total += level
    if total + level * float(voters[1].max(initial=0)) <= _KEY_BUDGET:
        return [0, g.n]
    walks = _adjacency_product(g, np.ones(g.n))
    cost = 1.0 + walks
    for _ in range(t - 1):
        walks = _adjacency_product(g, walks)
        cost += walks
    np.minimum(cost, 2 * g.num_edges + g.n, out=cost)
    cost *= isrow  # a vertex that is not a row holds no keys
    return _blocks(cost, _KEY_BUDGET)


def _blocks(cost: np.ndarray, budget: float) -> list[int]:
    """The bounds 0 = b_0 < ... < b_k = cost.size of runs of items, taken in
    order, each as long as its summed ``cost`` stays within ``budget``; an
    item that alone exceeds it is a run of its own."""
    ends = np.cumsum(cost)
    bounds = [0]
    while bounds[-1] < cost.size:
        start = bounds[-1]
        base = ends[start - 1] if start else 0.0
        bounds.append(max(int(np.searchsorted(ends, base + budget, side="right")), start + 1))
    return bounds


def _block_tally(lo: int, hi: int, isrow: np.ndarray, shell: np.ndarray, t: int, nbrs,
                 voters, voter: np.ndarray, votes: np.ndarray) -> np.ndarray:
    """The float depth-t tallies of the vertices ``lo:hi``, zero but at the
    rows among them (``isrow``), from the keys of their shell_1 ``shell``.
    The middle levels read the neighbour lists ``nbrs``, the last level the
    voter lists ``voters``, both built by :func:`_lists`, against the pairs
    whose far end is in the mask ``voter``."""
    own = np.flatnonzero(isrow[lo:hi])
    own += lo
    prev = _pack(own, own << 1)
    for _ in range(t - 2):
        prev, shell = shell, _next_shell(shell, (prev, shell), *nbrs)
    # the last level on the voter edges, against the voter pairs
    last = _next_shell(shell, [np.compress(voter[_far_end(x)], x) for x in (prev, shell)],
                       *voters)
    far = _far_end(last)
    last >>= 32
    last -= lo
    # float sums of +-1 and 0, exact as at t = 1
    return np.bincount(last, weights=votes[far], minlength=hi - lo)


def _far_end(keys: np.ndarray) -> np.ndarray:
    """The vertex x of each pair key ``_pack(v, (x << 1) | tag)``."""
    return (keys & _LOW) >> 1


def _lists(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lists ``(start, count, tagged)`` of the pair keys ``_pack(v, x << 1)``
    of vertices below ``n``, which it sorts and tags in place: the far ends
    of v's pairs, as key fields (x << 1) | 1, are
    ``tagged[start[v]:start[v] + count[v]]``, ascending."""
    keys.sort()  # in place: np.sort would copy
    count = np.bincount(keys >> 32, minlength=n)
    keys &= _LOW
    keys |= 1
    return np.cumsum(count) - count, count, keys


def _next_shell(shell: np.ndarray, excl, start: np.ndarray, count: np.ndarray,
                tagged: np.ndarray) -> np.ndarray:
    """The sorted keys of the pairs (v, y) outside the key arrays ``excl``,
    for (v, x) in ``shell`` and y a neighbour of x, whose key fields
    (y << 1) | 1 are ``tagged[start[x]:start[x] + count[x]]``.

    Each candidate is tagged 1 in bit 0 and sorted with the tag-0 keys of
    ``excl``, which sort just before it; a candidate is kept when the key
    before it is of another pair.  That one sort both drops repeats and
    excludes ``excl``."""
    # the segments' lengths and positions, laid end to end: each segment's
    # start less its place in the output, then one ramp
    x = _far_end(shell)
    deg, pos = count[x], start[x]
    del x
    pos += deg
    pos -= np.cumsum(deg)
    pos = np.repeat(pos, deg)
    pos += np.arange(pos.size)
    cand = np.repeat(shell & ~_LOW, deg)
    cand |= tagged[pos]
    del pos
    keys = np.concatenate([cand, *excl])
    del cand
    keys.sort()  # in place: np.sort would copy
    # the tag bit, cast to bool with no int64 array between; the key before
    # a candidate k is of another pair when it is below k - 1
    keep = np.empty(keys.size, dtype=bool)
    np.bitwise_and(keys, 1, out=keep, casting="unsafe")
    keep[1:] &= np.diff(keys) > 1
    # np.compress: about twice as fast as a boolean index here
    keys = np.compress(keep, keys)
    keys ^= 1
    return keys


def census_estimate(g: Graph, rev: RevealedLabels, t: int = 1, seed: int = 0) -> EstimateReport:
    """Estimate every unrevealed label by its depth-t census.

    Ties (zero margin) get the fair coin ``coin(seed, "census-tie", v)`` keyed
    by the vertex index, so no vertex's coin perturbs another's; :func:`coins`
    draws them all in one array operation.  Revealed labels are copied through;
    overlap is computed on the unrevealed vertices only.  ValueError when the
    reveal's length differs from the graph's, on a depth that
    :func:`margins_at_depth` refuses, or on a seed that :func:`_vote_report`
    refuses.
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
