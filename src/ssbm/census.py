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
revealed vertex).  Both lists are built here from the edge list.  A level
that would pass a fixed key budget is cut in two by rows, on the sizes it
would build.  Alongside the estimator live its closed-form accuracy
predictions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (_LOW, Graph, Labels, RevealedLabels, _check_rho, _check_seed, _check_size,
                    _indices, _pack, _require_int, _store, _ternary, snr)
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
    """|<x, x_hat>| / (n - m) over the unrevealed vertices (0 if there are
    none), for ``estimates`` of +-1 there: with u = n - m of them and
    ``agree`` matching their labels, <x, x_hat> = 2 agree - u."""
    unrev = rev.unrevealed_set
    agree = np.count_nonzero(estimates[unrev] == labels.values[unrev])
    return abs(2 * agree - unrev.size) / max(unrev.size, 1)


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
    [0, n), on votes of another length or on a vote outside {+1, 0, -1}
    (``model``'s rule for a reveal).  At t = 1 the tallies are A @ votes,
    taken on the edge list as two bincounts (one per orientation) with no
    adjacency matrix built.  Above it a breadth-first search runs over the
    pairs (v, x), x at distance s from the row v, one shell_s of pairs per
    level, from shell_0 = {(v, v)}.  Shell_1 is the edge list in both
    orientations, kept where the first end is a row, with no sort.  A
    neighbour of a vertex at distance s lies at distance s - 1, s or s + 1,
    so shell_{s+1} is the vertices next to shell_s outside shell_{s-1} and
    shell_s (see :func:`_next_shell`); the middle levels of t >= 3 read the
    neighbour lists, every edge grouped by the vertex it leaves (see
    :func:`_lists`).  The last level joins shell_{t-1} with the edges into
    a voter only, and excludes only the voter pairs; the tally of row v is
    the sum of ``votes`` over its pairs in shell_t.  A depth-first work
    list holds blocks (shell_{s-1}, shell_s) of rows.  A level whose sort
    would pass ``_KEY_BUDGET`` keys is refused before it is built, unless
    its shell is one row's, and its block is cut in two by rows; a block
    with an empty shell ends there.  The last level adds its bincount into
    one tally.  ValueError unless t is an integer >= 1.
    """
    _check_depth(t)
    rows = _indices(rows, "rows")
    if t > 1:
        _check_size(g.n, "the vertex count")
    votes = np.asarray(votes)
    if votes.shape != (g.n,):
        raise ValueError(f"votes must be a vector of length {g.n}, got shape {votes.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= g.n):
        raise ValueError(f"row out of range [0, {g.n})")
    # float64 once, the weights' type for every bincount below
    return _tally(g, _ternary(votes, "votes").astype(np.float64), t, rows).astype(np.int64)


def _tally(g: Graph, votes: np.ndarray, t: int, rows: np.ndarray) -> np.ndarray:
    """:func:`margins_at_depth`'s tallies, as float64, with nothing checked:
    ``votes`` are float64 in {+1, 0, -1} of length n, ``rows`` are integers
    in [0, n), t is an integer >= 1 and, above 1, n is at most 2**31."""
    if t == 1:
        # A @ votes, one bincount per orientation: j adds to i and i to j
        tally = np.bincount(g.ei, weights=votes[g.ej], minlength=g.n)
        tally += np.bincount(g.ej, weights=votes[g.ei], minlength=g.n)
        return tally[rows]
    isrow = np.zeros(g.n, dtype=bool)
    isrow[rows] = True
    # a pair (v, x) is the key _pack(v, x << 1), so keys sort by (v, x): the
    # key of every edge (v, x), built in place, one array per orientation:
    # (ei, ej) and (ej, ei)
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
    own = np.flatnonzero(isrow)
    tally = np.zeros(g.n)
    work = [(_pack(own, own << 1), firsts, 1)]
    while work:
        prev, shell, s = work.pop()
        if not shell.size:
            continue
        last, excl = s == t - 1, (prev, shell)
        if last:  # the last level on the voter edges, against the voter pairs
            excl = [np.compress(voter[_far_end(x)], x) for x in excl]
        nxt = _next_shell(shell, excl, *(voters if last else nbrs), _KEY_BUDGET)
        if nxt is None:
            # refused: sorted in place (only shell_1 comes unsorted) and cut
            # in two at the row of the middle key, or the row after the first
            prev.sort()
            shell.sort()
            cut = max(shell[shell.size // 2] >> 32, (shell[0] >> 32) + 1) << 32
            i, j = np.searchsorted(prev, cut), np.searchsorted(shell, cut)
            work += [(prev[i:], shell[j:], s), (prev[:i], shell[:j], s)]
        elif not last:
            work.append((shell, nxt, s + 1))
        else:
            # float sums of +-1 and 0, exact below 2**53
            part = np.bincount(nxt >> 32, weights=votes[_far_end(nxt)])
            tally[:part.size] += part
    return tally[rows]


# the most keys (2 MB) that one level of the t >= 2 census sorts, unless its
# shell is one row's; at n = 10**5, t = 4 more keys raise the peak, from
# 68 MB here to 79 MB at 2**19 and 220 MB at 2**22
_KEY_BUDGET = 1 << 18


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
                tagged: np.ndarray, budget: int) -> np.ndarray | None:
    """The sorted keys of the pairs (v, y) outside the key arrays ``excl``,
    for (v, x) in ``shell`` and y a neighbour of x, whose key fields
    (y << 1) | 1 are ``tagged[start[x]:start[x] + count[x]]``; None, with
    nothing built, when the candidates and ``excl`` hold more than
    ``budget`` keys and ``shell`` is more than one row's.

    Each candidate is tagged 1 in bit 0 and sorted with the tag-0 keys of
    ``excl``, which sort just before it; a candidate is kept when the key
    before it is of another pair.  That one sort both drops repeats and
    excludes ``excl``."""
    x = _far_end(shell)
    deg = count[x]
    if deg.sum() + sum(e.size for e in excl) > budget and np.ptp(shell >> 32):
        return None
    # the segments' lengths and positions, laid end to end: each segment's
    # start less its place in the output, then one ramp
    pos = start[x]
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
    """Estimate every unrevealed label, ``rev.unrevealed_set``, by its
    depth-t census.

    The tallies are :func:`margins_at_depth`'s, taken without its checks of
    the votes and rows: a ``RevealedLabels`` already holds them ternary, of
    length n and in range, so the reveal is not re-checked.  Ties (zero
    margin) get the fair coin ``coin(seed, "census-tie", v)`` keyed by the
    vertex index, so no vertex's coin perturbs another's; :func:`_vote_report`
    reads them from one array per (seed, purpose, n).  Revealed labels are
    copied through; overlap is computed on the unrevealed vertices only.
    ValueError when the reveal's length differs from the graph's, when every
    vertex is revealed (m = n), on a depth that :func:`margins_at_depth`
    refuses, or on a seed that :func:`_vote_report` refuses.
    """
    if rev.n != g.n:
        raise ValueError(f"reveal length {rev.n} does not match the graph's {g.n} vertices")
    if rev.m == rev.n:
        raise ValueError(_ALL_REVEALED)
    _check_depth(t)
    if t > 1:
        _check_size(g.n, "the vertex count")
    margins = _tally(g, rev.values.astype(np.float64), t, rev.unrevealed_set)
    return _vote_report(margins, rev, g.labels, seed, "census-tie")


@functools.lru_cache(maxsize=2)
def _coin_table(seed: int, purpose: str, n: int) -> np.ndarray:
    """``coins(seed, purpose, v)`` at index v, for every vertex v < n, read-only.
    Two are kept: each rho cell of a census group reads its group's one seed,
    and a detection cell alternates its planted and null draws' seeds."""
    table = coins(seed, purpose, np.arange(n))
    table.flags.writeable = False
    return table


def _vote_report(scores: np.ndarray, rev: RevealedLabels, labels: Labels, seed: int,
                 purpose: str) -> EstimateReport:
    """The vote rule both estimators share: score k belongs to the unrevealed
    vertex v = ``rev.unrevealed_set[k]``, which gets the sign of
    ``scores[k]``, or the fair coin ``coin(seed, purpose, v)`` when that is
    zero; revealed labels are copied through, and the overlap is taken on
    the unrevealed vertices.  The coins are computed once per (seed,
    purpose, n), for every vertex, and read by vertex, only when a score
    ties.  ValueError on a seed outside [0, 2**64), which the coins would
    fold onto another."""
    _check_seed(seed)
    signs = np.sign(scores).astype(np.int8)
    tied = signs == 0
    ties = int(np.count_nonzero(tied))
    if ties:
        signs[tied] = _coin_table(seed, purpose, rev.n)[rev.unrevealed_set[tied]]
    estimates = rev.values.copy()
    estimates[rev.unrevealed_set] = signs
    return EstimateReport(estimates=estimates, ties_broken=ties,
                          overlap=overlap(estimates, labels, rev))


def predict_accuracy_erf(a: float, b: float, rho: float, t: int = 1) -> float:
    """Asymptotic per-vertex accuracy 1/2 + 1/2 erf(sqrt(rho SNR^t / 2)),
    or erf's limit 1.0 where rho SNR^t / 2 overflows a float (SNR > 1 at a
    large depth t)."""
    _check_rho(rho)
    _check_depth(t)
    if rho == 0.0:
        return 0.5
    try:
        return 0.5 + 0.5 * math.erf(math.sqrt(rho * snr(a, b) ** t / 2.0))
    except OverflowError:
        return 1.0


def overlap_lower_curve(a: float, b: float, rho: float) -> float:
    """The paper's asymptotic overlap curve (2/3) sqrt(rho SNR) at t = 1, not
    a bound at finite degree: at n = 3000, (a, b) = (5, 2), rho = 0.2 the
    t = 1 census's mean overlap is 0.2220, 37 standard errors below the
    curve's 0.2390, and past rho SNR = 9/4 the curve exceeds 1."""
    _check_rho(rho)
    if rho == 0.0:
        return 0.0
    return (2.0 / 3.0) * math.sqrt(rho * snr(a, b))
