import json
import math
import os
import subprocess
import sys
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from ssbm import (Graph, Labels, ModelParams, RevealedLabels, census_estimate,
                  predict_accuracy_erf, sample_instance)
from ssbm import census
from ssbm.census import margins_at_depth
from ssbm.model import _pack, _unpack
from ssbm.cli import main
from ssbm.rng import coin, coins

from oracles import (binomial_difference_stats, binomial_gap_oracle, binomial_pmf,
                     census_success_bound, delta_gap, overlap_lower_curve,
                     vote_accuracy_exact)


def _graph_from_edges(n, edges, labels):
    ei = [e[0] for e in edges]
    ej = [e[1] for e in edges]
    return Graph(n, ei, ej, Labels(np.asarray(labels, dtype=np.int8)))


def _reveal(values):
    values = np.asarray(values, dtype=np.int8)
    return RevealedLabels(values)


def test_margin_direct_neighbors():
    # v=0 with revealed 1-neighbors {+1, +1, -1} -> margin +1, support 3
    g = _graph_from_edges(6, [(0, 1), (0, 2), (0, 3)], [1, 1, 1, -1, -1, -1])
    rev = _reveal([0, 1, 1, -1, -1, 0])
    margins, support = (margins_at_depth(g, v, 1, np.arange(g.n))
                        for v in (rev.values, np.abs(rev.values)))
    assert (margins[0], support[0]) == (1, 3)
    assert np.all(np.abs(margins) <= support) and np.all(support <= rev.m)


def test_margin_isolated_vertex():
    g = _graph_from_edges(4, [(1, 2)], [1, 1, -1, -1])
    rev = _reveal([0, 1, -1, 0])
    for t in (1, 2):
        margins, support = (margins_at_depth(g, v, t, np.arange(g.n))
                             for v in (rev.values, np.abs(rev.values)))
        assert (margins[0], support[0]) == (0, 0)


def test_margins_at_depth_one_match_the_adjacency_product():
    # the t = 1 tallies come from the edge list, not from A; they must be
    # A @ votes exactly, in int64, with or without edges
    labels = [1, -1] * 4
    votes = np.array([1, 0, -1, 1, 0, 0, -1, 1], dtype=np.int8)
    rows = np.array([0, 1, 4, 5, 7])
    for edges in ([], [(0, 1), (1, 2), (2, 7), (1, 7)]):  # vertices 3 to 6 isolated
        g = _graph_from_edges(8, edges, labels)
        adj = np.zeros((g.n, g.n), dtype=np.int64)
        adj[g.ei, g.ej] = adj[g.ej, g.ei] = 1
        for v in (votes, np.abs(votes)):
            margins = margins_at_depth(g, v, 1, rows)
            assert margins.dtype == np.int64
            assert np.array_equal(margins, (adj @ v.astype(np.int64))[rows])


def test_margin_path_depth_two():
    # path p0-p1-p2-p3-p4 with reveals +1 at p0, -1 at p4; from p2 at t=2
    g = _graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)], [1, 1, 1, -1, -1, -1])
    rev = _reveal([1, 0, 0, 0, -1, 0])
    for t, expected in ((2, (0, 2)), (1, (0, 0))):
        margins, support = (margins_at_depth(g, v, t, np.arange(g.n))
                             for v in (rev.values, np.abs(rev.values)))
        assert (margins[2], support[2]) == expected


def _margins_by_distance(g, votes, t):
    """Reference tallies from all-pairs unweighted shortest paths."""
    adj = csr_matrix((np.ones(g.num_edges), (g.ei, g.ej)), shape=(g.n, g.n))
    shell = shortest_path(adj, unweighted=True, directed=False) == t
    return shell @ votes.astype(np.int64)


def test_margins_at_depth_uses_exact_distance():
    # triangle plus pendant: from vertex 3, distance to 1 and 2 is exactly 2
    g = _graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)], [1, 1, -1, -1])
    votes = np.array([0, 1, -1, 0], dtype=np.int8)
    m2, s2 = (margins_at_depth(g, v, 2, np.arange(g.n)) for v in (votes, np.abs(votes)))
    assert m2[3] == 0 and s2[3] == 2
    m1, s1 = (margins_at_depth(g, v, 1, np.arange(g.n)) for v in (votes, np.abs(votes)))
    assert m1[3] == 0 and s1[3] == 0
    with pytest.raises(ValueError):
        margins_at_depth(g, votes, 0, np.arange(g.n))
    # sampled sparse graphs (d = 2, so many isolated vertices) against
    # breadth-first distances, at every depth the census sweeps use
    for seed in range(3):
        g, rev = sample_instance(ModelParams(n=120, a=3, b=1, rho=0.5, seed=seed))
        assert np.any(np.bincount(g.ei, minlength=g.n) + np.bincount(g.ej, minlength=g.n) == 0)
        for t in (1, 2, 3):
            for v in (rev.values, np.abs(rev.values)):
                assert np.array_equal(margins_at_depth(g, v, t, np.arange(g.n)),
                                      _margins_by_distance(g, v, t))


@given(st.data())
def test_margins_at_depth_over_rows_match_distances(data):
    # any simple graph, votes in {-1, 0, 1} (all zero included) and sorted
    # rows (empty, or holding voters, whose I[rows] entries lie in the ball),
    # and rows in any order with repeats, which come back in their order
    half = data.draw(st.integers(1, 20))
    n = 2 * half
    pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
    edges = sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j})
    g = _graph_from_edges(n, edges, [1] * half + [-1] * half)
    votes = np.array(data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        votes[:] = 0
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    shuffled = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)),
                        dtype=np.int64)
    t = data.draw(st.integers(1, 4))
    for v in (votes, np.abs(votes)):
        want = _margins_by_distance(g, v, t)
        for r in (rows, shuffled):
            assert np.array_equal(margins_at_depth(g, v, t, r), want[r])


def test_census_key_holds_pairs_at_the_top_of_its_widths():
    # a pair (row i, vertex x) with tag bit 0 is the key _pack(i, (x << 1) | tag);
    # scalars only: at row and vertex 2**31 - 1 the key is still a non-negative
    # int64 that sorts by (i, x, tag) and reads back
    top = (1 << 31) - 1
    pairs = [(i, x, tag) for i in (0, top) for x in (0, top) for tag in (0, 1)]
    keys = [_pack(np.int64(i), (np.int64(x) << 1) | tag) for i, x, tag in pairs]
    assert all(k.dtype == np.int64 and k >= 0 for k in keys)
    assert sorted(keys) == keys
    for (i, x, tag), key in zip(pairs, keys):
        row, low = _unpack(key)
        assert (row, low >> 1, low & 1) == (i, x, tag)
    assert keys[-1] == np.iinfo(np.int64).max


def _record_levels(monkeypatch):
    """Wrap ``census._next_shell`` to record, for every level it is asked
    for, whether it was built, the keys its sort would hold (the candidates,
    count[x] for each far end x of the shell, and the exclusion arrays) and
    the rows that own its shell; returns the list it appends to."""
    levels = []
    step = census._next_shell

    def recorded(shell, excl, start, count, tagged, budget):
        out = step(shell, excl, start, count, tagged, budget)
        levels.append((out is not None,
                       int(count[census._far_end(shell)].sum()) + sum(x.size for x in excl),
                       np.unique(shell >> 32).size))
        return out
    monkeypatch.setattr(census, "_next_shell", recorded)
    return levels


def test_margins_at_depth_in_row_blocks_match_distances(monkeypatch):
    # a key budget of a few dozen keys cuts the rows into blocks of a few
    # rows each (one row where a row alone exceeds it); the tallies must not
    # move, on every row set, voters among the rows included, and rows out
    # of order or repeated come back in their order
    monkeypatch.setattr(census, "_KEY_BUDGET", 40)
    levels = _record_levels(monkeypatch)
    for seed in range(3):
        g, rev = sample_instance(ModelParams(n=120, a=3, b=1, rho=0.5, seed=seed))
        for t in (2, 3, 4):
            for v in (rev.values, np.abs(rev.values)):
                want = _margins_by_distance(g, v, t)
                for rows in (np.arange(g.n), rev.unrevealed_set, rev.revealed_set, np.array([7]),
                             np.array([90, 3, 90, 41, 3])):
                    levels.clear()
                    assert np.array_equal(margins_at_depth(g, v, t, rows), want[rows])
                    built = [owners for ok, _, owners in levels if ok]
                    if rows.size > 10:
                        # many blocks ran, of at most 15 rows each
                        assert max(built) <= 15, (seed, t, rows.size)
                        assert len(built) >= rows.size // 15 * (t - 1), (seed, t, rows.size)
                    elif rows.size == 1:
                        # a lone row is never refused: at most one level a depth
                        assert len(built) == len(levels) <= t - 1


def test_census_levels_stay_within_the_key_budget(monkeypatch):
    # every level's sort holds the candidates, count[x] for each far end x of
    # the shell, and the exclusion arrays: at most the key budget, unless the
    # shell is one row's, which is a block of its own; a refused level
    # builds nothing, so only the levels built count
    levels = _record_levels(monkeypatch)
    for budget in (40, 200, 1000):
        monkeypatch.setattr(census, "_KEY_BUDGET", budget)
        for n in (120, 400):
            g, rev = sample_instance(ModelParams(n=n, a=3, b=1, rho=0.5, seed=n))
            for t in (2, 3, 4):
                for rows in (np.arange(g.n), rev.unrevealed_set):
                    levels.clear()
                    margins_at_depth(g, rev.values, t, rows)
                    calls = [(keys, owners) for ok, keys, owners in levels if ok]
                    assert calls and all(keys <= budget or owners <= 1
                                         for keys, owners in calls), (budget, n, t)


def test_census_blocks_of_isolated_rows(monkeypatch):
    # every row is isolated and the rows outnumber a tiny budget, so the
    # rows' shell_0 alone passes it while their shell_1 is empty: the block
    # ends there, with tallies of 0, at every depth
    monkeypatch.setattr(census, "_KEY_BUDGET", 4)
    g = _graph_from_edges(60, [(0, 1), (1, 2), (2, 3)], [1, -1] * 30)
    votes = np.array([1, 0, -1, 1] + [0] * 56, dtype=np.int8)
    rows = np.arange(10, 60)
    for t in (2, 3, 4):
        for v in (votes, np.abs(votes)):
            assert np.array_equal(margins_at_depth(g, v, t, rows),
                                  _margins_by_distance(g, v, t)[rows])


def test_census_at_bench_size_is_one_block(monkeypatch):
    # at n = 3000, (5, 2), t = 2 every level fits the key budget, so no level
    # is refused and the rows are one block
    levels = _record_levels(monkeypatch)
    for rho in (0.1, 0.5, 0.9):
        g, rev = sample_instance(ModelParams(n=3000, a=5, b=2, rho=rho, seed=1))
        census_estimate(g, rev, t=2)
    assert levels and all(ok for ok, _, _ in levels)


# SHA-256 of the int64 tallies of the test below, recorded from the
# whole-graph breadth-first search before the rows ran in blocks (t = 4) and
# from the rows in blocks planned ahead from bounds (t = 3)
_N1E5_DIGESTS = {
    3: "7000cc2e2162345f83b46f15ebef62687ef62018cb54c59279a70ace6f7c9510",
    4: "9236cae739f8bc79b1e193e38923fa38f2b5866292d8630c0a9bca58a497b129",
}


@pytest.mark.parametrize("t", sorted(_N1E5_DIGESTS))
def test_census_at_n_1e5_runs_under_100_mb(t):
    # n = 10**5, (9, 2), rho = 0.25, seed 1, over the unrevealed rows: a
    # fresh process, whose VmHWM is this census's peak (the whole-graph
    # search peaked at about 940 MB at t = 4).  Not ru_maxrss: Linux folds
    # into it the peak of the process that spawned it, here the test
    # session's, which passes 100 MB once enough tests have run
    script = (
        "import hashlib, sys, numpy as np\n"
        "from ssbm import ModelParams, sample_instance\n"
        "from ssbm.census import margins_at_depth\n"
        "g, rev = sample_instance(ModelParams(n=100_000, a=9, b=2, rho=0.25, seed=1))\n"
        "m = margins_at_depth(g, rev.values, int(sys.argv[1]), rev.unrevealed_set)\n"
        "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM'))\n"
        "print(hashlib.sha256(np.ascontiguousarray(m, dtype=np.int64).tobytes()).hexdigest(),\n"
        "      int(hwm.split()[1]) / 1024)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script, str(t)], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    digest, peak_mb = out.stdout.split()
    assert digest == _N1E5_DIGESTS[t]
    assert float(peak_mb) < 100


def test_margins_at_depth_rejects_bad_rows_and_votes():
    # a negative row once read vertex n - 1 at t = 1 and raised an IndexError
    # at t = 2, and a fractional one was truncated to its vertex
    g = _graph_from_edges(4, [(0, 1), (1, 2), (2, 3)], [1, 1, -1, -1])
    votes = np.array([1, 0, 0, -1], dtype=np.int8)
    for t in (1, 2, 3):
        for rows in ([-1], [4], [0, 9]):
            with pytest.raises(ValueError, match=r"row out of range \[0, 4\)"):
                margins_at_depth(g, votes, t, rows)
        with pytest.raises(ValueError, match="rows must be integers"):
            margins_at_depth(g, votes, t, [0.5])
        for bad in (votes[:3], np.zeros(5, dtype=np.int8), votes.reshape(2, 2)):
            with pytest.raises(ValueError, match="votes must be a vector of length 4"):
                margins_at_depth(g, bad, t, [0])
        # int8 votes skip the exactness check, so 2 * votes (int8) meets the
        # range check; 257 and 255 (int64) cast to 1 and -1, and 0.5 to 0
        for bad in (0.5 * votes, 2 * votes, votes - 2, votes + np.int64(256)):
            with pytest.raises(ValueError, match=r"votes must lie in \{\+1, 0, -1\}"):
                margins_at_depth(g, bad, t, [0])
        assert margins_at_depth(g, votes, t, np.array([], dtype=np.int64)).size == 0
    # half votes were once truncated to whole tallies: rows 0-7 of this
    # instance read [0 0 0 0 0 -1 0 0] at t = 2, where half of
    # [1 1 -1 -1 0 -2 1 1] is the sum
    g, rev = sample_instance(ModelParams(n=40, a=5, b=2, rho=0.5, seed=1))
    with pytest.raises(ValueError, match=r"votes must lie in \{\+1, 0, -1\}"):
        margins_at_depth(g, 0.5 * rev.values, 2, np.arange(8))


def test_estimate_rejects_a_reveal_of_another_length():
    # a 4-long reveal on a 6-vertex graph once gave a 4-long estimate vector
    g = _graph_from_edges(6, [(0, 1), (1, 2), (2, 3)], [1, 1, 1, -1, -1, -1])
    for t in (1, 2):
        with pytest.raises(ValueError, match="reveal length 4 does not match the graph's 6"):
            census_estimate(g, _reveal([1, 0, -1, 0]), t=t)


def test_estimate_trivial_overlaps():
    g = _graph_from_edges(4, [(1, 2), (0, 3)], [1, 1, -1, -1])
    rev = _reveal([1, 0, -1, 0])
    report = census_estimate(g, rev, t=1, seed=0)
    # vertex 1 sees -1 only, vertex 3 sees +1 only: x_hat = -x on unrevealed
    assert list(report.estimates) == [1, -1, -1, 1]
    assert report.overlap == 1.0  # absolute value in the overlap
    assert report.ties_broken == 0
    g2 = _graph_from_edges(4, [(0, 1), (2, 3)], [1, 1, -1, -1])
    report2 = census_estimate(g2, rev, t=1, seed=0)
    assert list(report2.estimates) == [1, 1, -1, -1]
    assert report2.overlap == 1.0


@given(st.data())
def test_overlap_is_the_normalised_inner_product_on_the_unrevealed(data):
    # the agreement count against |<x, x_hat>| / (n - m) in int64, on drawn
    # instances (every vertex revealed included) and +-1 estimates
    half = data.draw(st.integers(1, 40))
    p = ModelParams(n=2 * half, a=0, b=0, rho=data.draw(st.floats(0, 1)),
                    seed=data.draw(st.integers(0, 2**64 - 1)))
    g, rev = sample_instance(p)
    est = np.array(data.draw(st.lists(st.sampled_from([1, -1]), min_size=p.n, max_size=p.n)),
                   dtype=np.int8)
    unrev = rev.unrevealed_set
    inner = int(g.labels.values[unrev].astype(np.int64) @ est[unrev].astype(np.int64))
    assert census.overlap(est, g.labels, rev) == abs(inner) / max(p.n - p.m, 1)


def test_estimate_errors_when_everything_revealed():
    g = _graph_from_edges(2, [(0, 1)], [1, -1])
    with pytest.raises(ValueError):
        census_estimate(g, _reveal([1, -1]), t=1)


def test_estimate_report_json(capsys):
    # `ssbm census` reports the EstimateReport of its instance, field for field
    argv = ["census", "--n", "60", "--a", "7", "--b", "2", "--rho", "0.4", "--seed", "3"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    g, rev = sample_instance(ModelParams(n=60, a=7, b=2, rho=0.4, seed=3))
    report = census_estimate(g, rev, t=1, seed=3)
    assert payload == {"overlap": report.overlap, "ties": report.ties_broken,
                       "estimates": report.estimates.tolist()}


def test_tie_coins_are_per_vertex_and_deterministic():
    g = _graph_from_edges(6, [], [1, 1, 1, -1, -1, -1])
    rev = _reveal([1, 0, 0, 0, 0, -1])
    r1 = census_estimate(g, rev, t=1, seed=9)
    r2 = census_estimate(g, rev, t=1, seed=9)
    assert np.array_equal(r1.estimates, r2.estimates)
    assert r1.ties_broken == 4
    r3 = census_estimate(g, rev, t=1, seed=10)
    assert r3.ties_broken == 4


def test_census_ties_match_scalar_coin_loop():
    # reference: the per-vertex loop, one scalar coin per tied vertex
    for t in (1, 2):
        for rho in (0.1, 0.5):
            g, rev = sample_instance(ModelParams(n=3000, a=5, b=2, rho=rho, seed=31))
            margins = margins_at_depth(g, rev.values, t, np.arange(g.n))
            expected, ties = rev.values.copy(), 0
            for v in rev.unrevealed_set.tolist():
                if margins[v] == 0:
                    expected[v] = coin(17, "census-tie", v)
                    ties += 1
                else:
                    expected[v] = np.sign(margins[v])
            report = census_estimate(g, rev, t=t, seed=17)
            assert ties > 0
            assert report.ties_broken == ties
            assert np.array_equal(report.estimates, expected)


def test_census_estimate_equals_the_public_composition():
    # census_estimate tallies without margins_at_depth's checks of the reveal
    # and reads its coins from a cached table: on graphs with ties at every
    # depth it must equal the checked margins fed to the vote rule
    cases = [(_graph_from_edges(6, [], [1, 1, 1, -1, -1, -1]), _reveal([1, 0, 0, 0, 0, -1]))]
    for seed, rho in ((2, 0.2), (5, 0.5)):
        cases.append(sample_instance(ModelParams(n=60, a=3, b=1, rho=rho, seed=seed)))
    for g, rev in cases:
        for t in (1, 2, 3):
            for seed in (0, (1 << 64) - 1):
                got = census_estimate(g, rev, t=t, seed=seed)
                want = census._vote_report(margins_at_depth(g, rev.values, t, rev.unrevealed_set),
                                           rev, g.labels, seed, "census-tie")
                assert got.ties_broken > 0
                assert (got.ties_broken, got.overlap) == (want.ties_broken, want.overlap)
                assert np.array_equal(got.estimates, want.estimates)


def test_tie_coin_table_is_read_only_and_equals_the_coins(monkeypatch):
    for seed, purpose, n in ((0, "census-tie", 1), (17, "census-tie", 3000),
                             ((1 << 64) - 1, "csdp-tie", 200)):
        table = census._coin_table(seed, purpose, n)
        assert table.dtype == np.int8 and table.shape == (n,)
        assert np.array_equal(table, coins(seed, purpose, np.arange(n)))
        assert table.tolist()[:50] == [coin(seed, purpose, v) for v in range(min(n, 50))]
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    # a refused seed raises before any coin is computed, cached or not
    drawn = []
    monkeypatch.setattr(census, "coins", lambda *args: drawn.append(args))
    census._coin_table.cache_clear()
    g = _graph_from_edges(6, [], [1, 1, 1, -1, -1, -1])
    for seed in (-1, 1 << 64, 1.5, True):
        with pytest.raises(ValueError, match="seed must be"):
            census_estimate(g, _reveal([1, 0, 0, 0, 0, -1]), t=1, seed=seed)
    assert drawn == [] and census._coin_table.cache_info().currsize == 0


def test_delta_gap_values():
    assert delta_gap(4, 4) == 0.0
    assert abs(delta_gap(5, 2) - 3 / (2 * math.e ** 7)) < 1e-18
    assert abs(delta_gap(5, 2) - 1.3678229483e-3) < 1e-12
    assert abs(delta_gap(9, 2) - 5.845595276586e-5) < 1e-15


def test_binomial_pmf_against_scipy():
    from scipy import stats
    for n, p in ((100, 0.05), (1000, 0.002), (10, 0.5)):
        pmf = binomial_pmf(n, p)
        ref = stats.binom.pmf(np.arange(pmf.size), n, p)
        assert np.allclose(pmf, ref, atol=1e-13)
        assert pmf.sum() > 1 - 1e-12


def test_gap_oracle_trivial_cases():
    assert binomial_gap_oracle(100, 3, 3) == 0.0
    assert binomial_gap_oracle(1, 1, 0) == 1.0  # X ~ Bernoulli(1), Y = 0
    with pytest.raises(ValueError):
        binomial_gap_oracle(2, 5, 1)


def test_gap_oracle_regression_value():
    # frozen from the DP at first computation; the lemma constant is far below
    v = binomial_gap_oracle(1000, 5, 2)
    assert abs(v - 0.7462331248947809) < 1e-12
    assert v >= delta_gap(5, 2)


@pytest.mark.parametrize("trials", [100, 1000, 10000])
def test_gap_oracle_dominates_delta_on_grid(trials):
    for a in range(2, 11):
        for b in range(0, a):
            gap = binomial_gap_oracle(trials, a, b)
            assert gap >= delta_gap(a, b)
            # the canary, on a grid holding criterion 2's: the check fails on
            # the constant with its exponent's sign flipped
            assert gap < (a - b) * math.exp(a + b) / 2.0


def test_difference_stats_sum_to_one():
    pg, pe, pl = binomial_difference_stats(500, 0.01, 400, 0.02)
    assert abs(pg + pe + pl - 1.0) < 1e-11


def _erf_series(x: float) -> float:
    """Independent high-precision erf via the Maclaurin series in Decimal."""
    getcontext().prec = 60
    xd = Decimal(x)
    total = Decimal(0)
    term = xd
    fact = Decimal(1)
    n = 0
    while True:
        contrib = term / (fact * (2 * n + 1))
        total += contrib if n % 2 == 0 else -contrib
        if abs(contrib) < Decimal("1e-45"):
            break
        n += 1
        fact *= n
        term *= xd * xd
    pi = Decimal("3.14159265358979323846264338327950288419716939937510582")
    return float(Decimal(2) / pi.sqrt() * total)


def test_erf_accuracy_one_in_ten_to_the_ten():
    # math.erf against the series oracle on a 1000-point grid
    xs = np.linspace(0.0, 5.0, 1000)
    worst = max(abs(math.erf(float(x)) - _erf_series(float(x))) for x in xs)
    assert worst <= 1e-10


def test_predict_accuracy_erf():
    assert predict_accuracy_erf(5, 2, 0.0, 1) == 0.5
    assert abs(predict_accuracy_erf(5, 2, 1.0, 1) - 0.7886609629146824) < 1e-12
    # SNR < 1: looking deeper is useless, accuracy decays to 1/2
    assert predict_accuracy_erf(5, 2, 1.0, 100) < 0.5 + 1e-9
    diffs = [predict_accuracy_erf(5, 2, 1.0, t) for t in (1, 2, 3, 4)]
    assert all(x > y for x, y in zip(diffs, diffs[1:]))
    # SNR > 1 at a large depth: SNR^t overflows a float, and the prediction
    # is erf's limit (it raised OverflowError, which failed a finished sweep)
    assert predict_accuracy_erf(9, 2, 0.25, 1000) == 1.0


def test_census_success_bound():
    thr, prob = census_success_bound(5, 5, 0.2, 1000)
    assert thr == 0.0 and prob == 0.0
    thr, prob = census_success_bound(5, 2, 0.2, 3000)
    delta = 0.6 / (2 * math.e ** 1.4)
    assert abs(delta - 0.07399) < 5e-5
    assert abs(thr - delta / 2) < 1e-15
    assert abs(prob - (1 - math.exp(-(delta ** 2) * 0.8 * 3000 / 8))) < 1e-15
    # probability bound monotone increasing in n
    probs = [census_success_bound(5, 2, 0.2, n)[1] for n in (100, 1000, 10000)]
    assert probs[0] < probs[1] < probs[2]
    with pytest.raises(ValueError):
        census_success_bound(5, 2, 0.0, 100)


def test_overlap_lower_curve():
    assert overlap_lower_curve(5, 2, 0.0) == 0.0
    assert abs(overlap_lower_curve(5, 2, 0.2) - (2 / 3) * math.sqrt(0.2 * 9 / 14)) < 1e-15
    assert abs(overlap_lower_curve(5, 2, 0.2) - 0.2390) < 5e-5
    assert abs(overlap_lower_curve(5, 2, 1.0) - 0.5345) < 5e-5


def test_sign_estimates_depend_only_on_revealed_multiset():
    # permuting vertices permutes margins: estimates follow the multiset of
    # revealed labels on each shell, nothing else
    p = ModelParams(n=80, a=9, b=3, rho=0.4, seed=21)
    g, rev = sample_instance(p)
    perm = np.random.default_rng(0).permutation(g.n)
    inv = np.argsort(perm)
    g2 = _graph_from_edges(g.n, list(zip(perm[g.ei].tolist(), perm[g.ej].tolist())),
                           g.labels.values[inv])
    rev2 = _reveal(rev.values[inv])
    m1, s1 = (margins_at_depth(g, v, 2, np.arange(g.n)) for v in (rev.values, np.abs(rev.values)))
    m2, s2 = (margins_at_depth(g2, v, 2, np.arange(g.n))
              for v in (rev2.values, np.abs(rev2.values)))
    assert np.array_equal(m1, m2[perm])
    assert np.array_equal(s1, s2[perm])


def test_global_sign_equivariance():
    # flipping all labels (truth and reveals) negates margins, flips every
    # nonzero-margin estimate, and keeps the overlap on tie-free instances
    p = ModelParams(n=200, a=30, b=5, rho=0.8, seed=4)
    g, rev = sample_instance(p)
    flipped = Graph(g.n, g.ei, g.ej, Labels(-g.labels.values))
    rev_f = _reveal(-rev.values)
    m1 = margins_at_depth(g, rev.values, 1, np.arange(g.n))
    m2 = margins_at_depth(flipped, rev_f.values, 1, np.arange(g.n))
    assert np.array_equal(m1, -m2)
    r1 = census_estimate(g, rev, t=1, seed=0)
    r2 = census_estimate(flipped, rev_f, t=1, seed=0)
    assert r1.ties_broken == 0, "pick denser params if this trips"
    assert np.array_equal(r1.estimates, -r2.estimates)
    assert r1.overlap == r2.overlap


def test_t1_success_indicators_nearly_uncorrelated():
    # mean pairwise correlation of per-vertex success indicators across seeds
    p_base = dict(n=2000, a=8, b=3, rho=0.2)
    reps = 200
    hits = np.full((reps, 40), np.nan)
    for s in range(reps):
        g, rev = sample_instance(ModelParams(seed=s, **p_base))
        report = census_estimate(g, rev, t=1, seed=s)
        ok = report.estimates == g.labels.values
        unrev_mask = rev.values == 0
        for v in range(40):
            if unrev_mask[v]:
                hits[s, v] = ok[v]
    corrs = []
    for i in range(40):
        for j in range(i + 1, 40):
            both = ~np.isnan(hits[:, i]) & ~np.isnan(hits[:, j])
            if both.sum() > 50:
                ci = hits[both, i]
                cj = hits[both, j]
                if ci.std() > 0 and cj.std() > 0:
                    corrs.append(np.corrcoef(ci, cj)[0, 1])
    assert len(corrs) > 200
    assert abs(float(np.mean(corrs))) < 0.05


def test_monte_carlo_matches_exact_dp_accuracy():
    # census accuracy at t=1 against the difference-of-binomials DP, 3 sigma
    n, a, b, rho = 2000, 6, 2, 0.5
    p = ModelParams(n=n, a=a, b=b, rho=rho)
    exact = vote_accuracy_exact(p.m // 2, p.m // 2, a / n, b / n)
    correct = total = 0
    for s in range(30):
        g, rev = sample_instance(ModelParams(n=n, a=a, b=b, rho=rho, seed=s))
        report = census_estimate(g, rev, t=1, seed=s)
        unrev = rev.unrevealed_set
        correct += int(np.sum(report.estimates[unrev] == g.labels.values[unrev]))
        total += unrev.size
    emp = correct / total
    sigma = math.sqrt(exact * (1 - exact) / total)
    assert abs(emp - exact) < 3 * sigma
