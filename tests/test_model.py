import dataclasses
import hashlib
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

from ssbm import (EstimateReport, Graph, Labels, MatrixOperator, ModelParams, RevealedLabels,
                  centered_adjacency, sample_instance, snr, write_instance)
from ssbm import census
from ssbm.model import _bernoulli_hits, _pack, _pair_decode, sample_graph, sample_reveal
from ssbm.rng import stream


def _assert_simple(g):
    """The edge list is read-only int64, in range, with ei < ej, and strictly
    sorted by (ei, ej), so no edge repeats."""
    for arr in (g.ei, g.ej):
        assert arr.dtype == np.int64 and not arr.flags.writeable
    assert np.all(0 <= g.ei) and np.all(g.ei < g.ej) and np.all(g.ej < g.n)
    assert np.all(np.diff(g.ei * g.n + g.ej) > 0)


def test_snr_values():
    assert abs(snr(5, 2) - 9 / 14) < 1e-15
    assert abs(snr(9, 2) - 49 / 22) < 1e-15
    assert snr(4, 4) == 0.0
    with pytest.raises(ValueError):
        snr(0, 0)
    with pytest.raises(ValueError):
        snr(2, 5)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=7, a=1, b=1)  # odd
    with pytest.raises(ValueError):
        ModelParams(n=4, a=1, b=2)  # b > a
    with pytest.raises(ValueError):
        ModelParams(n=4, a=5, b=1)  # a/n > 1
    with pytest.raises(ValueError):
        ModelParams(n=4, a=1, b=0, rho=1.5)
    p = ModelParams(n=3000, a=5, b=2, rho=0.3)
    assert p.d == 3.5
    assert p.m == 900  # guards against 0.3*1500 rounding down in floats
    assert ModelParams(n=10, a=1, b=0, rho=0.99).m == 8
    # above n ~ 4e7 rho * n / 2 in floats fell below the exact count, which
    # once lost two revealed labels here
    assert ModelParams(n=732_467_800, a=5, b=2, rho=0.7).m == 512_727_460
    assert ModelParams(n=1_403_457_000, a=5, b=2, rho=0.7).m == 982_419_900


@pytest.mark.parametrize("kwargs", [dict(n=200.0), dict(n="200"), dict(n=200, seed=1.5),
                                    dict(n=200, seed=True)],
                         ids=["float-n", "str-n", "float-seed", "bool-seed"])
def test_params_require_integer_n_and_seed(kwargs):
    # a float n once failed later inside numpy, and seed 1.5 or True sampled seed 1
    with pytest.raises(ValueError, match="must be an integer"):
        ModelParams(a=5, b=2, **kwargs)


def test_params_accept_numpy_integers():
    p = ModelParams(n=np.int64(20), a=5, b=2, rho=0.5, seed=np.uint64(3))
    g, rev = sample_instance(p)
    g2, rev2 = sample_instance(ModelParams(n=20, a=5, b=2, rho=0.5, seed=3))
    assert np.array_equal(g.ei, g2.ei) and np.array_equal(g.ej, g2.ej)
    assert np.array_equal(rev.values, rev2.values)


def test_labels_and_reveals_validate():
    with pytest.raises(ValueError):
        Labels(np.array([1, 1, 1, -1]))  # unbalanced
    with pytest.raises(ValueError):
        Labels(np.array([1, 0, -1, 1]))  # zero entry
    with pytest.raises(ValueError):
        RevealedLabels(np.array([1, 1, 0, 0], dtype=np.int8))  # unbalanced
    # out-of-range values are refused, not wrapped through int8
    with pytest.raises(ValueError, match=r"labels must lie in \{\+1, 0, -1\}"):
        Labels(np.array([257, 1, -1, -1]))  # 257 would wrap to 1
    with pytest.raises(ValueError):
        RevealedLabels(np.array([255, 0, 1, 0]))  # 255 would wrap to -1


@pytest.mark.parametrize("values", [np.zeros((2, 2), dtype=np.int8), np.int8(0)],
                         ids=["2x2", "0-d"])
def test_reveals_must_be_a_vector(values):
    # both are balanced entries in {+1, 0, -1}; only the shape is wrong
    with pytest.raises(ValueError, match="vector"):
        RevealedLabels(values)


def test_trivial_instances():
    g, rev = sample_instance(ModelParams(n=4, a=0, b=0, rho=0.0, seed=1))
    assert g.num_edges == 0 and rev.m == 0
    g, rev = sample_instance(ModelParams(n=4, a=4, b=4, rho=1.0, seed=1))
    assert g.num_edges == 6  # complete K4
    assert rev.m == 4
    assert np.array_equal(rev.values, g.labels.values)
    _assert_simple(g)


def test_instance_structure_and_determinism():
    p = ModelParams(n=300, a=8, b=3, rho=0.4, seed=99)
    g, rev = sample_instance(p)
    _assert_simple(g)
    assert np.array_equal(rev.values[rev.revealed_set], g.labels.values[rev.revealed_set])
    assert int(g.labels.values.sum()) == 0
    # reveal balanced within each community
    assert rev.m == p.m
    plus = int(np.sum(rev.values == 1))
    assert plus == p.m // 2
    g2, rev2 = sample_instance(p)
    assert np.array_equal(g.ei, g2.ei)
    assert np.array_equal(g.ej, g2.ej)
    assert np.array_equal(g.labels.values, g2.labels.values)
    assert np.array_equal(rev.revealed_set, rev2.revealed_set)


@pytest.mark.parametrize("p", [ModelParams(n=300, a=8, b=3, rho=0.4, seed=99),
                               ModelParams(n=60, a=6, b=2, rho=0.0, seed=2**64 - 1),
                               ModelParams(n=4, a=4, b=4, rho=1.0, seed=1)])
def test_sample_instance_is_the_graph_draw_then_the_reveal_draw(p):
    g, rev = sample_instance(p)
    g2 = sample_graph(p)
    rev2 = sample_reveal(p, g2.labels)
    for x, y in ((g.ei, g2.ei), (g.ej, g2.ej), (g.labels.values, g2.labels.values),
                 (rev.values, rev2.values), (rev.revealed_set, rev2.revealed_set),
                 (rev.unrevealed_set, rev2.unrevealed_set)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    # the graph draw reads no rho, so every rho of one seed draws this graph
    other = sample_graph(dataclasses.replace(p, rho=0.5))
    assert np.array_equal(g.ei, other.ei) and np.array_equal(g.ej, other.ej)
    assert np.array_equal(g.labels.values, other.labels.values)


def test_edge_counts_match_binomial_moments():
    # within/cross edge counts over seeds stay within 4 sigma of their
    # exact binomial moments
    n, a, b = 400, 10, 4
    reps = 60
    within_pairs = 2 * (n // 2) * (n // 2 - 1) // 2
    cross_pairs = (n // 2) ** 2
    tot_w = tot_c = 0
    for s in range(reps):
        g, _ = sample_instance(ModelParams(n=n, a=a, b=b, seed=s))
        same = g.labels.values[g.ei] == g.labels.values[g.ej]
        tot_w += int(np.sum(same))
        tot_c += int(np.sum(~same))
    for total, pairs, rate in ((tot_w, within_pairs, a / n), (tot_c, cross_pairs, b / n)):
        mean = reps * pairs * rate
        sigma = math.sqrt(reps * pairs * rate * (1 - rate))
        assert abs(total - mean) < 4 * sigma


def test_mean_edge_count_example():
    # expectation 2 C(n/2,2) a/n + (n/2)^2 b/n = 4244 at n=1000, a=12, b=5
    n, a, b = 1000, 12, 5
    expect = 2 * ((n // 2) * (n // 2 - 1) // 2) * a / n + (n // 2) ** 2 * b / n
    assert expect == 4244.0
    counts = [sample_instance(ModelParams(n=n, a=a, b=b, seed=s))[0].num_edges
              for s in range(200)]
    assert abs(np.mean(counts) - expect) < 3 * math.sqrt(expect)


def test_bernoulli_hits_matches_dense_sampling_stats():
    rng = stream(0, "hits")
    count, p = 5000, 0.13
    draws = [len(_bernoulli_hits(rng, count, p)) for _ in range(200)]
    mean, sigma = count * p, math.sqrt(count * p * (1 - p))
    assert abs(np.mean(draws) - mean) < 4 * sigma / math.sqrt(200)
    hits = _bernoulli_hits(stream(1, "hits"), 50, 1.0)
    assert np.array_equal(hits, np.arange(50))
    assert _bernoulli_hits(stream(1, "hits"), 50, 0.0).size == 0
    # gaps at a tiny p saturate at the int64 maximum; their sum must not wrap
    assert _bernoulli_hits(stream(1, "hits"), 50, 1e-300).size == 0


class _CyclingGaps:
    """A generator stub whose geometric gaps cycle through 1, 2, 3, restarting
    at each call, and which records every batch it draws."""

    def __init__(self):
        self.draws = []

    def geometric(self, p, size):
        self.draws.append(np.resize([1, 2, 3], size))
        return self.draws[-1]


def test_bernoulli_hits_scans_past_its_first_batch():
    # small gaps use up the first batch (27 draws at count * p = 1) well
    # before the end, so a second batch continues the scan
    rng = _CyclingGaps()
    hits = _bernoulli_hits(rng, 100, 0.01)
    positions = np.cumsum(np.concatenate(rng.draws)) - 1
    assert len(rng.draws) == 2
    assert np.array_equal(hits, positions[positions < 100])


def test_pair_decode_exhaustive():
    for h in (2, 3, 7, 31):
        total = h * (h - 1) // 2
        i, j = _pair_decode(np.arange(total), h)
        expected = [(x, y) for x in range(h) for y in range(x + 1, h)]
        assert list(zip(i.tolist(), j.tolist())) == expected


def test_pair_decode_row_boundaries_at_large_h():
    # first and last key of rows 0, 1, a middle row and h - 2 (the last row
    # with a pair), where keys near 5e11 sit between rows' integer starts
    h = 10**6
    rows = np.array([0, 1, h // 2, h - 2], dtype=np.int64)
    starts = rows * (2 * h - rows - 1) // 2
    keys = np.stack([starts, starts + h - rows - 2], axis=1).ravel()
    i, j = _pair_decode(keys, h)
    assert np.array_equal(i, np.repeat(rows, 2))
    assert np.array_equal(j, np.stack([rows + 1, np.full(4, h - 1)], axis=1).ravel())
    assert keys[-1] == h * (h - 1) // 2 - 1


def _pair_row(k: int, h: int) -> int:
    """The row of key k: the last i with i (2h - i - 1) / 2 <= k, by a binary
    search in exact Python integers."""
    lo, hi = 0, h - 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * (2 * h - mid - 1) // 2 <= k:
            lo = mid
        else:
            hi = mid - 1
    return lo


@given(st.data())
def test_pair_decode_matches_an_exact_reference_up_to_h_2_30(data):
    # random keys, and the first and last key of sampled rows (rows 0 and
    # h - 2 always among them), with nothing of size h allocated
    h = data.draw(st.sampled_from([2, 3, 2**30 - 1, 2**30]) | st.integers(2, 2**30), label="h")
    total = h * (h - 1) // 2
    rows = [0, h - 2] + data.draw(st.lists(st.integers(0, h - 2), max_size=8), label="rows")
    starts = [r * (2 * h - r - 1) // 2 for r in rows]
    keys = data.draw(st.lists(st.integers(0, total - 1), max_size=16), label="keys")
    keys += starts + [s + h - r - 2 for s, r in zip(starts, rows)]
    i, j = _pair_decode(np.array(keys, dtype=np.int64), h)
    expected = []
    for k in keys:
        r = _pair_row(k, h)
        expected.append((r, k - r * (2 * h - r - 1) // 2 + r + 1))
    assert list(zip(i.tolist(), j.tolist())) == expected


@pytest.mark.parametrize("params, edges, digest", [
    # p = 1 within (a = n, the arange path) and no cross edges (b = 0), at
    # rho in {0, 1}, where a pair decode at h = 1 or 2 would show an off-by-one
    (ModelParams(n=2, a=2, b=0, rho=0.0, seed=3), 0,
     "a8d9e571a3f6f79da5fff4bda27926a1870031369ec137d6587305c8efec80d2"),
    (ModelParams(n=2, a=2, b=2, rho=1.0, seed=4), 1,
     "23b1ab76dd934ac9bc2c3f418554c36b5965e9ce01ae1d195b368ded4ecf2710"),
    (ModelParams(n=4, a=4, b=0, rho=1.0, seed=5), 2,
     "b2214487484a3f08e8dfce147541ae48582da09a3ec486d24c6d501d219db774"),
    (ModelParams(n=4, a=4, b=4, rho=0.0, seed=6), 6,
     "35bb024b56865bf8681b43b0b1028f1caa0195ec50532348f9f2572a106fd659"),
    (ModelParams(n=4, a=3, b=0, rho=0.0, seed=7), 1,
     "87430e8064e94e3f9c7aa5c7983df03d53b7c7504e8beb8845a79ec35f0d3972"),
    (ModelParams(n=10, a=10, b=0, rho=0.0, seed=8), 20,
     "05215141dab5ea6a5866d989b2d119950a51d5f2ed0f5a6e1ff005f9f85b7746"),
    (ModelParams(n=10, a=10, b=10, rho=1.0, seed=9), 45,
     "7ff9555dee47935ccab676be32b07096fdd43127db79cc8612dc91c41ce9071a"),
    (ModelParams(n=10, a=10, b=3, rho=0.5, seed=10), 32,
     "03e4e9178a3ce488f2ee3e22fc5630c06af243e96086a644686e38551f0b19ec"),
    (ModelParams(n=10, a=6, b=0, rho=1.0, seed=2**64 - 1), 9,
     "721305ea8f3cf99bf88a8b8e5200e7188e89e266bfb385c5df33a2ee4bbab9f1"),
])
def test_sampler_at_edge_sizes_is_bit_identical(params, edges, digest):
    # SHA-256 over the raw bytes of ei, ej, labels and reveal, as in
    # tests/test_fixed_seed_digests.py, recorded at commit 81b09da
    g, rev = sample_instance(params)
    assert g.num_edges == edges
    h = hashlib.sha256()
    for arr in (g.ei, g.ej, g.labels.values, rev.values):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == digest


def test_operator_dense_matches_matvec_against_basis():
    rng = np.random.default_rng(3)
    n = 40
    dense = rng.standard_normal((n, n))
    dense = 0.5 * (dense + dense.T)
    dense[np.abs(dense) < 1.0] = 0.0
    u = rng.standard_normal(n)
    op = MatrixOperator.from_dense(dense)
    op = MatrixOperator(n, op.rows, op.cols, op.weights, rank1=(u, 0.7))
    ref = dense + 0.7 * np.outer(u, u)
    assert np.allclose(op.to_dense(), ref, atol=1e-12)
    cols = op.offdiag_product(np.vstack([np.eye(n), np.zeros(n)])) + np.diag(op.diagonal())
    assert np.allclose(cols, ref, atol=1e-12)


@given(st.data())
def test_operator_products_and_restrict_match_dense(data):
    n = data.draw(st.integers(1, 8))
    values = st.floats(-10, 10, allow_nan=False)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), values),
                               max_size=3 * n))
    rows, cols, weights = (np.array(v) for v in zip(*pairs)) if pairs else ([], [], [])
    rank1 = None
    if data.draw(st.booleans()):
        u = np.array(data.draw(st.lists(st.floats(-2, 2, allow_nan=False), min_size=n, max_size=n)))
        rank1 = (u, data.draw(st.floats(-1, 1, allow_nan=False)))
    op = MatrixOperator(n, rows, cols, weights, rank1=rank1)
    dense = op.to_dense()
    assert np.array_equal(dense, dense.T)
    u = op.rank1[0]
    v = np.array(data.draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n)))
    k = data.draw(st.integers(1, 4))
    S = np.array(data.draw(st.lists(st.floats(-2, 2, allow_nan=False),
                                    min_size=n * k, max_size=n * k))).reshape(n, k)
    # offdiag_product of a stack whose spare last row (entry, for a vector)
    # holds NaN writes u^T X there and nothing else, and is offdiag @ [X; u^T X]
    # bit for bit
    products = []
    for X in (v, S):
        stack = np.concatenate([X, np.full_like(X[:1], np.nan)])
        products.append(op.offdiag_product(stack))
        assert np.array_equal(stack[:-1], X) and np.array_equal(stack[-1], u @ X)
        assert np.array_equal(products[-1], op.offdiag @ np.concatenate([X, (u @ X)[None]]))
    assert np.allclose(products[0] + op.diagonal() * v, dense @ v, rtol=0, atol=1e-9)
    # offdiag_product([S; spare]) = B S for the off-diagonal part B, up to
    # rounding bounded by the row sums of the sparse part and of the rest
    # taken apart
    sparse = MatrixOperator(n, op.rows, op.cols, op.weights).to_dense()
    scale = max(1.0, float((np.abs(sparse).sum(axis=1) + np.abs(dense - sparse).sum(axis=1)).max()))
    assert op.offdiag.shape == (n, n + 1)
    assert np.allclose(products[1], (dense - np.diag(np.diag(dense))) @ S,
                       rtol=0, atol=1e-12 * scale)
    assert np.allclose(op.diagonal(), np.diag(dense), rtol=0, atol=1e-12 * scale)
    keep = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    assert np.allclose(op.restrict(keep).to_dense(), dense[np.ix_(keep, keep)], rtol=0, atol=1e-9)


def test_operator_has_one_form():
    # no rank-one part given stores the zero one, and there is no shift field
    # (the class attribute is what the benchmark's solve hash reads)
    args = (5, [0, 1, 3, 2], [1, 1, 4, 0], [1.5, -2.0, 0.5, 3.0])
    plain = MatrixOperator(*args)
    zero = MatrixOperator(*args, rank1=(np.zeros(5), 0.0))
    assert np.array_equal(plain.rank1[0], zero.rank1[0]) and plain.rank1[1] == zero.rank1[1] == 0.0
    assert np.array_equal(plain.diagonal(), zero.diagonal())
    assert np.array_equal(plain.offdiag_radii(), zero.offdiag_radii())
    assert np.array_equal(plain.to_dense(), zero.to_dense())
    x = np.random.default_rng(4).standard_normal((6, 3))
    assert np.array_equal(plain.offdiag @ x, zero.offdiag @ x)
    with pytest.raises(TypeError):
        MatrixOperator(*args, diag_shift=0.5)
    assert MatrixOperator.diag_shift == plain.diag_shift == 0.0


def test_operator_rejects_malformed_input():
    with pytest.raises(ValueError, match="dimension must be nonnegative"):
        MatrixOperator(-1, [], [], [])
    with pytest.raises(ValueError, match="must have equal length"):
        MatrixOperator(3, [0, 1], [1], [1.0, 1.0])
    for r, c in (([0], [3]), ([-1], [1])):
        with pytest.raises(ValueError, match="sparse entry out of range"):
            MatrixOperator(3, r, c, [1.0])
    with pytest.raises(ValueError, match="rank-one vector length does not match dim"):
        MatrixOperator(3, [0], [1], [1.0], rank1=(np.ones(2), 1.0))
    # the weights, u and c are finite, including a sum of duplicate weights
    for bad in (np.nan, np.inf, -np.inf):
        for kwargs in ({"weights": [1.0, bad]}, {"rank1": (np.array([1.0, bad, 0.0]), 1.0)},
                       {"rank1": (np.ones(3), bad)}):
            args = {"weights": [1.0, 2.0], **kwargs}
            with pytest.raises(ValueError, match="operator entries must be finite"):
                MatrixOperator(3, [0, 1], [1, 2], **args)
    # refused without an overflow warning first: warnings here are errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="entries must be finite"):
            MatrixOperator(3, [0, 0], [1, 1], [1e308, 1e308])
    # the weights, u and c are numbers: no string, object or bool is cast to one
    for kwargs, match in (({"weights": ["1.5"]}, "weights must be numbers"),
                          ({"weights": [True]}, "weights must be numbers"),
                          ({"weights": np.array([1.5], dtype=object)}, "weights must be numbers"),
                          ({"rank1": (["1", "2"], 0.5)}, "rank-one vector must be numbers"),
                          ({"rank1": ([True, False], 0.5)}, "rank-one vector must be numbers"),
                          ({"rank1": ([1, 2], "0.5")}, "rank-one coefficient must be a number"),
                          ({"rank1": ([1, 2], True)}, "rank-one coefficient must be a number")):
        with pytest.raises(ValueError, match=match):
            MatrixOperator(2, [0], [1], **{"weights": [1.5], **kwargs})


@pytest.mark.parametrize("p", [ModelParams(n=300, a=8, b=3, rho=0.4, seed=99),
                               ModelParams(n=4, a=4, b=4, rho=1.0, seed=1)])
def test_labels_hold_their_communities_and_reveals_draw_from_them(p):
    g, rev = sample_instance(p)
    plus, minus = g.labels.communities
    for c in (plus, minus):
        assert c.dtype == np.int64 and not c.flags.writeable
        assert np.all(np.diff(c) > 0)  # sorted, each vertex once
    assert plus.size == minus.size == p.n // 2
    # disjoint and covering: together they are range(n) once each
    assert np.array_equal(np.sort(np.concatenate([plus, minus])), np.arange(p.n))
    assert np.all(g.labels.values[plus] == 1) and np.all(g.labels.values[minus] == -1)
    for sign, c in ((1, plus), (-1, minus)):
        drawn = np.flatnonzero(rev.values == sign)
        assert drawn.size == p.m // 2 and np.isin(drawn, c).all()
    # built from a caller's vector, which it does not hold
    values = np.array([-1, 1, 1, -1, -1, 1], dtype=np.int8)
    labels = Labels(values)
    values[:] = 1
    assert [c.tolist() for c in labels.communities] == [[1, 2, 5], [0, 3, 4]]


def test_value_types_keep_their_own_arrays():
    # each type stores a copy: writing to the caller's arrays afterwards
    # changes none of them, and leaves those arrays writable
    ints = np.array([1, -1, 1, -1, 1, 0, 0, -1], dtype=np.int8)
    pairs = np.array([0, 1, 1, 1])
    floats = np.array([2.0, 3.0, 1.0, 1.0])
    views = (ints[:4], ints[4:], pairs[:2], pairs[2:], floats[:2], floats[2:])
    labels, rev = Labels(views[0]), RevealedLabels(views[1])
    report = EstimateReport(views[0], ties_broken=0, overlap=1.0)
    op = MatrixOperator(2, views[2], views[3], views[4], rank1=(views[5], 0.5))
    assert op.diagonal().tolist() == [0.5, 3.5]
    ints[:], pairs[:], floats[:] = 0, 0, 7.0
    assert labels.values.tolist() == report.estimates.tolist() == [1, -1, 1, -1]
    assert rev.values.tolist() == [1, 0, 0, -1] and rev.revealed_set.tolist() == [0, 3]
    assert rev.unrevealed_set.tolist() == [1, 2]
    for derived in (rev.revealed_set, rev.unrevealed_set):
        assert derived.dtype == np.int64 and not derived.flags.writeable
    assert op.rows.tolist() == [0, 1] and op.cols.tolist() == [1, 1]
    assert op.weights.tolist() == [2.0, 3.0] and op.rank1[0].tolist() == [1.0, 1.0]
    assert op.diagonal().tolist() == [0.5, 3.5]
    assert all(v.flags.writeable for v in views)


def test_operator_coalesces_duplicates_and_restricts():
    op = MatrixOperator(4, [0, 0, 2, 1], [1, 1, 3, 1], [1.0, 2.0, -1.0, 5.0])
    assert op.rows.size == 3  # (0,1) merged
    dense = op.to_dense()
    assert dense[0, 1] == 3.0 and dense[1, 1] == 5.0 and dense[2, 3] == -1.0
    sub = op.restrict(np.array([0, 1, 3]))
    ref = dense[np.ix_([0, 1, 3], [0, 1, 3])]
    assert np.allclose(sub.to_dense(), ref)


def test_restrict_rejects_out_of_range_and_repeated_indices():
    # restrict([-1]) once gave vertex 2's entry, restrict([0, 0]) an empty
    # row, and restrict([3]) numpy's IndexError
    op = MatrixOperator(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    for keep in ([-1], [3], [0, 5]):
        with pytest.raises(ValueError, match=r"kept index out of range \[0, 3\)"):
            op.restrict(keep)
    for keep in ([0, 0], [2, 1, 2]):
        with pytest.raises(ValueError, match="kept indices must be distinct"):
            op.restrict(keep)
    assert op.restrict([]).dim == 0
    assert op.restrict([2]).to_dense().tolist() == [[3.0]]


def test_centered_adjacency_k4():
    g, _ = sample_instance(ModelParams(n=4, a=4, b=4, seed=0))
    M = centered_adjacency(g, 3.0)
    dense = M.to_dense()
    off = dense[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.25)
    assert np.allclose(np.diag(dense), -0.75)


def test_centered_adjacency_row_sums_concentrate():
    # E(row sum) = (n/2)(a+b)/n - d = 0 up to the -a/n self-pair correction
    means = []
    for s in range(20):
        g, _ = sample_instance(ModelParams(n=1000, a=12, b=5, seed=s))
        M = centered_adjacency(g, 8.5)
        means.append(M.to_dense().sum(axis=1).mean())
    assert abs(np.mean(means)) < 0.15


def test_empty_graph_zero_operator():
    g, _ = sample_instance(ModelParams(n=4, a=0, b=0, seed=0))
    M = centered_adjacency(g, 0.0)
    assert np.allclose(M.to_dense(), 0.0)


def _assert_exports(path, p):
    """The file at ``path`` holds ``sample_instance(p)`` line for line: the
    header ``n m``, one ``i j`` line per edge in the graph's order, then the
    ``L`` line of labels and the ``R`` line of revealed values."""
    g, rev = sample_instance(p)
    header, *edges, labels, reveal = Path(path).read_text().splitlines()
    assert header == f"{g.n} {g.num_edges}"
    pairs = np.array([ln.split() for ln in edges], dtype=np.int64).reshape(-1, 2)
    assert np.array_equal(pairs, np.column_stack([g.ei, g.ej]))
    for line, tag, values in ((labels, "L", g.labels.values), (reveal, "R", rev.values)):
        head, *tokens = line.split()
        assert head == tag and np.array_equal(np.array(tokens, dtype=np.int64), values)


def test_serialization_round_trip(tmp_path):
    p = ModelParams(n=60, a=7, b=2, rho=0.3, seed=5)
    path = tmp_path / "instance.txt"
    write_instance(path, *sample_instance(p))
    _assert_exports(path, p)


@given(st.integers(1, 40), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
       st.integers(0, 2**64 - 1))
def test_serialization_round_trip_on_drawn_instances(half, a_frac, b_frac, rho, seed):
    n = 2 * half
    a = a_frac * min(n, 12)
    p = ModelParams(n=n, a=a, b=b_frac * a, rho=rho, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        write_instance(path, *sample_instance(p))
        _assert_exports(path, p)


def _lexsort_csr(n, ei, ej, w):
    """A stable two-key symmetric CSR builder, the reference for the census's
    lists."""
    heads = np.concatenate([ei, ej])
    tails = np.concatenate([ej, ei])
    order = np.lexsort((tails, heads))
    indptr = np.searchsorted(heads[order], np.arange(n + 1))
    data = np.concatenate([w, w])[order]
    return scipy.sparse.csr_matrix((data, tails[order], indptr), shape=(n, n))


def test_adjacency_matches_lexsort_builder():
    rng = np.random.default_rng(8)
    labels = {n: Labels(np.tile([1, -1], n // 2)) for n in (2, 10, 300)}
    cases = []
    for n in labels:
        # shuffled distinct pairs, in either orientation
        pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
        pick = rng.permutation(pairs.shape[0])[: max(1, pairs.shape[0] // 5)]
        flip = rng.random(pick.size) < 0.5
        ei, ej = pairs[pick, 0], pairs[pick, 1]
        cases.append(Graph(n, np.where(flip, ej, ei), np.where(flip, ei, ej), labels[n]))
        cases.append(Graph(n, [], [], labels[n]))
    cases += [sample_instance(ModelParams(n=300, a=9, b=2, seed=s))[0] for s in range(3)]
    for g in cases:
        ref = _lexsort_csr(g.n, g.ei, g.ej, np.ones(g.num_edges, dtype=bool))
        keys = np.concatenate([_pack(g.ei, g.ej << 1), _pack(g.ej, g.ei << 1)])
        _assert_lists(census._lists(keys, g.n), np.diff(ref.indptr), ref.indices)
    # the edges into a voter, on the last sampled graph: the reference lists
    # without the other far ends
    voter = rng.random(g.n) < 0.3
    keep = voter[ref.indices]
    heads = np.repeat(np.arange(g.n), np.diff(ref.indptr))
    keys = np.concatenate([_pack(g.ei, g.ej << 1)[voter[g.ej]],
                           _pack(g.ej, g.ei << 1)[voter[g.ei]]])
    _assert_lists(census._lists(keys, g.n), np.bincount(heads[keep], minlength=g.n),
                  ref.indices[keep])


def _assert_lists(lists, count, nbr):
    """``(start, count, tagged)`` are int64 lists holding, for each vertex v,
    ``count[v]`` far ends (nbr, tagged 1) laid end to end in vertex order."""
    start, got, tagged = lists
    assert all(x.dtype == np.int64 for x in lists)
    assert np.array_equal(got, count) and np.array_equal(start, np.cumsum(count) - count)
    assert np.array_equal(tagged >> 1, nbr) and np.all(tagged & 1 == 1)


@given(st.data())
def test_graph_canonicalises_any_order_and_orientation(data):
    n = 2 * data.draw(st.integers(1, 6))
    pairs = sorted(data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                     .filter(lambda p: p[0] < p[1]))))
    edges = data.draw(st.permutations(pairs))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    ei = [j if f else i for (i, j), f in zip(edges, flips)]
    ej = [i if f else j for (i, j), f in zip(edges, flips)]
    g = Graph(n, ei, ej, Labels(np.tile([1, -1], n // 2)))
    _assert_simple(g)
    assert g.ei.tolist() == [i for i, _ in pairs] and g.ej.tolist() == [j for _, j in pairs]
    assert g.num_edges == len(pairs)


def test_graph_rejects_self_loops_and_repeated_edges():
    labels = Labels([1, -1, 1, -1])
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph(4, [0, 2], [1, 2], labels)
    for ei, ej in (([0, 1, 0], [3, 2, 3]), ([0, 1, 3], [3, 2, 0])):
        with pytest.raises(ValueError, match=r"repeated edge \(0, 3\)"):
            Graph(4, ei, ej, labels)


def test_graph_rejects_out_of_range_endpoints():
    labels = Labels([1, -1, 1, -1])
    for ei, ej in (([0], [4]), ([0], [-1])):
        with pytest.raises(ValueError, match=r"edge endpoint out of range \[0, 4\)"):
            Graph(4, ei, ej, labels)


def test_graph_rejects_endpoint_arrays_of_unequal_length():
    # unchecked, the arrays would pair up into a wrong edge list; scalars and
    # 2-D arrays are refused too
    for ei, ej, shapes in (([0, 1], [2], r"\(2,\) and \(1,\)"), (0, 1, r"\(\) and \(\)"),
                           ([[0], [1]], [[2], [3]], r"\(2, 1\) and \(2, 1\)")):
        with pytest.raises(ValueError, match=f"1-D of equal length, got shapes {shapes}"):
            Graph(4, ei, ej, Labels([1, -1, 1, -1]))


def test_index_arrays_must_hold_integers():
    # the int64 cast once truncated these without a word: the graph got the
    # edges (0, 1) and (2, 3), and the operator the entry (0, 1)
    labels = Labels([1, -1, 1, -1])
    for ei, ej in (([0.7, 2.2], [1, 3.9]), ([0, 2], [1, 3.5]), (["0"], ["1"])):
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            Graph(4, ei, ej, labels)
    with pytest.raises(ValueError, match="sparse indices must be integers"):
        MatrixOperator(3, [0.5], [1.99], [1.0])
    with pytest.raises(ValueError, match="kept indices must be integers"):
        MatrixOperator(3, [0], [1], [1.0]).restrict([0.5, 1.9])
    # a uint64 index that the cast wraps turns negative, out of range
    with pytest.raises(ValueError, match="sparse entry out of range"):
        MatrixOperator(3, np.array([2**63], dtype=np.uint64), [1], [1.0])
    # integral floats, other integer types and bools stand for their integers
    g = Graph(4, [0.0, 2.0], np.array([1, 3], dtype=np.uint8), labels)
    assert g.ei.tolist() == [0, 2] and g.ej.tolist() == [1, 3]
    assert MatrixOperator(3, [True], [2.0], [1.0]).rows.tolist() == [1]


def test_sizes_whose_pairs_overflow_int64_keys_are_refused_up_front():
    # a pair (lo, hi) is stored as the int64 key (lo << 32) | hi, so n and dim
    # stop at 2**31; the refusal comes before any array of that length exists
    # (the operator's zero rank-one vector alone would be 16 GiB)
    huge = (1 << 31) + 2
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"vertex count must be at most 2\*\*31"):
            Graph(huge, [0], [1], Labels([1, -1]))
        with pytest.raises(ValueError, match=r"dimension must be at most 2\*\*31"):
            MatrixOperator(huge, [0], [1], [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_graph_rejects_a_label_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="label vector length does not match vertex count"):
        Graph(6, [0], [1], Labels([1, -1, 1, -1]))


def test_from_dense_requires_symmetry():
    with pytest.raises(ValueError):
        MatrixOperator.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        MatrixOperator.from_dense(np.zeros(3))
    # the constructor's number rule: no string or bool matrix is cast
    for dense in ([["0", "1.5"], ["1.5", "0"]], [[False, True], [True, False]]):
        with pytest.raises(ValueError, match="matrix entries must be numbers"):
            MatrixOperator.from_dense(dense)
