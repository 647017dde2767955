import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

from ssbm import (EstimateReport, Graph, Labels, MatrixOperator, ModelParams, RevealedLabels,
                  centered_adjacency, read_instance, sample_instance, snr,
                  write_instance)
from ssbm.model import _bernoulli_hits, _pair_decode
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


def test_labels_and_reveals_validate():
    with pytest.raises(ValueError):
        Labels(np.array([1, 1, 1, -1]))  # unbalanced
    with pytest.raises(ValueError):
        Labels(np.array([1, 0, -1, 1]))  # zero entry
    with pytest.raises(ValueError):
        RevealedLabels(np.array([1, 1, 0, 0], dtype=np.int8))  # unbalanced
    # out-of-range values are refused, not wrapped through int8
    with pytest.raises(ValueError):
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
    rev.check_truthful(g.labels)
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
    cols = op.offdiag @ np.vstack([np.eye(n), u]) + np.diag(op.diagonal())
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
    product = op.offdiag @ np.append(v, u @ v) + op.diagonal() * v
    assert np.allclose(product, dense @ v, rtol=0, atol=1e-9)
    # offdiag @ [S; u^T S] = B S for the off-diagonal part B, up to rounding
    # bounded by the row sums of the sparse part and of the rest taken apart
    k = data.draw(st.integers(1, 4))
    S = np.array(data.draw(st.lists(st.floats(-2, 2, allow_nan=False),
                                    min_size=n * k, max_size=n * k))).reshape(n, k)
    sparse = MatrixOperator(n, op.rows, op.cols, op.weights).to_dense()
    scale = max(1.0, float((np.abs(sparse).sum(axis=1) + np.abs(dense - sparse).sum(axis=1)).max()))
    assert op.offdiag.shape == (n, n + 1)
    assert np.allclose(op.offdiag @ np.vstack([S, u @ S]), (dense - np.diag(np.diag(dense))) @ S,
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


def test_serialization_round_trip(tmp_path):
    p = ModelParams(n=60, a=7, b=2, rho=0.3, seed=5)
    g, rev = sample_instance(p)
    path = tmp_path / "instance.txt"
    write_instance(path, g, rev)
    g2, rev2 = read_instance(path)
    assert g2.n == g.n
    assert np.array_equal(g2.ei, g.ei)
    assert np.array_equal(g2.ej, g.ej)
    assert np.array_equal(g2.labels.values, g.labels.values)
    assert np.array_equal(rev2.values, rev.values)
    text = path.read_text().splitlines()
    assert text[0] == f"{g.n} {g.num_edges}"
    assert text[-2].startswith("L ") and text[-1].startswith("R ")


@given(st.integers(1, 40), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
       st.integers(0, 2**64 - 1))
def test_serialization_round_trip_on_drawn_instances(half, a_frac, b_frac, rho, seed):
    n = 2 * half
    a = a_frac * min(n, 12)
    p = ModelParams(n=n, a=a, b=b_frac * a, rho=rho, seed=seed)
    g, rev = sample_instance(p)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        write_instance(path, g, rev)
        g2, rev2 = read_instance(path)
    assert g2.n == g.n
    assert np.array_equal(g2.ei, g.ei)
    assert np.array_equal(g2.ej, g.ej)
    assert np.array_equal(g2.labels.values, g.labels.values)
    assert np.array_equal(rev2.values, rev.values)
    assert np.array_equal(rev2.revealed_set, rev.revealed_set)


def _lexsort_csr(n, ei, ej, w):
    """A stable two-key symmetric CSR builder, the reference for ``neighbours``."""
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
        indptr, nbr = g.neighbours()
        got = scipy.sparse.csr_matrix((np.ones(nbr.size, dtype=bool), nbr, indptr),
                                      shape=(g.n, g.n))
        ref = _lexsort_csr(g.n, g.ei, g.ej, np.ones(g.num_edges, dtype=bool))
        assert got.shape == (g.n, g.n)
        for name in ("indptr", "indices", "data"):
            x, y = getattr(got, name), getattr(ref, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), (g.n, name)


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
    dense = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        dense[i, j] = dense[j, i] = True
    indptr, nbr = g.neighbours()
    got = np.zeros((n, n), dtype=bool)
    got[np.repeat(np.arange(n), np.diff(indptr)), nbr] = True
    assert indptr.dtype == nbr.dtype == np.int64 and np.array_equal(got, dense)


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


def test_graph_rejects_a_label_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="label vector length does not match vertex count"):
        Graph(6, [0], [1], Labels([1, -1, 1, -1]))


def test_read_instance_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4 1\n2 1\nL 1 1 -1 -1\nR 0 0 0 0\n")  # edge with i > j
    with pytest.raises(ValueError):
        read_instance(path)
    # reveals disagreeing with the labels are untruthful
    lying = tmp_path / "lying.txt"
    lying.write_text("4 1\n0 1\nL 1 1 -1 -1\nR -1 0 0 1\n")
    with pytest.raises(ValueError):
        read_instance(lying)
    # a repeated edge line would make a multigraph (operator weight 2)
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("4 2\n0 1\n0 1\nL 1 1 -1 -1\nR 0 0 0 0\n")
    with pytest.raises(ValueError):
        read_instance(repeated)
    # nothing may follow the R line
    trailing = tmp_path / "trailing.txt"
    trailing.write_text("4 1\n0 1\nL 1 1 -1 -1\nR 0 0 0 0\n2 3\n")
    with pytest.raises(ValueError):
        read_instance(trailing)


def test_read_instance_names_a_bad_edge_line(tmp_path):
    # a line with one or three fields is named, not left to numpy's shape error
    path = tmp_path / "ragged.txt"
    for edges, line in (("0 1\n2\n", 3), ("0 1 2\n1 3\n", 2), ("3\n1 2\n", 2)):
        path.write_text(f"4 2\n{edges}L 1 1 -1 -1\nR 0 0 0 0\n")
        with pytest.raises(ValueError, match=f"line {line}: bad edge line, expected 'i j'"):
            read_instance(path)
    path.write_text("4 2\n0 1\n3 2\nL 1 1 -1 -1\nR 0 0 0 0\n")
    with pytest.raises(ValueError, match="line 3: bad edge line, expected 0 <= i < j < n"):
        read_instance(path)
    # a token that is not an integer is named by its line, not by int()'s message
    for text, message in (
            ("4 2\n0 1\n0 x\nL 1 1 -1 -1\nR 0 0 0 0\n", "line 3: bad edge line, expected 'i j'"),
            ("4 1.5\n0 1\nL 1 1 -1 -1\nR 0 0 0 0\n", "line 1: bad header, expected 'n m_edges'"),
            ("4 1\n0 1\nL 1 1 -1 one\nR 0 0 0 0\n", "line 3: bad label line, expected integers"),
            ("4 1\n0 1\nL 1 1 -1 -1\nR 0 0.0 0 0\n", "line 4: bad reveal line, expected integers")):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_instance(path)


def test_read_instance_rejects_malformed_structure(tmp_path):
    path = tmp_path / "bad.txt"
    for text, message in (
            ("4\n0 1\nL 1 1 -1 -1\nR 0 0 0 0\n", "bad header, expected 'n m_edges'"),
            ("4 1 0\n0 1\nL 1 1 -1 -1\nR 0 0 0 0\n", "bad header, expected 'n m_edges'"),
            ("4 3\n0 1\nL 1 1 -1 -1\nR 0 0 0 0\n", "header does not match the file length"),
            ("4 1\n0 1\nR 0 0 0 0\nL 1 1 -1 -1\n", "missing L/R companion lines"),
            ("4 1\n0 1\nL 1 1 -1 -1\n\n", "missing L/R companion lines"),
            ("4 1\n0 1\nL 1 1 -1\nR 0 0 0 0\n", "label/reveal line length does not match n"),
            ("4 1\n0 1\nL 1 1 -1 -1\nR 0 0 0 0 0\n",
             "label/reveal line length does not match n")):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_instance(path)


def test_from_dense_requires_symmetry():
    with pytest.raises(ValueError):
        MatrixOperator.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        MatrixOperator.from_dense(np.zeros(3))
