import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssbm import (AggregatedOperator, CsdpSolution, Labels, MatrixOperator,
                  ModelParams, RevealedLabels, SdpSolution, SolverConfig,
                  aggregate, centered_adjacency, detection_test,
                  estimate_unrevealed, sample_instance, sandwich_check,
                  solve_csdp, solve_elliptope)
from ssbm import csdp
from ssbm.rng import coin

from oracles import aggregate_dense_reference


def _reveal(values):
    values = np.asarray(values, dtype=np.int8)
    return RevealedLabels(values)


def _empty_reveal(n):
    return _reveal(np.zeros(n, dtype=np.int8))


def test_aggregate_empty_reveal_is_bordered_matrix():
    M = MatrixOperator.from_dense(np.array([[0.0, 2.0], [2.0, 0.0]]))
    agg = aggregate(M, _empty_reveal(2))
    assert agg.margin00 == 0.0
    dense = agg.op.to_dense()
    assert dense.shape == (3, 3)
    assert np.allclose(dense[0, :], 0.0) and np.allclose(dense[:, 0], 0.0)
    assert np.allclose(dense[1:, 1:], M.to_dense())


def test_aggregate_four_vertex_example():
    # R = {0, 2} with labels +1, -1 and the only entry M_02 = 1:
    # margin00 = 2 * (+1)(-1)(1) = -2 and the whole margin row vanishes
    M = MatrixOperator(4, [0], [2], [1.0])
    rev = _reveal([1, 0, -1, 0])
    agg = aggregate(M, rev)
    assert agg.margin00 == -2.0
    dense = agg.op.to_dense()
    assert dense[0, 0] == -2.0
    assert np.allclose(dense[0, 1:], 0.0)
    assert np.allclose(dense[1:, 1:], 0.0)
    # row j+1 of the aggregated operator is the vertex rev.unrevealed_set[j]
    assert np.array_equal(rev.unrevealed_set, [1, 3])
    marked = MatrixOperator(4, [1, 3], [1, 3], [5.0, 7.0])
    assert aggregate(marked, rev).op.diagonal().tolist() == [0.0, 5.0, 7.0]


def test_aggregate_fully_revealed_is_scalar():
    rng = np.random.default_rng(0)
    Md = rng.standard_normal((6, 6))
    Md = 0.5 * (Md + Md.T)
    values = np.array([1, -1, 1, -1, 1, -1], dtype=np.int8)
    agg = aggregate(MatrixOperator.from_dense(Md), _reveal(values))
    assert agg.op.dim == 1
    expected = float(values.astype(float) @ Md @ values.astype(float))
    assert abs(agg.margin00 - expected) < 1e-12
    sol = solve_elliptope(agg.op, SolverConfig(seed=0))
    assert abs(sol.value - expected) < 1e-12


def test_aggregate_rejects_unbalanced_reveal():
    # the type itself refuses unbalanced vectors; aggregate double-checks a
    # hand-built bypass
    values = np.array([1, 1, 0, 0], dtype=np.int8)
    with pytest.raises(ValueError):
        _reveal(values)
    bad = object.__new__(RevealedLabels)
    object.__setattr__(bad, "values", values)
    object.__setattr__(bad, "revealed_set", np.array([0, 1]))
    # refused by the balance check, before aggregate reads the unrevealed set
    # that the bypass never derived
    with pytest.raises(ValueError, match="requires a balanced reveal"):
        aggregate(MatrixOperator(4, [0], [1], [1.0]), bad)


def test_aggregate_matches_dense_reference_with_rank_one():
    # centered adjacency: the all-ones rank-one part must cancel in row 0 and
    # survive on the interior block
    p = ModelParams(n=40, a=9, b=3, rho=0.3, seed=8)
    g, rev = sample_instance(p)
    M = centered_adjacency(g, p.d)
    agg = aggregate(M, rev)
    ref = aggregate_dense_reference(M.to_dense(), rev.values)
    assert np.max(np.abs(agg.op.to_dense() - ref)) < 1e-12
    assert abs(agg.margin00 - ref[0, 0]) < 1e-12
    assert agg.op.dim == 40 - rev.m + 1
    # rank-one representation is supported off index 0
    u, c = agg.op.rank1
    assert u[0] == 0.0 and np.allclose(u[1:], 1.0) and c == -p.d / p.n


@given(st.data())
def test_aggregate_matches_dense_reference_on_random_matrices(data):
    half = data.draw(st.integers(1, 5))
    n = 2 * half
    entries = st.one_of(st.just(0.0), st.floats(-10, 10, allow_nan=False))
    upper = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    base = MatrixOperator.from_dense(upper + upper.T)
    rank1 = None
    if data.draw(st.booleans()):
        u = np.array(data.draw(st.lists(st.floats(-2, 2, allow_nan=False),
                                        min_size=n, max_size=n)))
        rank1 = (u, data.draw(st.floats(-1, 1, allow_nan=False)))
    M = MatrixOperator(n, base.rows, base.cols, base.weights, rank1=rank1)
    labels = np.array(data.draw(st.permutations([1] * half + [-1] * half)), dtype=np.int8)
    k = data.draw(st.integers(0, half))  # revealed per community
    rv = np.zeros(n, dtype=np.int8)
    for side in (1, -1):
        members = np.flatnonzero(labels == side)
        picked = data.draw(st.permutations(members.tolist()))[:k]
        rv[picked] = side
    rev = _reveal(rv)
    agg = aggregate(M, rev)
    ref = aggregate_dense_reference(M.to_dense(), rev.values)
    assert agg.op.dim == n - 2 * k + 1
    assert np.allclose(agg.op.to_dense(), ref, rtol=0, atol=1e-9)
    assert abs(agg.margin00 - ref[0, 0]) <= 1e-9


def test_embedding_identity_on_random_feasible_points():
    rng = np.random.default_rng(12)
    n, m, k = 20, 6, 4
    Md = rng.standard_normal((n, n))
    Md = 0.5 * (Md + Md.T)
    labels = np.array([1] * (n // 2) + [-1] * (n // 2), dtype=np.int8)
    rng.shuffle(labels)
    rv = np.zeros(n, dtype=np.int8)
    rv[np.flatnonzero(labels == 1)[: m // 2]] = 1
    rv[np.flatnonzero(labels == -1)[: m // 2]] = -1
    rev = _reveal(rv)
    agg = aggregate(MatrixOperator.from_dense(Md), rev)
    agg_dense = agg.op.to_dense()
    tampered = agg_dense.copy()  # the canary: a margin off by 1e-3 must show
    tampered[0, 0] += 1e-3
    unrev = rev.unrevealed_set
    for _ in range(100):
        tau = rng.standard_normal((n - m + 1, k))
        tau /= np.linalg.norm(tau, axis=1, keepdims=True)
        full = np.empty((n, k))
        full[rev.revealed_set] = np.outer(rv[rev.revealed_set], tau[0])
        full[unrev] = tau[1:]
        obj_full = float(np.einsum("ij,ik,jk->", Md, full, full))
        obj_agg = float(np.einsum("ij,ik,jk->", agg_dense, tau, tau))
        assert abs(obj_full - obj_agg) < 1e-9
        assert abs(obj_full - float(np.einsum("ij,ik,jk->", tampered, tau, tau))) > 1e-9


def test_solve_csdp_unsupervised_special_case_is_bitwise():
    p = ModelParams(n=120, a=8, b=3, rho=0.0, seed=5)
    g, rev = sample_instance(p)
    cfg = SolverConfig(seed=9)
    direct = solve_elliptope(centered_adjacency(g, p.d), cfg)
    via_csdp = solve_csdp(centered_adjacency(g, p.d), rev, cfg)
    assert via_csdp.value == direct.value
    assert np.array_equal(via_csdp.inner.factor, direct.factor)
    assert via_csdp.aggregated is None


def test_witness_and_submatrix_bounds_on_sbm():
    for seed in range(4):
        p = ModelParams(n=150, a=9, b=2, rho=0.3, seed=seed)
        g, rev = sample_instance(p)
        cfg = SolverConfig(seed=seed)
        M = centered_adjacency(g, p.d)
        csol = solve_csdp(M, rev, cfg)
        tau = 1e-3 * g.n * math.sqrt(max(p.d, 1.0))
        x = g.labels.values.astype(float)
        witness = float(x @ M.to_dense() @ x)
        assert csol.value >= witness - tau
        lower = solve_elliptope(M.restrict(rev.unrevealed_set), cfg).value
        assert lower <= csol.value - csol.aggregated.margin00 + tau


def test_estimate_aligned_factor_gives_overlap_one():
    n, m = 8, 4
    labels = Labels(np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=np.int8))
    rv = np.array([1, 1, 0, 0, -1, -1, 0, 0], dtype=np.int8)
    rev = _reveal(rv)
    sigma0 = np.array([1.0, 0.0])
    factor = np.vstack([sigma0] + [labels.values[v] * sigma0 for v in rev.unrevealed_set])
    agg = aggregate(MatrixOperator(n, [0], [1], [1.0]), rev)
    inner = SdpSolution(factor=factor, value=0.0, sweeps_used=1, converged=True,
                        objective_history=np.array([0.0]))
    # a hand-built solution has no operator, so nothing to certify
    assert inner.certificate is None
    sol = CsdpSolution(inner=inner, aggregated=agg)
    report = estimate_unrevealed(sol, rev, labels, seed=0)
    assert report.overlap == 1.0
    assert report.ties_broken == 0
    # anchored: estimates equal the truth, not its global flip
    assert np.array_equal(report.estimates, labels.values)


def test_estimate_orthogonal_factor_resolves_by_coin():
    n = 40
    half = n // 2
    labels = Labels(np.array([1] * half + [-1] * half, dtype=np.int8))
    rv = np.zeros(n, dtype=np.int8)
    rv[0], rv[half] = 1, -1
    rev = _reveal(rv)
    sigma0 = np.array([1.0, 0.0])
    perp = np.array([0.0, 1.0])
    factor = np.vstack([sigma0] + [perp for _ in range(n - 2)])
    agg = aggregate(MatrixOperator(n, [0], [1], [1.0]), rev)
    inner = SdpSolution(factor=factor, value=0.0, sweeps_used=1, converged=True,
                        objective_history=np.array([0.0]))
    sol = CsdpSolution(inner=inner, aggregated=agg)
    report = estimate_unrevealed(sol, rev, labels, seed=3)
    assert report.ties_broken == n - 2
    # each tied vertex gets the coin keyed by its original index
    unrev = rev.unrevealed_set
    assert report.estimates[unrev].tolist() == [coin(3, "csdp-tie", v) for v in unrev.tolist()]
    assert report.overlap <= 6.0 / math.sqrt(n - 2)  # O(1/sqrt) fluctuation


def test_estimate_empty_reveal_falls_back_to_rounding():
    p = ModelParams(n=200, a=12, b=3, rho=0.0, seed=2)
    g, rev = sample_instance(p)
    csol = solve_csdp(centered_adjacency(g, p.d), rev, SolverConfig(seed=0))
    report = estimate_unrevealed(csol, rev, g.labels, seed=0)
    assert set(np.unique(report.estimates)) <= {-1, 1}
    assert 0.0 <= report.overlap <= 1.0


def test_detection_test_paper_constants():
    out = detection_test(700.0, 200, 9, 2)
    assert out.threshold == 665.0
    assert abs(out.rho0 - (1 - 7 / 195)) < 1e-15
    assert abs(out.rho0 - 0.9641) < 6e-5
    assert out.decision == 1
    assert detection_test(664.999, 200, 9, 2).decision == 0
    assert detection_test(665.0, 200, 9, 2).decision == 1  # boundary inclusive
    with pytest.raises(ValueError, match="requires a > b"):
        detection_test(1.0, 200, 2, 2)


def _count_audit_solves(monkeypatch):
    """The dimension of every solve ``sandwich_check`` makes from here on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].dim)
        return solve_elliptope(*args, **kwargs)

    monkeypatch.setattr(csdp, "solve_elliptope", counted)
    return calls


def test_sandwich_unsupervised_collapses():
    p = ModelParams(n=80, a=8, b=3, rho=0.0, seed=3)
    g, rev = sample_instance(p)
    cfg = SolverConfig(seed=1)
    M = centered_adjacency(g, p.d)
    rep = sandwich_check(solve_elliptope(M, cfg), solve_csdp(M, rev, cfg), rev, p.d, cfg)
    assert rep.margin00 == 0.0
    assert rep.holds
    assert abs(rep.lower - rep.upper) <= 2 * rep.tau
    assert abs(rep.mid - rep.upper) <= 2 * rep.tau


def test_sandwich_solves_nothing_when_nothing_is_revealed(monkeypatch):
    # at rho = 0 the lower and upper programs are both the given SDP of M
    p = ModelParams(n=80, a=8, b=3, rho=0.0, seed=3)
    g, rev = sample_instance(p)
    cfg = SolverConfig(seed=1)
    M = centered_adjacency(g, p.d)
    lower = solve_elliptope(M.restrict(rev.unrevealed_set), cfg).value
    sdp = solve_elliptope(M, cfg)
    upper = sdp.value
    csol = solve_csdp(M, rev, cfg)
    calls = _count_audit_solves(monkeypatch)
    rep = sandwich_check(sdp, csol, rev, p.d, cfg)
    assert calls == []
    # the report, field for field, against the separately solved programs
    assert (rep.lower, rep.mid, rep.upper) == (lower, upper, upper)
    assert (rep.margin00, rep.holds, rep.margin_nonneg, rep.submatrix_ok) == (0.0, True, True, True)


def test_sandwich_fully_revealed(monkeypatch):
    # at m = n the unrevealed block is empty, so its SDP is 0 and nothing is solved
    p = ModelParams(n=40, a=10, b=2, rho=1.0, seed=6)
    g, rev = sample_instance(p)
    cfg = SolverConfig(seed=0)
    M = centered_adjacency(g, p.d)
    sdp, csol = solve_elliptope(M, cfg), solve_csdp(M, rev, cfg)
    calls = _count_audit_solves(monkeypatch)
    rep = sandwich_check(sdp, csol, rev, p.d, cfg)
    assert calls == []
    assert rep.lower == 0.0
    assert abs(rep.mid - rep.margin00) < 1e-9
    assert rep.submatrix_ok


def test_sandwich_check_refuses_a_solution_it_cannot_audit():
    p = ModelParams(n=40, a=8, b=3, rho=0.5, seed=2)
    g, rev = sample_instance(p)
    cfg = SolverConfig(seed=0)
    M = centered_adjacency(g, p.d)
    sdp, csol = solve_elliptope(M, cfg), solve_csdp(M, rev, cfg)
    # a hand-built solution holds no operator M to audit against
    bare = SdpSolution(factor=sdp.factor, value=sdp.value, sweeps_used=0, converged=True,
                       objective_history=np.array([sdp.value]))
    with pytest.raises(ValueError, match="no operator"):
        sandwich_check(bare, csol, rev, p.d, cfg)
    # a reveal of another length, with or without revealed vertices
    for other in (sample_instance(ModelParams(n=42, a=8, b=3, rho=0.5, seed=2))[1],
                  _empty_reveal(42)):
        with pytest.raises(ValueError, match="dimensions differ"):
            sandwich_check(sdp, csol, other, p.d, cfg)
        with pytest.raises(ValueError, match="dimensions differ"):
            aggregate(M, other)
    # a CSDP solved under another reveal of M, with or without revealed vertices
    for other in (sample_instance(ModelParams(n=40, a=8, b=3, rho=0.25, seed=2))[1],
                  _empty_reveal(40)):
        with pytest.raises(ValueError, match="does not fit the reveal"):
            sandwich_check(sdp, solve_csdp(M, other, cfg), rev, p.d, cfg)


def test_csdp_value_per_vertex_reaches_half_gap_at_scale():
    # the ground-truth witness keeps value/n near (a-b)/2 on a planted graph
    p = ModelParams(n=1000, a=12, b=5, rho=0.2, seed=17)
    g, rev = sample_instance(p)
    csol = solve_csdp(centered_adjacency(g, p.d), rev, SolverConfig(seed=1))
    eps = 0.35  # witness fluctuation, std sqrt((a+b)/n) ~ 0.13
    assert csol.value / p.n >= (p.a - p.b) / 2 - eps


def test_margin00_nonnegative_with_high_frequency():
    # aggregation is cheap: no solves needed to observe the margin
    nonneg = 0
    reps = 100
    for s in range(reps):
        p = ModelParams(n=1000, a=12, b=5, rho=0.2, seed=s)
        g, rev = sample_instance(p)
        agg = aggregate(centered_adjacency(g, p.d), rev)
        nonneg += agg.margin00 >= 0
    assert nonneg / reps >= 0.95
