import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from ssbm import (MatrixOperator, ModelParams, SolverConfig, aggregate,
                  centered_adjacency, certify_dual, solve_csdp, round_leading_eigvec,
                  sample_instance, solve_elliptope)
from ssbm import sdp
from ssbm.cli import _solution_payload
from ssbm.rng import stream
from ssbm.sdp import CERT_GAP

from oracles import (GROTHENDIECK_BOUND, cut_norm_concentration_trial, cut_norm_exact,
                     grothendieck_check)


def _wigner(n, seed):
    W = np.random.default_rng(seed).standard_normal((n, n))
    return MatrixOperator.from_dense(0.5 * (W + W.T))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rank=1)
    with pytest.raises(ValueError):
        SolverConfig(tol=0)
    for tol in (math.nan, math.inf):  # no stall, or a stop after STALL_WINDOW sweeps
        with pytest.raises(ValueError):
            SolverConfig(tol=tol)
    with pytest.raises(ValueError):
        SolverConfig(max_sweeps=0)
    # each solve makes one start: the retired restart cap is no setting
    with pytest.raises(TypeError):
        SolverConfig(restarts=2)
    assert SolverConfig().rank_for(50) == math.ceil(math.sqrt(100)) + 1
    assert SolverConfig().rank_for(3) == 3
    assert SolverConfig(rank=4).rank_for(100) == 4


def test_identity_objective_is_constant_n():
    sol = solve_elliptope(MatrixOperator.from_dense(np.eye(7)), SolverConfig(seed=0))
    assert abs(sol.value - 7.0) < 1e-9


def test_rank_one_spike_reaches_global_optimum():
    x = np.random.default_rng(0).choice([-1.0, 1.0], size=50)
    M = MatrixOperator.from_dense(np.outer(x, x))
    sol = solve_elliptope(M, SolverConfig(seed=1))
    assert abs(sol.value - 2500.0) <= 1e-3 * 2500.0
    cert = certify_dual(M, sol)
    # analytic fixed point: y_i = (n-1) + M_ii = n
    assert np.allclose(cert.y, 50.0, atol=1e-6)
    assert cert.gap <= 1e-3 * 2500.0
    assert cert.upper_bound >= sol.value


def test_empty_and_nonfinite_inputs(monkeypatch):
    with pytest.raises(ValueError):
        solve_elliptope(MatrixOperator(0, [], [], []), SolverConfig())
    # a non-finite operator is refused where it is built, before any solve
    with pytest.raises(ValueError, match="operator entries must be finite"):
        MatrixOperator(2, [0], [1], [np.nan])
    # finite weights whose objective overflows break the solve down at its
    # first product, with no warning (the suite turns RuntimeWarning into an
    # error), not at the sweep cap
    products = []
    product = MatrixOperator.offdiag_product
    monkeypatch.setattr(MatrixOperator, "offdiag_product",
                        lambda self, stack: products.append(1) or product(self, stack))
    huge = MatrixOperator(3, [0, 0, 1], [1, 2, 2], [1.5e308] * 3)
    with pytest.raises(sdp.NumericError, match="diverged to a non-finite value"):
        solve_elliptope(huge, SolverConfig())
    assert len(products) == 1


def test_objective_history_is_monotone():
    for seed in range(5):
        sol = solve_elliptope(_wigner(30, seed), SolverConfig(seed=seed))
        h = sol.objective_history
        drops = np.diff(h) < -1e-12 * np.maximum(1.0, np.abs(h[1:]))
        assert not drops.any()
        assert sol.converged
        assert abs(sol.value - h[-1]) < 1e-12 * max(1.0, abs(sol.value))


def _offdiag(A):
    return A - np.diag(np.diag(A))


def _gradient(M, S):
    """G = B S for the off-diagonal part B of M: one M.offdiag_product of S
    with a spare row."""
    return M.offdiag_product(np.vstack([S, np.zeros(S.shape[1])]))


def _dense_shift(M):
    """The off-diagonal part B of M and the solver's Gershgorin radii lam, from
    dense algebra: the radii of the sparse part and of the rest (rank one),
    taken apart."""
    dense = M.to_dense()
    sparse = MatrixOperator(M.dim, M.rows, M.cols, M.weights).to_dense()
    lam = np.abs(_offdiag(sparse)).sum(axis=1) + np.abs(_offdiag(dense - sparse)).sum(axis=1)
    return _offdiag(dense), lam


def _dense_replay(M, cfg, steps, shifted=True):
    """Objectives of the solve, one batch step at a time, from
    dense algebra: S <- rownormalise(G + diag(sigma) S), with G = B S for B the
    off-diagonal part of M, sigma_i = max((lam_i - t_i) / 2, lam_i / 4) for the
    solver's Gershgorin radii lam and t_i = <s_i, g_i> (sigma = 0 if not
    shifted)."""
    dense = M.to_dense()
    B, lam = _dense_shift(M)
    S = stream(cfg.seed, "sdp-init", 0).standard_normal((M.dim, cfg.rank_for(M.dim)))
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    values = [float(np.einsum("ij,ik,jk->", dense, S, S))]
    for _ in range(steps):
        G = B @ S
        if shifted:
            t = np.einsum("ij,ij->i", S, G)
            G += np.maximum((lam - t) / 2, lam / 4)[:, None] * S
        S = G / np.linalg.norm(G, axis=1, keepdims=True)
        values.append(float(np.einsum("ij,ik,jk->", dense, S, S)))
    return np.array(values), S


def _replay_instances():
    p = ModelParams(n=200, a=5, b=2, rho=0.25, seed=3)
    g, rev = sample_instance(p)
    M = centered_adjacency(g, p.d)
    # a Wigner matrix (no rank-one part), the centered adjacency (rank one
    # with u = 1, the SDP side of detection) and its aggregated CSDP operator
    # (sparse part, margin row and rank-one part)
    return _wigner(12, 3), M, aggregate(M, rev).op


def _drops(values):
    """Steps that lower the objective by more than rounding."""
    return np.diff(values) < -1e-12 * np.maximum(1.0, np.abs(values[1:]))


def test_every_batch_step_is_nondecreasing():
    # the plain step, the mixing's fallback, never lowers the objective in a
    # dense replay; _ascent_step is that step; and the solver's own history,
    # plain and mixed steps alike, is nondecreasing and ends at its value
    cfg = SolverConfig(seed=0)
    for M in _replay_instances():
        sol = solve_elliptope(M, cfg)
        values, _ = _dense_replay(M, cfg, sol.sweeps_used)
        assert not _drops(values).any()
        _, S1 = _dense_replay(M, cfg, 1)
        S = stream(cfg.seed, "sdp-init", 0).standard_normal(S1.shape)
        S /= np.linalg.norm(S, axis=1, keepdims=True)
        G = _gradient(M, S)
        sdp._ascent_step(S, G, np.einsum("ij,ij->i", S, G), M.offdiag_radii())
        assert np.allclose(S, S1, rtol=0, atol=1e-12)
        h = sol.objective_history
        assert not _drops(h).any()
        assert h[-1] == sol.value


def test_unshifted_batch_step_can_decrease_the_objective():
    # without the shift the step is no ascent: on the same instances it
    # lowers the objective (at once on the Wigner matrix, after ~150 steps
    # on the aggregated operator).  On the centered adjacency the start of
    # seed 0 climbs for 3000 steps, while that of seed 2 falls at once.
    for M, seed in zip(_replay_instances(), (0, 2, 0)):
        values, _ = _dense_replay(M, SolverConfig(seed=seed), 300, shifted=False)
        assert _drops(values).any()


def test_factor_rows_unit_norm():
    sol = solve_elliptope(_wigner(40, 1), SolverConfig(seed=5))
    norms = np.linalg.norm(sol.factor, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_value_matches_dense_recompute():
    M = _wigner(25, 9)
    sol = solve_elliptope(M, SolverConfig(seed=2))
    ref = float(np.einsum("ij,ik,jk->", M.to_dense(), sol.factor, sol.factor))
    assert abs(sol.value - ref) <= 1e-6 * max(1.0, abs(ref))


def test_solve_is_deterministic_given_config():
    M = _wigner(30, 12)
    cfg = SolverConfig(seed=77)
    a = solve_elliptope(M, cfg)
    b = solve_elliptope(M, cfg)
    assert a.value == b.value
    assert np.array_equal(a.factor, b.factor)
    assert a.sweeps_used == b.sweeps_used


def test_value_at_most_n_lambda_max():
    for seed in range(4):
        M = _wigner(25, seed + 10)
        sol = solve_elliptope(M, SolverConfig(seed=seed))
        lam1 = float(np.linalg.eigvalsh(M.to_dense()).max())
        assert sol.value <= 25 * lam1 + 1e-6
    g, _ = sample_instance(ModelParams(n=400, a=8, b=3, seed=2))
    M = centered_adjacency(g, 5.5)
    sol = solve_elliptope(M, SolverConfig(seed=0))
    assert sol.value <= 400 * float(np.linalg.eigvalsh(M.to_dense()).max()) + 1e-6


def test_restart_stability_at_overparameterized_rank():
    # above the Barvinok-Pataki width solves from five starts land on the same value
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(6, 17))
        M = _wigner(n, 1000 + trial)
        vals = [solve_elliptope(M, SolverConfig(tol=1e-9, seed=100 * trial + r)).value
                for r in range(5)]
        spread = (max(vals) - min(vals)) / max(1.0, abs(max(vals)))
        assert spread < 1e-3


def test_scaling_equivariance():
    M = _wigner(20, 2)
    scaled = MatrixOperator(20, M.rows, M.cols, 3.0 * M.weights)
    v1 = solve_elliptope(M, SolverConfig(seed=3)).value
    v3 = solve_elliptope(scaled, SolverConfig(seed=3)).value
    assert abs(v3 - 3.0 * v1) < 1e-9 * max(1.0, abs(v3))


@given(st.data())
def test_gershgorin_radii_match_dense_algebra(data):
    # the solver's radii lam on sparse pairs with duplicates and diagonal
    # entries, rows past `live` empty, and with and without a rank-one part
    # (test_model checks the product with M.offdiag)
    n = data.draw(st.integers(1, 8))
    live = data.draw(st.integers(1, n))
    index = st.integers(0, live - 1)
    pairs = data.draw(st.lists(st.tuples(index, index, st.floats(-10, 10, allow_nan=False)),
                               max_size=3 * n))
    rows, cols, weights = (np.array(v) for v in zip(*pairs)) if pairs else ([], [], [])
    rank1 = None
    if data.draw(st.booleans()):
        u = np.array(data.draw(st.lists(st.floats(-2, 2, allow_nan=False), min_size=n, max_size=n)))
        rank1 = (u, data.draw(st.floats(-1, 1, allow_nan=False)))
    M = MatrixOperator(n, rows, cols, weights, rank1=rank1)
    B, ref_lam = _dense_shift(M)
    scale = max(1.0, float((np.abs(B).sum(axis=1) + ref_lam).max()))
    assert np.allclose(M.offdiag_radii(), ref_lam, rtol=0, atol=1e-12 * scale)


def _steer(score: float) -> None:
    """``target`` on ``score`` rounded to two decimals.  Each round of
    Hypothesis's hill-climb rescans every choice of its best example, and
    another round follows while the score rises, so a score that can rise by
    ever smaller steps can stretch the search to minutes (it did once, when
    a float literal in ``src/`` joined the values Hypothesis draws); a score
    on a fixed grid rises at most once per grid step."""
    target(round(score, 2))


def _entries(bound):
    """Floats in [-bound, bound], zero or at least 1e-300 in size, so that
    some rows have squares that underflow."""
    return st.floats(-bound, bound).filter(lambda w: w == 0 or abs(w) >= 1e-300)


@settings(max_examples=500)
@given(st.data())
def test_one_step_never_lowers_the_objective(data):
    # one _ascent_step from arbitrary unit rows (so t_i < 0 on some) on a
    # sparse plus rank-one operator, c of either sign; rows past `live` are
    # isolated, with zero gradient, and must keep their rows.  A shift that is
    # too small lowers the objective on about 1% of such cases, so the search
    # is steered towards the largest drop and runs more examples than usual.
    n = data.draw(st.integers(1, 8))
    live = data.draw(st.integers(1, n))
    index = st.integers(0, live - 1)
    pairs = data.draw(st.lists(st.tuples(index, index, _entries(10)), max_size=3 * n))
    rows, cols, weights = (np.array(v) for v in zip(*pairs)) if pairs else ([], [], [])
    rank1 = None
    if data.draw(st.booleans()):
        u = np.zeros(n)
        u[:live] = data.draw(st.lists(_entries(2), min_size=live, max_size=live))
        rank1 = (u, data.draw(_entries(2)))
    M = MatrixOperator(n, rows, cols, weights, rank1=rank1)
    k = data.draw(st.integers(1, 4))
    S = np.array(data.draw(st.lists(st.floats(-1, 1, allow_nan=False),
                                    min_size=n * k, max_size=n * k))).reshape(n, k)
    S[np.linalg.norm(S, axis=1) < 1e-3] = np.eye(1, k)
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    dense = M.to_dense()
    G = _gradient(M, S)
    lam = M.offdiag_radii()
    S1 = S.copy()
    sdp._ascent_step(S1, G, np.einsum("ij,ij->i", S, G), lam)
    scale = max(1.0, float(np.abs(dense).sum()))
    before, after = (float(np.einsum("ij,ik,jk->", dense, X, X)) for X in (S, S1))
    _steer((before - after) / scale)
    assert after >= before - 1e-12 * scale
    assert np.allclose(np.linalg.norm(S1, axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.array_equal(S1[live:], S[live:])


def test_ascent_step_normalises_rows_below_the_underflow_limit():
    # gradients near 1e-160 have squares below the smallest normal float, so
    # the square root of their sum is no exact row norm
    M = MatrixOperator(3, [0, 1], [1, 2], [1e-160, -3e-161])
    S = np.random.default_rng(5).standard_normal((3, 2))
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    G = _gradient(M, S)
    lam = M.offdiag_radii()
    sdp._ascent_step(S, G, np.einsum("ij,ij->i", S, G), lam)
    assert np.allclose(np.linalg.norm(S, axis=1), 1.0, rtol=0, atol=1e-15)


def test_zero_gradient_rows_stay_put():
    # every row of the zero matrix, and vertex 2 of the second operator
    # (isolated: only a diagonal entry, no rank-one part), has an exactly zero
    # gradient at every step, so each keeps its normalised initial row
    cases = ((MatrixOperator.from_dense(np.zeros((3, 3))), [0, 1, 2]),
             (MatrixOperator(4, [0, 1, 2, 0], [1, 3, 2, 3], [1.0, -2.0, 4.0, 0.5]), [2]))
    cfg = SolverConfig(seed=0)
    for M, isolated in cases:
        sol = solve_elliptope(M, cfg)
        assert np.max(np.abs(np.linalg.norm(sol.factor, axis=1) - 1.0)) < 1e-12
        S0 = stream(cfg.seed, "sdp-init", 0).standard_normal(sol.factor.shape)
        S0 /= np.linalg.norm(S0, axis=1, keepdims=True)
        assert np.array_equal(sol.factor[isolated], S0[isolated])


def test_mixing_keeps_the_rows_it_does_not_move():
    # vertex 2 is isolated, so no mixed candidate moves its row; at seeds 6
    # and 7 its normalised initial row does not have a norm of exactly 1 in
    # floating point, and normalising it again would change its bits
    M = MatrixOperator(4, [0, 1, 2, 0], [1, 3, 2, 3], [1.0, -2.0, 4.0, 0.5])
    for seed in range(8):
        sol = solve_elliptope(M, SolverConfig(seed=seed))
        S0 = stream(seed, "sdp-init", 0).standard_normal(sol.factor.shape)
        S0 /= np.linalg.norm(S0, axis=1, keepdims=True)
        assert np.array_equal(sol.factor[2], S0[2])


def test_dual_certificate_on_wigner_ensemble():
    # regression bound recorded from pilot runs: relative gap stays below 1e-2
    for seed in range(5):
        M = _wigner(30, 40 + seed)
        sol = solve_elliptope(M, SolverConfig(seed=seed))
        cert = certify_dual(M, sol)
        assert cert.upper_bound >= sol.value - 1e-9
        assert cert.gap <= 1e-2 * abs(sol.value)


def test_dual_certificate_converges_on_detection_instance():
    # the detection-boxes setting below the Kesten-Stigum threshold: both the
    # plain SDP and the aggregated CSDP solve get a converged certificate
    p = ModelParams(n=200, a=5, b=2, rho=0.25, seed=3)
    g, rev = sample_instance(p)
    cfg = SolverConfig(seed=3)
    M = centered_adjacency(g, p.d)
    csol = solve_csdp(M, rev, cfg)
    for op, sol in ((M, solve_elliptope(M, cfg)), (csol.aggregated.op, csol.inner)):
        cert = certify_dual(op, sol)
        assert cert.power_converged
        assert cert.upper_bound >= sol.value
        assert cert.gap <= 1e-2 * abs(sol.value)


def test_dual_certificate_tiny_operators():
    for dense in (np.array([[2.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2))):
        M = MatrixOperator.from_dense(dense)
        sol = solve_elliptope(M, SolverConfig(seed=0))
        cert = certify_dual(M, sol)
        assert cert.power_converged
        assert cert.upper_bound >= sol.value - 1e-9
        assert cert.gap <= 1e-6


def _detection_operators():
    """The SDP and the aggregated CSDP operator of one detection-boxes
    instance (n=200, (5, 2), rho=0.25), the setting of criterion 9."""
    p = ModelParams(n=200, a=5, b=2, rho=0.25, seed=3)
    g, rev = sample_instance(p)
    M = centered_adjacency(g, p.d)
    return M, aggregate(M, rev).op


def _count_certificates(monkeypatch):
    """Values of the solutions a certifier certifies exactly, in call order."""
    values = []
    real = sdp._Certifier.certify

    def counting(self, sol):
        values.append(sol.value)
        return real(self, sol)

    monkeypatch.setattr(sdp._Certifier, "certify", counting)
    return values


def _count_starts(monkeypatch):
    """Keys of the "sdp-init" streams the solver draws."""
    keys = []
    real = sdp.stream

    def counting(seed, *key):
        if key[0] == "sdp-init":
            keys.append(key)
        return real(seed, *key)

    monkeypatch.setattr(sdp, "stream", counting)
    return keys


def test_a_solve_makes_one_start_and_certifies_when_read(monkeypatch):
    # the one start stops on the in-loop check; the exact certificate is
    # computed once, when first read
    starts, values = _count_starts(monkeypatch), _count_certificates(monkeypatch)
    for M in _detection_operators():
        starts.clear()
        values.clear()
        sol = solve_elliptope(M, SolverConfig(seed=3))
        assert starts == [("sdp-init", 0)]
        assert values == []
        cert = sol.certificate
        assert sol.certificate is cert and values == [sol.value]
        ref = certify_dual(M, sol)
        for f in fields(cert):
            assert np.array_equal(getattr(cert, f.name), getattr(ref, f.name))
        assert cert.upper_bound >= sol.value
        assert cert.gap <= CERT_GAP * abs(sol.value)


def test_an_uncertified_solve_makes_one_start_and_is_flagged(monkeypatch):
    # three sweeps leave the gap far above target: no second start runs, and
    # the solve returns its own factor, certified only when read
    starts, values = _count_starts(monkeypatch), _count_certificates(monkeypatch)
    M, _ = _detection_operators()
    for seed in (3, 4):
        starts.clear()
        values.clear()
        sol = solve_elliptope(M, SolverConfig(max_sweeps=3, seed=seed))
        assert starts == [("sdp-init", 0)] and values == []
        ref = float(np.einsum("ij,ik,jk->", M.to_dense(), sol.factor, sol.factor))
        assert abs(sol.value - ref) <= 1e-9 * abs(sol.value)
        assert sol.certificate.gap > CERT_GAP * abs(sol.value)
        assert sol.certificate.gap == sol.certificate.upper_bound - sol.value
        assert values == [sol.value]


def test_a_solve_densifies_the_operator_once(monkeypatch):
    # the solve's in-loop check holds one dense copy of M; reading the
    # certificate afterwards goes through certify_dual, which makes one more
    calls, starts = [], _count_starts(monkeypatch)
    real = MatrixOperator.to_dense

    def counting(self):
        calls.append(self.dim)
        return real(self)

    monkeypatch.setattr(MatrixOperator, "to_dense", counting)
    for n in (200, 600):
        p = ModelParams(n=n, a=5, b=2, rho=0.25, seed=3)
        M = centered_adjacency(sample_instance(p)[0], p.d)
        calls.clear()
        starts.clear()
        sol = solve_elliptope(M, SolverConfig(max_sweeps=3))
        assert starts == [("sdp-init", 0)] and calls == [n]
        assert sol.certificate.gap > CERT_GAP * abs(sol.value)
        assert calls == [n, n]


def _count_rejections(monkeypatch):
    """Calls that clear the mixing's memory, one per rejected candidate."""
    calls = []
    real = sdp._Mixing.reset

    def counting(self):
        calls.append(None)
        real(self)

    monkeypatch.setattr(sdp._Mixing, "reset", counting)
    return calls


def test_rejected_candidates_fall_back_to_the_plain_step(monkeypatch):
    # a candidate below the current value is rejected, and the plain step
    # taken instead: once on [[0, 1], [1, 0]] at seed 1, and once on a random
    # operator with a rank-one part at seed 7
    rng = np.random.default_rng(7)
    randoms = [_random_operator(rng, int(rng.integers(2, 61))) for _ in range(6)]
    cases = ((MatrixOperator.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])), 1),
             (randoms[5], 7))
    resets, starts = _count_rejections(monkeypatch), _count_starts(monkeypatch)
    for M, seed in cases:
        resets.clear()
        starts.clear()
        sol = solve_elliptope(M, SolverConfig(seed=seed))
        assert resets and starts == [("sdp-init", 0)]
        assert np.allclose(np.linalg.norm(sol.factor, axis=1), 1.0, rtol=0, atol=1e-12)
        assert not _drops(sol.objective_history).any()
        assert sol.objective_history[-1] == sol.value
        assert sol.certificate.gap <= CERT_GAP * max(1.0, abs(sol.value))
    assert randoms[5].rank1[1] != 0


def test_mixing_halves_the_sweeps_on_detection_operators():
    # the plain ascent took 195 and 99 sweeps on these operators at solver
    # seeds 0 and 1, where the mixing takes 35 and 30
    for seed, (M, plain) in enumerate(zip(_detection_operators(), (195, 99))):
        sol = solve_elliptope(M, SolverConfig(seed=seed))
        assert sol.converged and sol.sweeps_used <= plain / 2
        assert sol.certificate.gap <= CERT_GAP * abs(sol.value)


def _random_operator(rng, n):
    """A sparse symmetric part, diagonal included, and half the time a
    rank-one part."""
    upper = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3))
    r, c = np.nonzero(upper)
    rank1 = (rng.standard_normal(n), float(rng.standard_normal())) if rng.random() < 0.5 else None
    return MatrixOperator(n, r, c, upper[r, c], rank1=rank1)


def _dense_by_products(M):
    """The dense matrix through M.offdiag_product and diagonal(), not to_dense."""
    return M.offdiag_product(np.vstack([np.eye(M.dim), np.zeros(M.dim)])) + np.diag(M.diagonal())


def test_dense_certificate_is_exact_on_small_operators():
    rng = np.random.default_rng(2024)
    for trial in range(300):
        M = _random_operator(rng, int(rng.integers(1, 13)))
        sol = solve_elliptope(M, SolverConfig(seed=trial))
        cert = sol.certificate
        dense = _dense_by_products(M)
        scale = max(1.0, float(np.abs(dense).sum()))
        exact = float(np.linalg.eigvalsh(np.diag(cert.y) - dense)[0])
        assert cert.power_converged
        assert abs(cert.lambda_min - exact) <= 1e-12 * scale
        assert cert.upper_bound >= sol.value - 1e-12 * scale


def test_lanczos_certificate_agrees_with_dense(monkeypatch):
    # every solve below DENSE_CERT_MAX takes the dense path; a zero cutoff
    # sends the same solutions through Lanczos, above ARPACK's 40 vectors too
    rng = np.random.default_rng(7)
    ops = list(_detection_operators())
    ops += [_random_operator(rng, int(rng.integers(2, 61))) for _ in range(60)]
    sols = [solve_elliptope(M, SolverConfig(seed=i)) for i, M in enumerate(ops)]
    denses = [sol.certificate for sol in sols]  # read before the cutoff moves
    monkeypatch.setattr(sdp, "DENSE_CERT_MAX", 0)
    for M, sol, dense in zip(ops, sols, denses):
        lanczos = certify_dual(M, sol)
        assert lanczos.power_converged
        assert abs(lanczos.lambda_min - dense.lambda_min) <= 1e-5 * max(1.0, abs(dense.lambda_min))
        assert lanczos.upper_bound >= sol.value - 1e-9 * max(1.0, abs(sol.value))


def test_lanczos_certificate_bounds_lambda_min_from_below(monkeypatch):
    # above DENSE_CERT_MAX lambda_min is ARPACK's Ritz value theta less its
    # residual; at a tolerance this loose theta lies measurably above the
    # lowest eigenvalue, and only the residual keeps the bound below it
    ops = _detection_operators()
    sols = [solve_elliptope(M, SolverConfig(seed=i)) for i, M in enumerate(ops)]
    monkeypatch.setattr(sdp, "DENSE_CERT_MAX", 0)
    monkeypatch.setattr(sdp, "LANCZOS_TOL", 1e-2)
    for M, sol in zip(ops, sols):
        cert = certify_dual(M, sol)
        exact = float(np.linalg.eigvalsh(np.diag(cert.y) - _dense_by_products(M))[0])
        assert cert.power_converged
        assert cert.lambda_min <= exact


def test_unconverged_lanczos_still_bounds_lambda_min(monkeypatch):
    # when ARPACK gives up, theta - res of a stale Ritz vector (or of the
    # start) need not bound the lowest eigenvalue; the bound falls back to
    # Gershgorin's, flagged unconverged, with no Ritz vector or a poor one
    import scipy.sparse.linalg

    ops = _detection_operators()
    sols = [solve_elliptope(M, SolverConfig(seed=0)) for M in ops]
    denses = [sol.certificate for sol in sols]  # read before the cutoff moves
    monkeypatch.setattr(sdp, "DENSE_CERT_MAX", 0)
    for M, sol, dense in zip(ops, sols, denses):
        for vecs in (np.empty((M.dim, 0)), np.ones((M.dim, 1))):
            def stalled(*args, vecs=vecs, **kwargs):
                raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.empty(0), vecs)

            monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
            cert = certify_dual(M, sol)
            assert not cert.power_converged
            assert cert.lambda_min <= dense.lambda_min
            assert cert.upper_bound >= dense.upper_bound


@settings(max_examples=300)
@given(st.data())
def test_cholesky_check_passes_only_within_the_exact_gap(data):
    # on small operators, with and without a rank-one part, and unit factors
    # moved by up to 40 ascent steps towards the optimum (so that the check
    # meets gaps on both sides of the target): a check the solver would run
    # passes only where certify_dual's exact gap is within the target
    n = data.draw(st.integers(1, 8))
    index = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(index, index, st.floats(-10, 10)), max_size=3 * n))
    rows, cols, weights = (np.array(v) for v in zip(*pairs)) if pairs else ([], [], [])
    rank1 = None
    if data.draw(st.booleans()):
        u = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n)))
        rank1 = (u, data.draw(st.floats(-1, 1)))
    M = MatrixOperator(n, rows, cols, weights, rank1=rank1)
    k = data.draw(st.integers(1, 4))
    S = stream(data.draw(st.integers(0, 2**16)), "check-test").standard_normal((n, k))
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    lam = M.offdiag_radii()
    for _ in range(data.draw(st.integers(0, 40))):
        G = _gradient(M, S)
        sdp._ascent_step(S, G, np.einsum("ij,ij->i", S, G), lam)
    G = _gradient(M, S)
    g, t = np.linalg.norm(G, axis=1), np.einsum("ij,ij->i", S, G)
    value = float(t.sum() + M.diagonal().sum())
    budget = 10 ** data.draw(st.floats(-6, 0)) * max(1.0, abs(value))
    slack = budget - float((g - t).sum())
    if slack >= budget / 2 and sdp._Certifier(M).check(g, slack):
        y = g + M.diagonal()
        lambda_min = float(np.linalg.eigvalsh(np.diag(y) - _dense_by_products(M))[0])
        gap = y.sum() - n * min(0.0, lambda_min) - value
        _steer(gap / budget)
        assert gap <= budget


def _record_checks(monkeypatch):
    """Results of the solver's in-loop checks, in call order."""
    results = []
    real = sdp._Certifier.check

    def recording(self, *args):
        results.append(real(self, *args))
        return results[-1]

    monkeypatch.setattr(sdp._Certifier, "check", recording)
    return results


def _solve_all(ops, cfg, checks):
    """Solves of ``ops`` at solver seeds 0, 1, ..., and for each whether it
    stopped on the in-loop check (the last check it ran passed)."""
    sols, stopped = [], []
    for i, M in enumerate(ops):
        checks.clear()
        sols.append(solve_elliptope(M, replace(cfg, seed=i)))
        stopped.append(bool(checks) and checks[-1])
    return sols, stopped


def test_certified_stop_is_within_target(monkeypatch):
    # every solve that stops on the in-loop check is certified exactly
    # within the target; the two detection operators and
    # most random ones stop that way
    rng = np.random.default_rng(7)
    ops = list(_detection_operators())
    ops += [_random_operator(rng, int(rng.integers(2, 61))) for _ in range(60)]
    sols, stopped = _solve_all(ops, SolverConfig(), _record_checks(monkeypatch))
    assert stopped[:2] == [True, True] and sum(stopped) >= 50
    for sol, checked in zip(sols, stopped):
        if checked:
            assert sol.converged
            assert sol.certificate.power_converged
            assert sol.certificate.gap <= CERT_GAP * max(1.0, abs(sol.value))


def test_certified_stop_saves_sweeps(monkeypatch):
    # without the in-loop check (a zero dense cutoff) the detection solves
    # run to the stall, which takes at least 1.5x the sweeps
    ops, checks = _detection_operators(), _record_checks(monkeypatch)
    checked, stopped = _solve_all(ops, SolverConfig(), checks)
    monkeypatch.setattr(sdp, "DENSE_CERT_MAX", 0)
    stalled, none = _solve_all(ops, SolverConfig(), checks)
    assert stopped == [True, True] and none == [False, False]
    for a, b in zip(checked, stalled):
        assert b.converged and b.sweeps_used >= 1.5 * a.sweeps_used
        assert abs(a.value - b.value) <= CERT_GAP * abs(b.value)


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.sparse.linalg (only certify_dual needs it) added 0.15 s and 8.5 MB
    # to `import ssbm` when measured, past the benchmark's 25% setup_s and 5%
    # peak_rss_mb bounds; scipy.sparse.csgraph costs the same kind of load,
    # and scipy.linalg about 7 MB.  The solves, whose in-loop check runs at
    # n = 40, must not load them either.
    code = ("import sys, ssbm\n"
            "p = ssbm.ModelParams(n=40, a=8, b=2, rho=0.25, seed=1)\n"
            "g, rev = ssbm.sample_instance(p)\n"
            "cfg = ssbm.SolverConfig()\n"
            "M = ssbm.centered_adjacency(g, p.d)\n"
            "ssbm.solve_elliptope(M, cfg)\n"
            "ssbm.solve_csdp(M, rev, cfg)\n"
            "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg',"
            " 'scipy.sparse.csgraph') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_import_and_a_config_leave_numpy_random_unloaded():
    # the return annotation of rng.stream, np.random.Generator, was evaluated
    # at import and loaded numpy.random and hashlib: 6.3 MB of the RSS after
    # `import ssbm` (35.8 against 29.5 MB) when measured; a sweep's first
    # draw loads them
    config = ('{"kind": "census-sweep", "out_dir": "out", "params": '
              '{"n": [200], "a": [5.0], "b": [2.0], "rho": [0.1]}}')
    code = ("import sys, ssbm\n"
            "ssbm.ExperimentConfig.from_json(sys.argv[1])\n"
            "print([m for m in ('numpy.random', 'hashlib', 'scipy') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, config], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("t", [1, 2])
def test_census_sweep_loads_neither_scipy_nor_a_process_pool(tmp_path, t):
    # `import scipy.sparse` was 0.12 s of a 0.27 s `import ssbm` and 13 MB of
    # a t = 2 census sweep's peak RSS when measured, and no census builds a
    # CSR matrix; a sweep at workers = 1 starts no pool.  `numpy.ma`, which
    # `np.percentile` and `np.unique` import, was about 1.1 MB of the census
    # benchmarks' peak RSS, loaded for the summary quartiles.  The solve
    # afterwards shows the import is deferred to the first CSR build, not lost.
    code = ("import sys, ssbm\n"
            "cfg = ssbm.ExperimentConfig(kind='census-sweep', n=(200,), a=(5.0,), b=(2.0,),\n"
            "    rho=(0.1, 0.5), reps=2, out_dir=sys.argv[1],\n"
            f"    seed=3, t={t}, workers=1)\n"
            "ssbm.run_sweep(cfg)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m.split('.')[:2] == ['numpy', 'ma']\n"
            "             or m == 'concurrent.futures.process'))\n"
            "p = ssbm.ModelParams(n=40, a=8, b=2, seed=1)\n"
            "g, rev = ssbm.sample_instance(p)\n"
            "ssbm.solve_elliptope(ssbm.centered_adjacency(g, p.d), ssbm.SolverConfig())\n"
            "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split("\n")[:2] == ["[]", "True"]


@pytest.mark.parametrize("t", [1, 2])
def test_census_cli_loads_no_scipy(t):
    code = ("import contextlib, io, sys\n"
            "from ssbm.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['census', '--n', '400', '--a', '5', '--b', '2', '--rho', '0.3',"
            f" '--seed', '2', '--t', '{t}'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "0 []"


def test_round_leading_eigvec_conventions():
    x = np.random.default_rng(3).choice([-1.0, 1.0], size=30)
    x[0] = 1.0
    base = np.zeros((30, 5))
    base[:, 0] = x
    sol = solve_elliptope(MatrixOperator.from_dense(np.outer(x, x)),
                          SolverConfig(seed=0))
    est = round_leading_eigvec(sol)
    assert np.array_equal(est, x.astype(np.int8))  # first coordinate positive
    # degenerate X = I: output is a valid +-1 vector, deterministic
    eye_sol = solve_elliptope(MatrixOperator.from_dense(np.eye(6)), SolverConfig(seed=1))
    est1 = round_leading_eigvec(eye_sol)
    est2 = round_leading_eigvec(eye_sol)
    assert set(np.unique(est1)) <= {-1, 1}
    assert np.array_equal(est1, est2)
    # a zero factor has no leading direction
    zero = replace(eye_sol, factor=np.zeros_like(eye_sol.factor))
    with pytest.raises(ValueError, match="zero factor cannot be rounded"):
        round_leading_eigvec(zero)


def test_rounding_recovers_plant_in_easy_regime():
    # mean overlap across seeds; single instances fluctuate well below it
    overlaps = []
    for s in range(6):
        g, _ = sample_instance(ModelParams(n=1000, a=12, b=5, seed=s))
        sol = solve_elliptope(centered_adjacency(g, 8.5), SolverConfig(seed=s))
        est = round_leading_eigvec(sol)
        overlaps.append(abs(int(est.astype(int) @ g.labels.values.astype(int))) / 1000)
    assert float(np.mean(overlaps)) > 0.5


def test_solution_json():
    # the report `ssbm sdp` and `ssbm csdp` give of a solve is plain JSON
    sol = solve_elliptope(MatrixOperator.from_dense(np.eye(3)), SolverConfig(seed=0))
    payload = json.loads(json.dumps(_solution_payload(sol)))
    assert payload == {"value": sol.value, "sweeps": sol.sweeps_used,
                       "converged": sol.converged,
                       "certified_rel_gap": sol.certificate.gap / max(1.0, abs(sol.value))}


def test_cut_norm_exact_small_cases():
    assert cut_norm_exact(np.zeros((3, 3))) == 0.0
    assert cut_norm_exact(np.ones((5, 5))) == 25.0
    assert cut_norm_exact(np.diag([1.0, -1.0])) == 2.0
    with pytest.raises(ValueError):
        cut_norm_exact(np.zeros((21, 21)))


def test_cut_norm_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        best = 0.0
        for s_bits in range(2 ** n):
            s = np.array([1 if (s_bits >> i) & 1 else -1 for i in range(n)])
            for t_bits in range(2 ** n):
                t = np.array([1 if (t_bits >> i) & 1 else -1 for i in range(n)])
                best = max(best, float(s @ M @ t))
        assert abs(cut_norm_exact(M) - best) < 1e-10


def test_grothendieck_trivial_and_spike():
    rep = grothendieck_check(np.zeros((4, 4)))
    assert rep.passed and math.isnan(rep.ratio)
    x = np.random.default_rng(1).choice([-1.0, 1.0], size=6)
    rep = grothendieck_check(np.outer(x, x))
    assert rep.passed
    assert abs(rep.sdp_value - 36.0) < 1e-3
    assert rep.cut_norm == 36.0
    assert abs(rep.ratio - 1.0) < 1e-4


def test_grothendieck_random_sign_matrices():
    rng = np.random.default_rng(42)
    for trial in range(15):
        M = rng.choice([-1.0, 1.0], size=(10, 10))
        M = np.triu(M) + np.triu(M, 1).T
        rep = grothendieck_check(M, SolverConfig(seed=trial))
        assert rep.passed
        assert rep.ratio <= GROTHENDIECK_BOUND + 1e-9


def test_cut_norm_concentration_trial():
    rep = cut_norm_concentration_trial(12, 3.0, 50, seed=0)
    assert rep.bound == 288.0
    assert rep.violations == 0
    assert rep.max_norm <= 60.0  # regression level, far under the bound
    zero = cut_norm_concentration_trial(10, 0.0, 3, seed=0)
    assert zero.max_norm == 0.0
    with pytest.raises(ValueError):
        cut_norm_concentration_trial(25, 3.0, 1)
