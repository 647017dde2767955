"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy criteria parallelize over 4 workers (the target machine) through the
harness's own sweep machinery.  Master seed 0 everywhere; all Monte Carlo
outcomes are reproducible bit for bit.

A change that redraws graphs (a seed layout, the sampler, a solver change
that moves roundings) re-rolls every statistical gate.  Criteria 1, 10
and 11 print each gate's margin in its own standard errors.  The odds that
a redraw fails a gate with nothing wrong, measured on independent seeds or
from an exact law:

| gate | bound | true value | odds of failing a redraw |
|---|---|---|---|
| criterion 1, rho = 0.3 cell | mean >= 0.2928 - se (se 0.0027) | 0.2950, the exact law | about 3.5% |
| criterion 10, SDP at SNR 0.25 | mean <= 0.05 | 0.0425, sd 0.0063 over seeds 101-108 | about 12% |
| criterion 11, exact DP | abs(empirical - exact) <= 3 sigma | exact, if the sampler is unbiased | 0.27% |
| criterion 9, KS tests | p <= 1e-3 | p 2.4e-6 and 9.9e-30 at seed 0 | not measured |
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ssbm import (ExperimentConfig, MatrixOperator, ModelParams, RevealedLabels,
                  SolverConfig, aggregate, best_threshold_accuracy,
                  centered_adjacency, certify_dual, predict_accuracy_erf,
                  run_sweep, sample_instance, solve_elliptope)
from ssbm.census import margins_at_depth
from ssbm.rng import coin, derive_key, stream

from oracles import (binomial_gap_oracle, cut_norm_concentration_trial, delta_gap,
                     grothendieck_check, overlap_lower_curve, vote_accuracy_exact)

SEED = 0
WORKERS = 4


def _report(num: int, ok: bool, elapsed: float, detail: str) -> None:
    print(f"\nCRITERION {num:>2}: {'PASS' if ok else 'FAIL'} [{elapsed:.0f}s] {detail}")


# -------------------------------------------------------------- criterion 1

def test_criterion_01_census_overlap_above_lower_curve(tmp_path):
    t0 = time.time()
    rhos = tuple(round(0.1 * k, 1) for k in range(1, 11))
    cfg = ExperimentConfig(
        kind="census-sweep", n=(3000,), a=(5.0,), b=(2.0,), rho=rhos,
        reps=60, solver=SolverConfig(), out_dir=str(tmp_path / "c1"),
        seed=SEED, t=1, workers=WORKERS,
    )
    result = run_sweep(cfg)
    failures, details = [], []
    for cell in result.summary["cells"]:
        rho = cell["cell"]["rho"]
        if rho < 0.3:
            continue
        bound = overlap_lower_curve(5, 2, rho)
        stats = None
        for grp in cell["groups"]:
            if grp["algorithm"] == "census-1" and "overlap_unrevealed" in grp:
                stats = grp["overlap_unrevealed"]
        if stats is None:
            # rho = 1.0 leaves no unrevealed vertex: the bound constrains an
            # empty index set and the estimator correctly refuses to run
            assert rho == 1.0 and ModelParams(n=3000, a=5, b=2, rho=rho).m == 3000
            details.append(f"rho={rho}: vacuous (m=n)")
            continue
        ok = stats["mean"] >= bound - stats["stderr"]
        z = (stats["mean"] - bound) / stats["stderr"]
        details.append(f"rho={rho}: mean={stats['mean']:.4f} bound={bound:.4f} "
                       f"se={stats['stderr']:.4f} (mean-bound)/se={z:+.2f}")
        if not ok:
            failures.append(details[-1])
    elapsed = time.time() - t0
    _report(1, not failures and elapsed <= 120, elapsed, "; ".join(details))
    assert not failures, failures
    assert elapsed <= 120


# -------------------------------------------------------------- criterion 2

def test_criterion_02_binomial_gap_lemma():
    t0 = time.time()
    worst = math.inf
    for a in (3, 5, 9):
        for b in (1, 2):
            for trials in (100, 1000, 10000):
                worst = min(worst, binomial_gap_oracle(trials, a, b) - delta_gap(a, b))
    d52 = delta_gap(5, 2)
    # 3 / (2 e^7) = 1.367823e-3 to six significant digits (the quoted
    # 1.3688e-3 is an arithmetic slip of the same closed form; see notes)
    exact_ok = abs(d52 - 1.3678229483e-3) < 5e-10
    elapsed = time.time() - t0
    ok = worst >= 0 and exact_ok and elapsed <= 60
    _report(2, ok, elapsed, f"min(oracle - delta)={worst:.3e}, delta(5,2)={d52:.10f}")
    assert worst >= 0
    assert exact_ok
    assert elapsed <= 60


# -------------------------------------------------------------- criterion 3

def _erm_sdp_ratio(seed: int) -> float:
    g, _ = sample_instance(ModelParams(n=2000, a=5, b=5, seed=seed))
    M = centered_adjacency(g, 5.0)
    sol = solve_elliptope(M, SolverConfig(seed=derive_key(seed, "solver")))
    return sol.value / (2000 * math.sqrt(5.0))


def test_criterion_03_erm_sdp_value_scale():
    t0 = time.time()
    seeds = [derive_key(SEED, "c3", k) for k in range(10)]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        ratios = list(pool.map(_erm_sdp_ratio, seeds))
    elapsed = time.time() - t0
    ok = all(1.6 <= r <= 2.4 for r in ratios) and elapsed <= 300
    _report(3, ok, elapsed, f"value/(n sqrt d) in [{min(ratios):.4f}, {max(ratios):.4f}] over 10 seeds")
    assert all(1.6 <= r <= 2.4 for r in ratios), ratios
    assert elapsed <= 300


# -------------------------------------------------------------- criterion 4

def test_criterion_04_rank_one_analytic_optimum():
    t0 = time.time()
    x = stream(SEED, "c4").choice([-1.0, 1.0], size=50)
    M = MatrixOperator.from_dense(np.outer(x, x))
    sol = solve_elliptope(M, SolverConfig(seed=SEED))
    cert = certify_dual(M, sol)
    elapsed = time.time() - t0
    value_ok = abs(sol.value - 2500.0) <= 1e-3 * 2500.0
    gap_ok = cert.gap <= 1e-3 * 2500.0
    _report(4, value_ok and gap_ok, elapsed,
            f"value={sol.value:.6f} (target 2500), dual gap={cert.gap:.2e}")
    assert value_ok and gap_ok


# -------------------------------------------------------------- criterion 5

def test_criterion_05_grothendieck_bound():
    t0 = time.time()
    rng = stream(SEED, "c5")
    violations = 0
    worst_ratio = 0.0
    for trial in range(50):
        M = rng.choice([-1.0, 1.0], size=(10, 10))
        M = np.triu(M) + np.triu(M, 1).T
        rep = grothendieck_check(M, SolverConfig(seed=trial))
        violations += not rep.passed
        if math.isfinite(rep.ratio):
            worst_ratio = max(worst_ratio, rep.ratio)
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed <= 120
    _report(5, ok, elapsed, f"0 violations target: got {violations}; max sdp/cut={worst_ratio:.4f}")
    assert violations == 0
    assert elapsed <= 120


# -------------------------------------------------------------- criterion 6

def test_criterion_06_cut_norm_concentration():
    t0 = time.time()
    rep = cut_norm_concentration_trial(12, 3.0, 200, seed=SEED)
    elapsed = time.time() - t0
    ok = rep.violations == 0 and rep.bound == 288.0 and elapsed <= 120
    _report(6, ok, elapsed,
            f"max ||A-EA||_cut={rep.max_norm:.1f} <= bound {rep.bound:.0f}, violations={rep.violations}")
    assert rep.violations == 0 and rep.bound == 288.0
    assert elapsed <= 120


# -------------------------------------------------------------- criterion 7

def _solve_constrained_direct(Md, rev, k, seed, max_sweeps=3000, tol=1e-10):
    """Coordinate ascent on the constrained program itself (no aggregation):
    revealed rows stay tied to x_i sigma0 throughout."""
    rng = np.random.default_rng(seed)
    n = Md.shape[0]
    x = rev.values.astype(float)
    R, U = rev.revealed_set, rev.unrevealed_set
    Moff = Md - np.diag(np.diag(Md))
    S = rng.standard_normal((n, k))
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    sigma0 = rng.standard_normal(k)
    sigma0 /= np.linalg.norm(sigma0)
    S[R] = np.outer(x[R], sigma0)
    cross = Md[np.ix_(R, U)]
    prev = float(np.einsum("ij,ik,jk->", Md, S, S))
    for _ in range(max_sweeps):
        g0 = x[R] @ (cross @ S[U])
        nrm = np.linalg.norm(g0)
        if nrm > 0:
            sigma0 = g0 / nrm
            S[R] = np.outer(x[R], sigma0)
        for j in U:
            g = Moff[j] @ S
            nrm = np.linalg.norm(g)
            if nrm > 0:
                S[j] = g / nrm
        cur = float(np.einsum("ij,ik,jk->", Md, S, S))
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            break
        prev = cur
    return cur


def test_criterion_07_embedding_identity_and_solver_agreement():
    t0 = time.time()
    rng = stream(SEED, "c7")
    worst_obj = 0.0
    worst_rel = 0.0
    n, m = 20, 6
    for trial in range(100):
        Md = rng.standard_normal((n, n))
        Md = 0.5 * (Md + Md.T)
        labels = np.array([1] * (n // 2) + [-1] * (n // 2), dtype=np.int8)
        rng.shuffle(labels)
        rv = np.zeros(n, dtype=np.int8)
        rv[np.flatnonzero(labels == 1)[: m // 2]] = 1
        rv[np.flatnonzero(labels == -1)[: m // 2]] = -1
        rev = RevealedLabels(rv)
        agg = aggregate(MatrixOperator.from_dense(Md), rev)
        agg_dense = agg.op.to_dense()
        unrev = rev.unrevealed_set
        # mapped feasible points give identical objectives
        for _ in range(5):
            tau = rng.standard_normal((n - m + 1, 4))
            tau /= np.linalg.norm(tau, axis=1, keepdims=True)
            full = np.empty((n, 4))
            full[rev.revealed_set] = np.outer(rv[rev.revealed_set], tau[0])
            full[unrev] = tau[1:]
            obj_full = float(np.einsum("ij,ik,jk->", Md, full, full))
            obj_agg = float(np.einsum("ij,ik,jk->", agg_dense, tau, tau))
            worst_obj = max(worst_obj, abs(obj_full - obj_agg))
        # the two solved formulations agree on the optimum
        via_agg = solve_elliptope(agg.op, SolverConfig(tol=1e-9, seed=trial)).value
        k = SolverConfig().rank_for(n - m + 1)
        direct = max(_solve_constrained_direct(Md, rev, k, seed=1000 * trial + r)
                     for r in range(3))
        worst_rel = max(worst_rel, abs(via_agg - direct) / max(1.0, abs(via_agg)))
    elapsed = time.time() - t0
    ok = worst_obj <= 1e-9 and worst_rel <= 1e-4
    _report(7, ok, elapsed,
            f"max feasible-point mismatch={worst_obj:.2e}, max solver rel diff={worst_rel:.2e}")
    assert worst_obj <= 1e-9
    assert worst_rel <= 1e-4


# -------------------------------------------------------------- criterion 8

def test_criterion_08_sandwich_and_submatrix(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="sandwich-audit", n=(400,), a=(9.0,), b=(2.0,), rho=(0.3,),
        reps=20, solver=SolverConfig(), out_dir=str(tmp_path / "c8"),
        seed=SEED, workers=WORKERS,
    )
    result = run_sweep(cfg)
    audits = result.summary["sandwich"]
    sub_ok = sum(e["submatrix_ok"] for e in audits)
    applicable = [e for e in audits if e["margin_nonneg"]]
    holds = sum(e["holds"] for e in applicable)
    elapsed = time.time() - t0
    ok = sub_ok == 20 and holds == len(applicable) and len(audits) == 20 and elapsed <= 300
    _report(8, ok, elapsed,
            f"submatrix bound 20/20={sub_ok}/20; sandwich {holds}/{len(applicable)} "
            f"(margin00 >= 0 on {len(applicable)}/20)")
    assert sub_ok == 20
    assert holds == len(applicable)
    assert elapsed <= 300


# -------------------------------------------------------------- criterion 9

# Level of criterion 9's one-sided two-sample Kolmogorov-Smirnov tests: a
# conventional strict level, fixed before measuring.  With identically
# distributed arms each test passes with probability at most C9_ALPHA; at
# 50+50 reps it demands a best-threshold accuracy of at least 0.69.
C9_ALPHA = 1e-3


def test_criterion_09_detection_above_and_below_threshold(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="detection-boxes", n=(200,), a=(9.0, 5.0), b=(2.0,), rho=(0.25,),
        reps=50, solver=SolverConfig(), out_dir=str(tmp_path / "c9"),
        seed=SEED, workers=WORKERS,
    )
    result = run_sweep(cfg)
    acc, pval = {}, {}
    for cell in result.summary["cells"]:
        key = cell["cell"]["a"]
        acc[key] = {alg: cell["detection"][alg]["best_threshold_accuracy"]
                    for alg in ("sdp", "csdp")}
    for key in acc:
        for alg in ("sdp", "csdp"):
            vals = {model: [getattr(r, f"{alg}_value") for r in result.records
                            if r.a == key and r.algorithm == alg and r.truth_model == model]
                    for model in ("sbm", "erm")}
            pval[key, alg] = ks_2samp(vals["sbm"], vals["erm"],
                                      alternative="less", method="exact").pvalue
    elapsed = time.time() - t0
    # The paper's claims are asymptotic: with labels revealed, planted values
    # separate from null values at any (a, b); without labels, only above the
    # Kesten-Stigum threshold SNR = 1 ((5,2) has SNR 9/14, (9,2) has 49/22).
    # At n=200 the values spread with the edge count, so no accuracy near 1
    # is promised, and separation is checked with the one-sided KS test; for
    # equal arms its statistic is 2 (best-threshold accuracy - 1/2).
    # Ground truth, master seeds 1-8 pooled (400+400 reps per cell):
    # configs/detection-boxes.json (n 200, a 9 and 5, b 2, rho 0.25, 50 reps,
    # one start per solve) run by `ssbm sweep --config` with its "seed" set
    # to each of 1-8, and its "out_dir" to c9-seed1, ..., c9-seed8,
    # gives best-threshold accuracies csdp(5,2) 0.811 (p 4e-73), sdp(5,2)
    # 0.524 (p 0.41), sdp(9,2) 0.820 (p 1e-77), csdp(9,2) 0.999, the same with
    # the row-by-row solver, the batch solver, its gradient-aware shift and
    # the certified stop.  With the batch solver every value lies within
    # 0.12% of its certify_dual bound, within 0.087% with the gradient-aware
    # shift, and within 0.090% with the certified stop, which ends a solve
    # once its gap is proven within 0.1% and halves the sweeps (1.05 M to
    # 0.50 M over the 3200 solves); 1.5% with the row-by-row solver and the
    # old certificate, where raising each planted value to its bound lifted
    # csdp(5,2) and sdp(9,2) to no more than 0.828 and 0.821.
    below_csdp = pval[5.0, "csdp"] <= C9_ALPHA
    below_sdp = acc[5.0]["sdp"] <= 0.75
    contrast = acc[5.0]["csdp"] > acc[5.0]["sdp"]
    above_csdp = acc[9.0]["csdp"] >= 0.95
    above_sdp = pval[9.0, "sdp"] <= C9_ALPHA
    ok = below_csdp and below_sdp and contrast and above_csdp and above_sdp and elapsed <= 600
    _report(9, ok, elapsed,
            f"below(5,2): csdp={acc[5.0]['csdp']:.3f} p={pval[5.0, 'csdp']:.2g} "
            f"(p<={C9_ALPHA:g} {below_csdp}), sdp={acc[5.0]['sdp']:.3f} "
            f"p={pval[5.0, 'sdp']:.2g} (<=0.75 {below_sdp}; csdp>sdp {contrast}); "
            f"above(9,2): csdp={acc[9.0]['csdp']:.3f} p={pval[9.0, 'csdp']:.2g} "
            f"(>=0.95 {above_csdp}), sdp={acc[9.0]['sdp']:.3f} "
            f"p={pval[9.0, 'sdp']:.2g} (p<={C9_ALPHA:g} {above_sdp})")
    assert below_sdp and above_csdp, acc
    assert below_csdp, f"csdp_value does not separate at (5,2): p = {pval[5.0, 'csdp']:.3g}"
    assert contrast, f"csdp does not beat sdp at (5,2): {acc[5.0]}"
    assert above_sdp, f"sdp_value does not separate at (9,2): p = {pval[9.0, 'sdp']:.3g}"
    assert elapsed <= 600


# ------------------------------------------------------------- criterion 10

def test_criterion_10_phase_transition_disappears(tmp_path):
    t0 = time.time()
    d = 5.0
    means, ses = {}, {}
    for snr_target in (0.25, 0.5, 0.75):
        gap = 2.0 * math.sqrt(d * snr_target)
        a, b = d + gap / 2.0, d - gap / 2.0
        cfg = ExperimentConfig(
            kind="phase-grid", n=(1000,), a=(a,), b=(b,), rho=(0.2,),
            reps=20, solver=SolverConfig(),
            out_dir=str(tmp_path / f"c10-{snr_target}"), seed=SEED, workers=WORKERS,
        )
        result = run_sweep(cfg)
        cell = result.summary["cells"][0]
        grp = {g["algorithm"]: g for g in cell["groups"]}
        means[snr_target] = {
            "csdp": grp["csdp"]["overlap_unrevealed"]["mean"],
            "sdp": grp["sdp"]["overlap_unrevealed"]["mean"],
        }
        ses[snr_target] = {alg: grp[alg]["overlap_unrevealed"]["stderr"] for alg in ("csdp", "sdp")}
    elapsed = time.time() - t0
    csdp_ok = all(means[s]["csdp"] >= 0.1 for s in means)
    sdp_ok = means[0.25]["sdp"] <= 0.05
    ok = csdp_ok and sdp_ok and elapsed <= 900
    # each gate's margin in its own standard errors
    margins = {s: (means[s]["csdp"] - 0.1) / ses[s]["csdp"] for s in means}
    sdp_margin = (0.05 - means[0.25]["sdp"]) / ses[0.25]["sdp"]
    _report(10, ok, elapsed,
            "; ".join(f"SNR={s}: csdp={means[s]['csdp']:.3f}, sdp={means[s]['sdp']:.3f}, "
                      f"(csdp-0.1)/se={margins[s]:+.2f}" for s in means)
            + f"; (0.05-sdp)/se at SNR=0.25: {sdp_margin:+.2f}")
    assert csdp_ok, means
    assert sdp_ok, means
    assert elapsed <= 900


# ------------------------------------------------------------- criterion 11

def test_criterion_11_erf_prediction_matches_fully_revealed_census():
    t0 = time.time()
    n, a, b = 3000, 5.0, 2.0
    target = 100_000
    graphs = -(-target // n)  # 34 graphs -> 102000 vertex estimates
    per_graph = []
    for gidx in range(graphs):
        seed = derive_key(SEED, "c11", gidx)
        g, _ = sample_instance(ModelParams(n=n, a=a, b=b, rho=0.0, seed=seed))
        margins = margins_at_depth(g, g.labels.values, 1, np.arange(g.n))
        signs = np.sign(margins).astype(np.int8)
        ties = np.flatnonzero(signs == 0)
        for v in ties.tolist():
            signs[v] = coin(seed, "census-tie", v)
        per_graph.append(float(np.mean(signs == g.labels.values)))
    total = graphs * n
    emp = float(np.mean(per_graph))
    pred = predict_accuracy_erf(a, b, 1.0, 1)
    exact = vote_accuracy_exact(n // 2 - 1, n // 2, a / n, b / n)
    # the standard error of a clustered sample: indicators within one graph
    # share edges (at full reveal adjacent margins reuse the joining edge),
    # so the between-graph spread is the valid sigma, not the binomial one
    sigma = float(np.std(per_graph, ddof=1)) / math.sqrt(graphs)
    elapsed = time.time() - t0
    erf_ok = abs(emp - pred) <= 0.03
    dp_ok = abs(emp - exact) <= 3 * sigma
    ok = erf_ok and dp_ok and elapsed <= 120
    _report(11, ok, elapsed,
            f"empirical={emp:.5f} over {total} estimates; erf={pred:.5f} "
            f"(|diff|={abs(emp-pred):.4f} <= 0.03); exact DP={exact:.5f} "
            f"(|diff|={abs(emp-exact):.5f} <= 3 sigma={3*sigma:.5f}, "
            f"(3 sigma-|diff|)/sigma={(3 * sigma - abs(emp - exact)) / sigma:+.2f})")
    assert erf_ok
    assert dp_ok
    assert elapsed <= 120
