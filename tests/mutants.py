"""Hand-made mutants of ``src/ssbm``, each with the semantic tests that kill it.

The digests in ``test_fixed_seed_digests.py`` pin every fixed-seed output, so
they fail on almost any defect; but a change that re-records them on purpose
leaves only the semantic tests to catch a defect it brings in.  Each mutant
here is one exact ``old`` -> ``new`` text replacement in one source file, a
defect with a wrong answer (no mere retuned constant), and names the
non-digest tests expected to fail under it.

``test_mutants.py`` holds the list current in tier-1 (each ``old`` occurs
exactly once in its file, and each named test exists), and its runner,
marked ``slow``, applies each mutant to a copy of the tree and runs the
mutant's named tests there, failing if any mutant survives them:

    PYTHONPATH=src python -m pytest -q -m slow tests/test_mutants.py
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    what: str                # the rule it breaks
    path: str                # the source file, relative to the repository root
    old: str                 # text that occurs exactly once in that file
    new: str                 # its replacement
    tests: tuple[str, ...]   # pytest node ids expected to fail under it


MUTANTS = (
    Mutant("the within-block edge rate, 1.05 a/n", "src/ssbm/model.py",
           "pairs_within, a / n)", "pairs_within, 1.05 * a / n)",
           ("tests/test_model.py::test_edge_counts_match_binomial_moments",
            "tests/test_model.py::test_trivial_instances",
            "tests/test_census.py::test_monte_carlo_matches_exact_dp_accuracy")),
    Mutant("the cross-block edge rate, 1.05 b/n", "src/ssbm/model.py",
           "half * half, b / n)", "half * half, 1.05 * b / n)",
           ("tests/test_model.py::test_edge_counts_match_binomial_moments",
            "tests/test_model.py::test_trivial_instances",
            "tests/test_sdp.py::test_rounding_recovers_plant_in_easy_regime")),
    Mutant("the centring's rank-one coefficient, -d/(n - 1)", "src/ssbm/model.py",
           "rank1=(np.ones(g.n), -d / g.n),", "rank1=(np.ones(g.n), -d / (g.n - 1)),",
           ("tests/test_model.py::test_centered_adjacency_k4",
            "tests/test_csdp.py::test_aggregate_matches_dense_reference_with_rank_one")),
    Mutant("the SNR without its 2, (a - b)^2 / (a + b)", "src/ssbm/model.py",
           "return (a - b) ** 2 / (2.0 * (a + b))", "return (a - b) ** 2 / (a + b)",
           ("tests/test_model.py::test_snr_values",
            "tests/test_census.py::test_predict_accuracy_erf",
            "tests/test_census.py::test_overlap_lower_curve")),
    Mutant("the unconverged Lanczos bound without its Gershgorin cap", "src/ssbm/sdp.py",
           "return min(theta - res, float((shift - M.offdiag_radii()).min())), False",
           "return theta - res, False",
           ("tests/test_sdp.py::test_unconverged_lanczos_still_bounds_lambda_min",)),
    Mutant("the converged Lanczos bound theta, not theta - res", "src/ssbm/sdp.py",
           "return theta - res, True", "return theta, True",
           ("tests/test_sdp.py::test_lanczos_certificate_bounds_lambda_min_from_below",)),
    Mutant("the in-loop Cholesky shift 1.9 slack, not 0.9 slack", "src/ssbm/sdp.py",
           "= g + 0.9 * slack / len(g)", "= g + 1.9 * slack / len(g)",
           ("tests/test_sdp.py::test_certified_stop_is_within_target",
            "tests/test_sdp.py::test_a_solve_makes_one_start_and_certifies_when_read")),
    Mutant("the CSDP's tie coins on the census's stream", "src/ssbm/csdp.py",
           '_vote_report(scores, rev, labels, seed, "csdp-tie")',
           '_vote_report(scores, rev, labels, seed, "census-tie")',
           ("tests/test_csdp.py::test_estimate_orthogonal_factor_resolves_by_coin",)),
    Mutant("the CSDP's anchor sigma_0 negated", "src/ssbm/csdp.py",
           "scores = sol.inner.factor[1:] @ sol.inner.factor[0]",
           "scores = sol.inner.factor[1:] @ -sol.inner.factor[0]",
           ("tests/test_csdp.py::test_estimate_aligned_factor_gives_overlap_one",)),
    Mutant("the shared vote rule's sign negated", "src/ssbm/census.py",
           "signs = np.sign(scores).astype(np.int8)", "signs = -np.sign(scores).astype(np.int8)",
           ("tests/test_census.py::test_estimate_trivial_overlaps",
            "tests/test_census.py::test_census_ties_match_scalar_coin_loop",
            "tests/test_csdp.py::test_estimate_aligned_factor_gives_overlap_one")),
    Mutant("the census search without its back-step exclusion", "src/ssbm/census.py",
           "last, excl = s == t - 1, (prev, shell)", "last, excl = s == t - 1, (shell,)",
           ("tests/test_census.py::test_margins_at_depth_uses_exact_distance",
            "tests/test_census.py::test_margins_at_depth_over_rows_match_distances",
            "tests/test_census.py::test_margins_at_depth_in_row_blocks_match_distances")),
    Mutant("the detection test's rho0 constant 20, not 30", "src/ssbm/csdp.py",
           "(30.0 * (1.0 + 0.5 * (a + b)))", "(20.0 * (1.0 + 0.5 * (a + b)))",
           ("tests/test_csdp.py::test_detection_test_paper_constants",
            "tests/test_harness.py::test_detection_sweep_shape")),
    Mutant("the summary's standard error with ddof = 0", "src/ssbm/harness.py",
           "arr.std(ddof=1)", "arr.std(ddof=0)",
           ("tests/test_harness.py::test_summarize_conventions",)),
    Mutant("the sandwich verdict without its CSDP <= SDP + tau side", "src/ssbm/csdp.py",
           "holds=bool(lower - tau <= csdp.value <= sdp.value + tau),",
           "holds=bool(lower - tau <= csdp.value),",
           ("tests/test_csdp.py::test_sandwich_holds_fails_when_the_csdp_exceeds_the_sdp",)),
    Mutant("the submatrix bound without margin00", "src/ssbm/csdp.py",
           "submatrix_ok=bool(lower <= csdp.value - margin00 + tau),",
           "submatrix_ok=bool(lower <= csdp.value + tau),",
           ("tests/test_csdp.py::test_sandwich_submatrix_bound_fails_when_margin00_carries_the_breach",)),
    Mutant("best-threshold accuracy without its declare-nothing floor", "src/ssbm/harness.py",
           "return max(int(hits.max()), neg.size) / (pos.size + neg.size)",
           "return int(hits.max()) / (pos.size + neg.size)",
           ("tests/test_harness.py::test_best_threshold_accuracy",)),
)
