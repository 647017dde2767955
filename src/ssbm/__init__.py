"""Semi-supervised community detection on the planted bisection model.

Generate two-community random graphs with partially revealed labels, recover
the hidden bisection with the census estimator or a constrained elliptope
SDP, test for community structure below the Kesten-Stigum threshold, and
drive seeded Monte Carlo sweeps from the CLI (``ssbm --help``).
"""

import os

# One BLAS thread per process unless the caller set one: BLAS fixes its thread
# count when numpy loads, so this must run before any submodule imports it, and
# a sweep's worker processes (spawned, so they inherit this environment) already
# share out the CPUs; a second BLAS thread only spins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .census import (EstimateReport, census_estimate, overlap_lower_curve,
                     predict_accuracy_erf)
from .csdp import (AggregatedOperator, CsdpSolution, SandwichReport, TestOutcome,
                   aggregate, detection_test, estimate_unrevealed,
                   sandwich_check, solve_csdp)
from .harness import (ExperimentConfig, ResultRecord, best_threshold_accuracy,
                      run_sweep, summarize)
from .model import (Graph, Labels, MatrixOperator, ModelParams, RevealedLabels,
                    centered_adjacency, sample_instance, snr, write_instance)
from .sdp import (DualCertificate, NumericError, SdpSolution, SolverConfig,
                  certify_dual, round_leading_eigvec, solve_elliptope)

__version__ = "0.1.0"

__all__ = [
    "AggregatedOperator", "CsdpSolution", "DualCertificate", "EstimateReport",
    "ExperimentConfig", "Graph", "Labels", "MatrixOperator", "ModelParams",
    "NumericError", "ResultRecord", "RevealedLabels", "SandwichReport",
    "SdpSolution", "SolverConfig", "TestOutcome", "aggregate",
    "best_threshold_accuracy", "census_estimate", "centered_adjacency",
    "certify_dual", "detection_test", "estimate_unrevealed",
    "overlap_lower_curve", "predict_accuracy_erf",
    "round_leading_eigvec", "run_sweep", "sample_instance", "sandwich_check",
    "snr", "solve_csdp", "solve_elliptope", "summarize", "write_instance",
]
