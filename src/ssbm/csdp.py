"""Constrained SDP via the aggregation reduction.

Pinning X_ij = x_i x_j on revealed pairs collapses all revealed rows/columns,
signed by their labels, into one margin row: the constrained program on an
n x n matrix equals the plain elliptope SDP of the (n-m+1) x (n-m+1)
aggregated matrix P^T M P, for the signed assignment P that folds the
revealed vertices into index 0.  This module builds that matrix through
``MatrixOperator.congruence`` (which keeps the sparse + rank-one
structure), solves it, reads label estimates off the factor, and implements
the detection test and the sandwich diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .census import EstimateReport, _vote_report
from .model import Labels, MatrixOperator, RevealedLabels
from .sdp import SdpSolution, SolverConfig, round_leading_eigvec, solve_elliptope


@dataclass(frozen=True)
class AggregatedOperator:
    """The reduced matrix: index 0 is the aggregated revealed margin, and
    row j+1 is the unrevealed vertex ``rev.unrevealed_set[j]`` of the reveal
    it was aggregated on (sorted order)."""

    op: MatrixOperator

    @property
    def margin00(self) -> float:
        """The (0,0) entry sum_{i,j in R} M_ij x_i x_j."""
        return float(self.op.diagonal()[0])


@dataclass(frozen=True)
class CsdpSolution:
    """Constrained optimum: the inner solve on the aggregated matrix (None
    when nothing is revealed, and the inner solve is of M itself).  Row 0 of
    its factor is sigma0, the common direction of all revealed +1 vertices."""

    inner: SdpSolution
    aggregated: AggregatedOperator | None

    @property
    def value(self) -> float:
        return self.inner.value

    @property
    def margin00(self) -> float:
        """The aggregated margin entry, 0.0 when nothing is revealed."""
        return self.aggregated.margin00 if self.aggregated is not None else 0.0


@dataclass(frozen=True)
class TestOutcome:
    """Decision of the CSDP detection test: flag community structure when the
    statistic reaches the threshold n ((a-b)/2 - delta), delta the paper's (a-b)/40."""

    threshold: float
    decision: int
    rho0: float


def aggregate(M: MatrixOperator, rev: RevealedLabels) -> AggregatedOperator:
    """Collapse revealed rows/columns of M, signed by revealed labels.

    This is the congruence P^T M P (:meth:`MatrixOperator.congruence`) for the
    assignment P that sends every revealed vertex i to index 0 with sign x_i
    and the unrevealed vertices, ``rev.unrevealed_set`` in its sorted order,
    to indices 1..n-m.  So the reduction is exact entrywise, and a rank-one
    part c u u^T maps to c v v^T with v = (sum_{i in R} x_i u_i, u
    restricted to unrevealed vertices).  The reveal is balanced (sum of
    revealed labels zero), which ``RevealedLabels`` guarantees; that is what
    cancels the all-ones rank-one part out of the margin row for centered
    adjacency input.
    """
    if M.dim != rev.n:
        raise ValueError("operator and reveal dimensions differ")
    unrev = rev.unrevealed_set
    col = np.zeros(M.dim, dtype=np.int64)
    col[unrev] = 1 + np.arange(unrev.size)
    op = M.congruence(col, np.where(rev.values == 0, 1, rev.values), unrev.size + 1)
    return AggregatedOperator(op=op)


def solve_csdp(
    M: MatrixOperator, rev: RevealedLabels, cfg: SolverConfig | None = None
) -> CsdpSolution:
    """CSDP of M (the centered adjacency, in the paper), solved as SDP of the
    aggregated matrix.

    With nothing revealed this is exactly the unsupervised solve (M is passed
    through, so results match sdp bit for bit).
    """
    if rev.m == 0:
        return CsdpSolution(inner=solve_elliptope(M, cfg), aggregated=None)
    agg = aggregate(M, rev)
    return CsdpSolution(inner=solve_elliptope(agg.op, cfg), aggregated=agg)


def estimate_unrevealed(
    sol: CsdpSolution, rev: RevealedLabels, labels: Labels, seed: int = 0
) -> EstimateReport:
    """Labels from the factor: x_hat_j = sign(sigma_0 . sigma_j) for the
    unrevealed vertex ``rev.unrevealed_set[j - 1]``.

    sigma_0, row 0 of the inner factor, is the direction shared by every
    revealed +1 vertex, so the signs are anchored and no global-flip alignment
    is needed.  A zero dot product falls to the fair coin
    ``coin(seed, "csdp-tie", v)`` of the original vertex v, all drawn at once
    as in the census.  With an empty reveal the votes are the unsupervised
    rounding's signs instead, whose overall sign is arbitrary (overlap takes
    the absolute value either way); they are never zero, so no coin is drawn.
    The branches only choose the scores, and one call to the census's vote
    rule labels them, so ValueError on a seed outside [0, 2**64), with or
    without a reveal.
    """
    if sol.aggregated is None:
        scores = round_leading_eigvec(sol.inner)
    else:
        scores = sol.inner.factor[1:] @ sol.inner.factor[0]
    return _vote_report(scores, rev, labels, seed, "csdp-tie")


def detection_test(stat: float, n: int, a: float, b: float) -> TestOutcome:
    """The paper's threshold test for community structure given the model rates.

    Declares a planted bisection (decision 1) iff stat >= n ((a-b)/2 - delta),
    at the paper's margin delta = (a-b)/40.  Also reports rho0, the reveal
    ratio above which the test is proven to work: 1 - (a-b)/(30 (1+d)).
    Raises ValueError unless a > b.
    """
    if not a > b:
        raise ValueError("detection test requires a > b")
    delta = (a - b) / 40.0
    threshold = n * ((a - b) / 2.0 - delta)
    return TestOutcome(threshold=threshold, decision=int(stat >= threshold),
                       rho0=1.0 - (a - b) / (30.0 * (1.0 + 0.5 * (a + b))))


@dataclass(frozen=True)
class SandwichReport:
    """SDP(sub) <= CSDP <= SDP, with the deterministic submatrix bound.

    ``holds`` is the two-sided sandwich up to solver tolerance tau;
    ``margin_nonneg`` marks instances where its lower side is actually
    guaranteed; ``submatrix_ok`` is the unconditional inequality
    SDP(sub) <= CSDP - margin00 + tau.
    """

    lower: float
    mid: float
    upper: float
    margin00: float
    tau: float
    holds: bool
    margin_nonneg: bool
    submatrix_ok: bool


def sandwich_check(
    sdp: SdpSolution, csdp: CsdpSolution, rev: RevealedLabels, d: float,
    cfg: SolverConfig | None = None,
) -> SandwichReport:
    """Audit the inequalities given ``sdp``, the solved SDP of M (``sdp.operator``),
    and ``csdp``, the solved CSDP of M under ``rev``: solve only the SDP of M's
    unrevealed block, so nothing at m = 0 or m = n.  ValueError when ``sdp``
    holds no operator, ``rev`` does not fit M, or ``csdp`` is of another size
    than the CSDP under ``rev``."""
    M = sdp.operator
    if M is None:
        raise ValueError("the SDP solution holds no operator to audit")
    if M.dim != rev.n:
        raise ValueError("operator and reveal dimensions differ")
    if csdp.inner.factor.shape[0] != (rev.n - rev.m + 1 if rev.m else rev.n):
        raise ValueError("the CSDP solution does not fit the reveal")
    lower = (sdp.value if rev.m == 0 else 0.0 if rev.m == rev.n
             else solve_elliptope(M.restrict(rev.unrevealed_set), cfg).value)
    margin00 = csdp.margin00
    tau = 1e-3 * M.dim * math.sqrt(max(d, 1.0))
    return SandwichReport(
        lower=float(lower),
        mid=float(csdp.value),
        upper=float(sdp.value),
        margin00=margin00,
        tau=tau,
        holds=bool(lower - tau <= csdp.value <= sdp.value + tau),
        margin_nonneg=bool(margin00 >= 0.0),
        submatrix_ok=bool(lower <= csdp.value - margin00 + tau),
    )
