"""Exact reference oracles that the tests and acceptance criteria check against.

None of these is on a path the package runs: each recomputes, by exact
enumeration or a dynamic program, a quantity the paper bounds or an identity
the estimators rely on.

- Binomial gap: the closed-form constant (a - b) / (2 e^{a+b}) of
  :func:`delta_gap`, the exact gap P(X > Y) - P(X < Y) by a pmf convolution
  (:func:`binomial_gap_oracle`), the exact accuracy of one signed vote and
  the t = 1 census success bound.
- Cut norm: the infinity-to-one norm by enumeration (dim <= 20), the
  Grothendieck check SDP <= 1.783 ||M||_{inf->1}, and the concentration
  trial ||A - E A||_{inf->1} <= 6 (1 + d) n on Erdos-Renyi graphs.
- Aggregation: the aggregated matrix built by plain loops from its defining
  equations, the independent check of ``ssbm.csdp.aggregate``.

The tests import it as ``from oracles import ...``: ``tests/`` has no
``__init__.py``, so pytest puts it on ``sys.path``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ssbm import MatrixOperator, SolverConfig, solve_elliptope
from ssbm.rng import stream

# ------------------------------------------------------------ binomial gap --


def delta_gap(a: float, b: float) -> float:
    """The constant (a - b) / (2 e^{a+b}) bounding the binomial sign gap.

    For X ~ Bin(N, a/N) and Y ~ Bin(N, b/N) independent with a > b, the gap
    P(X > Y) - P(X < Y) stays above this value for all large N.
    """
    if not (0 <= b <= a):
        raise ValueError(f"rates must satisfy a >= b >= 0, got a={a}, b={b}")
    return (a - b) / (2.0 * math.exp(a + b))


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) pmf by the multiplicative recurrence, truncated once the
    remaining upper-tail mass drops below 1e-16."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"invalid probability {p}")
    if p == 0.0 or n == 0:
        return np.array([1.0])
    if p == 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    q = 1.0 - p
    ratio = p / q
    terms = [q ** n]
    if terms[0] == 0.0:
        raise ValueError("pmf underflow: mean n*p too large for the recurrence")
    cum = terms[0]
    k = 0
    mean = n * p
    while k < n and (cum < 1.0 - 1e-16 or k < mean + 2):
        terms.append(terms[-1] * ((n - k) / (k + 1.0)) * ratio)
        k += 1
        cum += terms[-1]
    return np.asarray(terms)


def binomial_difference_stats(
    nx: int, px: float, ny: int, py: float
) -> tuple[float, float, float]:
    """(P(X > Y), P(X = Y), P(X < Y)) for independent X ~ Bin(nx, px) and
    Y ~ Bin(ny, py), exact up to truncated tail mass < 1e-12."""
    fx = binomial_pmf(nx, px)
    fy = binomial_pmf(ny, py)
    k = max(fx.size, fy.size)
    fx = np.pad(fx, (0, k - fx.size))
    fy = np.pad(fy, (0, k - fy.size))
    p_eq = float(fx @ fy)
    p_less = float(fy[1:] @ np.cumsum(fx)[:-1])  # sum_y P(Y=y) P(X <= y-1)
    p_greater = float(fx[1:] @ np.cumsum(fy)[:-1])
    return p_greater, p_eq, p_less


def binomial_gap_oracle(trials: int, a: float, b: float) -> float:
    """Exact P(X > Y) - P(X < Y) for X ~ Bin(trials, a/trials),
    Y ~ Bin(trials, b/trials); the independent check of :func:`delta_gap`."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if a / trials > 1 or b / trials > 1 or a < 0 or b < 0:
        raise ValueError("a/trials and b/trials must be valid probabilities")
    p_greater, _, p_less = binomial_difference_stats(trials, a / trials, trials, b / trials)
    return p_greater - p_less


def vote_accuracy_exact(k_same: int, k_cross: int, pa: float, pb: float) -> float:
    """Exact probability that a signed vote recovers the vertex label.

    The margin is Bin(k_same, pa) - Bin(k_cross, pb); ties recover with
    probability 1/2 (the fair coin).
    """
    p_greater, p_eq, _ = binomial_difference_stats(k_same, pa, k_cross, pb)
    return p_greater + 0.5 * p_eq


def census_success_bound(a: float, b: float, rho: float, n: int) -> tuple[float, float]:
    """Guaranteed overlap threshold and success probability of the t=1 census.

    Returns (delta/2, 1 - exp(-delta^2 (1-rho) n / 8)) with the rescaled
    constant delta = rho (a-b) / (2 e^{rho (a+b)}): the overlap exceeds the
    threshold with at least the returned probability.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    delta = delta_gap(rho * a, rho * b)
    return delta / 2.0, 1.0 - math.exp(-(delta ** 2) * (1.0 - rho) * n / 8.0)


# ---------------------------------------------------------------- cut norm --


def cut_norm_exact(M) -> float:
    """Exact infinity-to-one norm max_{s,t in {+-1}^n} s^T M t, for dim <= 20.

    Enumerates the 2^(n-1) sign vectors s (global flip is free); the inner
    maximum over t is the closed form sum_j |(M^T s)_j|.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    rows, _ = M.shape
    if max(M.shape) > 20:
        raise ValueError("exact cut norm enumeration is limited to dim <= 20")
    if rows == 0 or M.size == 0:
        return 0.0
    free = rows - 1
    best = 0.0
    total = 1 << free
    step = 1 << min(14, free)  # sign vectors scored per batch
    bit_cols = np.arange(free, dtype=np.uint32)
    for start in range(0, total, step):
        codes = np.arange(start, min(start + step, total), dtype=np.uint32)
        signs = np.empty((codes.size, rows))
        signs[:, 0] = 1.0
        signs[:, 1:] = 1.0 - 2.0 * ((codes[:, None] >> bit_cols) & 1)
        vals = np.abs(signs @ M).sum(axis=1)
        best = max(best, float(vals.max()))
    return best


GROTHENDIECK_BOUND = 1.783  # just above pi / (2 ln(1 + sqrt 2)) = 1.7822...


@dataclass(frozen=True)
class GrothendieckReport:
    sdp_value: float
    cut_norm: float
    ratio: float
    passed: bool


def grothendieck_check(M, cfg: SolverConfig | None = None) -> GrothendieckReport:
    """Check SDP(M) <= 1.783 * ||M||_{inf->1} + 1e-6 on a small dense matrix."""
    M = np.asarray(M, dtype=np.float64)
    if max(M.shape) > 20:
        raise ValueError("grothendieck check is limited to dim <= 20")
    cut = cut_norm_exact(M)
    sol = solve_elliptope(MatrixOperator.from_dense(M), cfg or SolverConfig())
    ratio = sol.value / cut if cut > 0 else float("nan")
    return GrothendieckReport(
        sdp_value=sol.value,
        cut_norm=cut,
        ratio=ratio,
        passed=sol.value <= GROTHENDIECK_BOUND * cut + 1e-6,
    )


@dataclass(frozen=True)
class CutNormTrialReport:
    n: int
    d: float
    samples: int
    bound: float
    max_norm: float
    violations: int


def cut_norm_concentration_trial(
    n: int, d: float, samples: int, seed: int = 0
) -> CutNormTrialReport:
    """Sample Erdos-Renyi G(n, d/n) matrices and test the concentration bound
    ||A - E A||_{inf->1} <= 6 (1 + d) n by exact enumeration (n <= 20)."""
    if n > 20:
        raise ValueError("exact trial is limited to n <= 20")
    p = d / n
    if not (0.0 <= p <= 1.0):
        raise ValueError("d/n must be a valid probability")
    expected = p * (np.ones((n, n)) - np.eye(n))
    bound = 6.0 * (1.0 + d) * n
    max_norm = 0.0
    violations = 0
    for s in range(samples):
        rng = stream(seed, "cutnorm-trial", s)
        upper = np.triu(rng.random((n, n)) < p, k=1)
        A = (upper | upper.T).astype(np.float64)
        norm = cut_norm_exact(A - expected)
        max_norm = max(max_norm, norm)
        if norm > bound:
            violations += 1
    return CutNormTrialReport(
        n=n, d=d, samples=samples, bound=bound,
        max_norm=max_norm, violations=violations,
    )


# ------------------------------------------------------------- aggregation --


def aggregate_dense_reference(M: np.ndarray, reveal_values: np.ndarray) -> np.ndarray:
    """Aggregated matrix built directly from its defining equations.

    Independent of :func:`ssbm.csdp.aggregate`: plain loops over a dense M.
    Row/column 0 collects the label-signed revealed entries; the interior is
    M restricted to unrevealed vertices in sorted order.
    """
    M = np.asarray(M, dtype=np.float64)
    x = np.asarray(reveal_values, dtype=np.float64)
    revealed = np.flatnonzero(x != 0)
    unrev = np.flatnonzero(x == 0)
    dim = unrev.size + 1
    out = np.zeros((dim, dim))
    for i in revealed:
        for j in revealed:
            out[0, 0] += M[i, j] * x[i] * x[j]
    for jj, p in enumerate(unrev, start=1):
        s = 0.0
        for i in revealed:
            s += x[i] * M[i, p]
        out[0, jj] = out[jj, 0] = s
    for ii, p in enumerate(unrev, start=1):
        for jj, q in enumerate(unrev, start=1):
            out[ii, jj] = M[p, q]
    return out
