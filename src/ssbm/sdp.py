"""Elliptope SDP engine.

Solves max{ <M, X> : X >= 0, X_ii = 1 } through the factorization X = S S^T
with unit-norm rows.  The plain step F moves every row at once to its
normalized shifted gradient: one ``MatrixOperator.offdiag_product``, the
operator's one product with its off-diagonal part (a CSR product that folds
the rank-one part in), and a per-row shift recomputed from the gradient
every step; how the operator is stored is ``model``'s alone.
That is O((nnz + dim) k) work, and a monotone ascent: a row's shift is at
least half its Gershgorin radius less half its alignment with its
gradient, which is all ascent needs (the batch form of the low-rank coordinate scheme of the
Mixing method, Wang, Chang & Kolter 2017).  The solver speeds F's slow tail
up by type-II Anderson mixing over its last ``ANDERSON_MEMORY`` steps
(Walker & Ni 2011), with an objective safeguard in the spirit of Zhang,
O'Donoghue & Boyd (2020): a mixed candidate is kept only where it does not
lower the objective, and the plain step is taken instead where it would.
A sweep is one operator product, a rejected candidate's included.  A solve
checks its gap through one private certifier built from M.  Up to
``DENSE_CERT_MAX`` rows it holds a dense -M: a Cholesky check on it,
scheduled in the loop, stops the solve once it proves the dual gap within
target.  Above, the solve stops on a stall or at ``max_sweeps``.
Each solve makes one start: at rank >= sqrt(2 dim) the factorized problem
has no spurious second-order critical points for generic costs (Boumal,
Voroninski & Bandeira 2016), so a solve left above ``CERT_GAP`` is slow,
not trapped, and its certificate flags it.  ``SdpSolution.certificate`` is
exact (``eigvalsh`` up to ``DENSE_CERT_MAX`` rows, Lanczos above), computed
on first read.  Rounding reads the exact leading eigenvector of S S^T off
the k x k matrix S^T S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .model import MatrixOperator, _check_seed, _require_int, _require_real
from .rng import derive_key, stream


class NumericError(RuntimeError):
    """Numerical breakdown inside the solver: an objective that diverged to
    a non-finite value.  A non-finite operator never gets here: the
    ``MatrixOperator`` constructor refuses it with ValueError."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`solve_elliptope`.

    rank=None picks ceil(sqrt(2 dim)) + 1 (capped at dim), above the
    Barvinok-Pataki width at which the factorized problem admits the SDP
    optimum.  A sweep is one product with the operator: one step, plain or
    mixed, or one rejected mixed candidate; ``max_sweeps`` caps the sweeps
    of the solve.  A solve stops at the first of two tests.  The stall
    test: the objective moved by at most ``tol`` (relative) over
    ``STALL_WINDOW`` steps.  The certified stop, up to ``DENSE_CERT_MAX``
    rows: a scheduled in-loop check proves the certified relative gap within
    ``CERT_GAP * min(1, tol / 1e-6)``, so ``CERT_GAP`` at the default ``tol``
    and proportionally tighter below it.  ``tol`` is not itself a target
    gap.
    """

    rank: int | None = None
    tol: float = 1e-6
    max_sweeps: int = 2000
    seed: int = 0

    def __post_init__(self):
        _require_int(self.max_sweeps, "max_sweeps", 1)
        if self.rank is not None:
            _require_int(self.rank, "rank", 2)
        _check_seed(self.seed)
        _require_real(self.tol, "tol")
        object.__setattr__(self, "tol", float(self.tol))
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")

    def for_instance(self, seed: int) -> SolverConfig:
        """These settings seeded for the instance drawn from ``seed``, by the one
        rule of every sweep and CLI solve (``self.seed`` is not read)."""
        return replace(self, seed=derive_key(seed, "solver"))

    def rank_for(self, dim: int) -> int:
        if self.rank is not None:
            return min(self.rank, max(dim, 2))
        return min(max(dim, 2), int(math.ceil(math.sqrt(2.0 * dim))) + 1)


@dataclass(frozen=True)
class SdpSolution:
    """A feasible factor and its objective value.

    Every row of ``factor`` has unit norm; ``value`` equals
    <M, factor factor^T>; ``objective_history`` holds the objective at the
    start and after every step, and is monotone nondecreasing, since a
    mixed candidate that would lower it is rejected.  ``sweeps_used`` counts
    the operator products after the one at the start, rejected candidates
    included.  ``converged`` says that the solve stopped on a certificate or
    a stall, not on ``max_sweeps``.
    ``operator`` is the M that :func:`solve_elliptope` solved (None on
    solutions built by hand), kept so that ``certificate`` can be computed.
    """

    factor: np.ndarray
    value: float
    sweeps_used: int
    converged: bool
    objective_history: np.ndarray
    operator: MatrixOperator | None = field(default=None, repr=False, compare=False)

    @cached_property
    def certificate(self) -> DualCertificate | None:
        """The exact dual certificate :func:`certify_dual` gives ``factor``,
        computed on first read and kept (None without an ``operator``), so a
        caller can flag a value whose gap is too wide without certifying
        again."""
        return None if self.operator is None else certify_dual(self.operator, self)


@dataclass(frozen=True)
class DualCertificate:
    """Feasibility-corrected dual bound: for any y, subtracting
    n * min(0, lambda_min(diag(y) - M)) from 1^T y gives a valid upper bound
    on the SDP value.  ``power_converged`` is true when ``lambda_min`` met
    its tolerance: always on the exact dense path, and on the
    Lanczos path when the residual of its eigenvector did."""

    y: np.ndarray
    upper_bound: float
    gap: float
    lambda_min: float
    power_converged: bool


STALL_WINDOW = 10  # the stall test compares objectives this many steps apart
ANDERSON_MEMORY = 4  # differences the mixing keeps (m)
CERT_GAP = 1e-3  # certified relative gap the in-loop check targets, at the default tol
# The certifier's dense path up to this dim.  On one core of a 2-CPU Xeon VM a
# certificate takes ~2 ms at dim 200 and ~100-125 ms at 1000, where a one-solve
# process peaks at 74 MB RSS if it certifies exactly (-M, eigvalsh's copy) and
# 83 MB if the Cholesky check passes (-M, cholesky's two), from 52 MB before
# the solve.  Memory grows as dim^2 and time as dim^3, so Lanczos takes over above.
DENSE_CERT_MAX = 1000
# Lanczos residual tolerance, relative to max(1, |theta|), above DENSE_CERT_MAX
LANCZOS_TOL = 1e-6


def solve_elliptope(M: MatrixOperator, cfg: SolverConfig | None = None) -> SdpSolution:
    """Maximize <M, X> over the elliptope by the mixed shifted batch iteration.

    The plain step is S <- F(S) = rownormalise(G + diag(sigma) S), with
    G = B S for B the off-diagonal part of M, t_i = <s_i, g_i> and the
    per-row shift sigma_i = max((lam_i - t_i) / 2, lam_i / 4) of
    :func:`_ascent_step`, lam = ``M.offdiag_radii()`` the Gershgorin radii
    of B summed over its sparse and rank-one parts apart.
    G is ``M.offdiag_product`` of the solver's one preallocated buffer
    [S; spare row], whose spare row the product fills; t also gives the
    objective, sum_i t_i + sum_i M_ii.  No plain step can lower the
    objective (the proof is in :func:`_ascent_step`), and the fixed points
    are those of the Gershgorin shift, rows with g_i parallel to s_i.  Each step mixes F by
    type-II Anderson acceleration (:class:`_Mixing`): with the differences
    dF and dR of the F-values and residuals R = F(S) - S of the last
    ``ANDERSON_MEMORY`` + 1 steps, gamma = argmin |R - dR gamma| and the
    candidate is Z = rownormalise(F(S) - dF gamma).  The product at Z is the
    next sweep's, and Z is accepted iff <M, Z Z^T> is at least the current
    value.  Otherwise the memory is cleared and the plain step F(S) taken,
    at one more product; so the objective history is monotone, and a sweep
    is one product, rejected candidates included.  The last step before
    ``cfg.max_sweeps`` is plain, so no fallback runs past it.  The solve
    starts from one sphere-uniform factor, drawn from
    ``stream(cfg.seed, "sdp-init", 0)``, and stops at the first of two tests.
    The certified stop, up to ``DENSE_CERT_MAX`` rows: once the free
    first-order gap sum_i (|g_i| - t_i) at a sweep s is within half the
    target ``CERT_GAP * min(1, cfg.tol / 1e-6)`` (relative to
    max(1, |value|)), the certifier's Cholesky check runs on the sweep's G
    at sweep max(s + max(10, dim // 16), floor(1.25 s)), and again that far
    after each check that fails while the first-order gap stays within half
    the target; the solve stops at the first check that proves the
    certified gap within the target.  The schedule depends on sweep counts
    and dim only, so solves stay deterministic.  The stall test, at every
    dim: the objective moved by at most ``cfg.tol`` (relative) over
    ``STALL_WINDOW`` steps.  The solution's exact ``certificate`` is
    computed on first read.  Raises ValueError on an empty operator, and
    :class:`NumericError` where the objective diverges; every operator's
    entries are finite, since its constructor refuses any other.
    """
    cfg = cfg or SolverConfig()
    n = M.dim
    if n == 0:
        raise ValueError("cannot solve an empty (dimension-zero) problem")

    k = cfg.rank_for(n)
    lam = M.offdiag_radii()
    # Every row of S stays unit: the draw is normalised once an all-zero row
    # (an event of probability zero) is set to e_1, a plain step normalises
    # each row or, where its shifted gradient is exactly zero, keeps it, and a
    # mixed candidate normalises each row it moves.  So
    # <M, S S^T> = sum_i t_i + sum_i M_ii with t_i = <s_i, g_i>.
    diag_sum = float(M.diagonal().sum())
    buf = np.zeros((n + 1, k))  # S and the spare row of M.offdiag_product
    S = buf[:n]
    certifier = _Certifier(M)
    target = CERT_GAP * min(1.0, cfg.tol / 1e-6)
    spacing = max(10, n // 16)  # a check at dim 1000 costs about 30 sweeps
    mixing = _Mixing(n * k)
    flat = S.reshape(-1)  # a view: S is the leading rows of buf
    S[:] = stream(cfg.seed, "sdp-init", 0).standard_normal((n, k))
    S[~S.any(axis=1), 0] = 1.0
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    history = []
    converged = mixed = False
    # next sweep to test: 0 until the first-order gap first falls within
    # half the budget, which schedules the first Cholesky check
    check = 0
    for sweeps in range(cfg.max_sweeps + 1):
        G = M.offdiag_product(buf)
        t = np.einsum("ij,ij->i", S, G)
        val = float(t.sum()) + diag_sum
        if mixed and not val >= history[-1]:
            # a rejected candidate: back to the plain step, whose product
            # is the next sweep
            S[:] = mixing.F.reshape(n, k)
            mixing.reset()
            mixed = False
            continue
        history.append(val)
        if len(history) > STALL_WINDOW and (
                abs(val - history[-1 - STALL_WINDOW]) <= cfg.tol * max(1.0, abs(val))):
            converged = True
            break
        if certifier.negM is not None and sweeps >= check:
            g = np.sqrt(np.einsum("ij,ij->i", G, G))
            budget = target * max(1.0, abs(val))
            slack = budget - float((g - t).sum())
            if slack >= budget / 2:
                if check and certifier.check(g, slack):
                    converged = True
                    break
                check = max(sweeps + spacing, int(1.25 * sweeps))
        if sweeps == cfg.max_sweeps:
            break
        mixing.start[:] = flat
        _ascent_step(S, G, t, lam)
        mixing.push(flat)
        # a candidate rejected at the cap would need one sweep past it
        mixed = sweeps + 2 <= cfg.max_sweeps and mixing.extrapolate(S)
    if not math.isfinite(val):
        raise NumericError("objective diverged to a non-finite value")
    return SdpSolution(
        factor=S.copy(),
        value=val,
        sweeps_used=sweeps,
        converged=converged,
        objective_history=np.asarray(history),
        operator=M,
    )


class _Mixing:
    """Type-II Anderson mixing over the plain steps (Walker & Ni 2011).

    Holds the F-value F(S) and the residual R = F(S) - S of the last step,
    and ring buffers of the differences dF and dR between the last
    ``ANDERSON_MEMORY`` + 1 consecutive steps, with the Gram matrix dR dR^T,
    one row of which each step updates.  Factors are flattened row-major;
    the caller copies the factor a step starts from into ``start``.
    """

    def __init__(self, size: int):
        m = ANDERSON_MEMORY
        self.dF, self.dR = np.empty((m, size)), np.empty((m, size))
        self.gram, self.eye = np.empty((m, m)), np.eye(m)
        self.F, self.R, self.start = np.empty(size), np.empty(size), np.empty(size)
        self.steps = 0

    def reset(self) -> None:
        """Forget every step."""
        self.steps = 0

    def push(self, F: np.ndarray) -> None:
        """Record the step from ``start`` to the F-value ``F``."""
        R = self.start
        np.subtract(F, R, out=R)
        if self.steps:
            j = (self.steps - 1) % ANDERSON_MEMORY
            np.subtract(F, self.F, out=self.dF[j])
            np.subtract(R, self.R, out=self.dR[j])
            c = min(self.steps, ANDERSON_MEMORY)
            self.gram[j, :c] = self.gram[:c, j] = self.dR[:c] @ self.dR[j]
        self.F[:] = F
        self.R, self.start = R, self.R
        self.steps += 1

    def extrapolate(self, S: np.ndarray) -> bool:
        """Move S, which holds the last F-value, to the candidate
        rownormalise(F - dF gamma) with gamma = argmin |R - dR gamma|, solved
        with a ridge of 1e-10 trace(dR dR^T).  Rows that the mixing does not
        move (a row of dF gamma whose squares sum to zero, as at an isolated
        vertex) keep their F rows bit for bit, and so do rows that it cancels.
        False, with S untouched, while no difference is held or the Gram
        matrix is zero.
        """
        c = min(self.steps - 1, ANDERSON_MEMORY)
        gram = self.gram[:c, :c]
        # 1e-10 written as a quotient: Hypothesis draws the float literals of
        # the code under test, and that literal here made a property test in
        # tests/test_sdp.py run about 40 times longer
        ridge = gram.trace() / 1e10
        if not 0.0 < ridge < math.inf:
            return False
        gamma = np.linalg.solve(gram + ridge * self.eye[:c, :c], self.dR[:c] @ self.R)
        step = (gamma @ self.dF[:c]).reshape(S.shape)
        S -= step
        nrm = np.sqrt(np.einsum("ij,ij->i", S, S))
        moved = (np.einsum("ij,ij->i", step, step) > 0.0) & (nrm > _SQUARES_EXACT)
        if not moved.all():
            S[~moved] = self.F.reshape(S.shape)[~moved]
            nrm[~moved] = 1.0
        S /= nrm[:, None]
        return True


# Row norms above this have sums of squares of at least tiny / eps^2, next to
# which the squares that underflow (each below tiny) are lost in rounding.
_SQUARES_EXACT = math.sqrt(np.finfo(float).tiny) / np.finfo(float).eps


def _ascent_step(S: np.ndarray, G: np.ndarray, t: np.ndarray, lam: np.ndarray) -> None:
    """One batch step in place: S <- rownormalise(G + diag(sigma) S), with
    G = B S the off-diagonal gradient (overwritten), t_i = <s_i, g_i> and
    sigma_i = max((lam_i - t_i) / 2, lam_i / 4) for Gershgorin radii lam of B.

    For unit rows, p_i = g_i + sigma_i s_i and D = S' - S, the objective rises
    by sum_i (|p_i| + sigma_i) |D_i|^2 + <D, B D>, which is at least
    sum_i (|p_i| + sigma_i - lam_i) |D_i|^2; as |p_i| >= t_i + sigma_i, any
    sigma_i >= (lam_i - t_i) / 2 makes the step an ascent: half the
    Gershgorin shift where t_i = 0, and less where t_i > 0.  The floor
    lam_i / 4 keeps rows with t_i near lam_i moving: without it the 2 x 2
    operator [[0, 1], [1, 0]] only creeps, and ends 2000 sweeps at a
    certified gap of 5e-4.  A row whose p_i is exactly zero keeps s_i.  A
    row whose norm is too small for its squares to add up exactly (below
    ``_SQUARES_EXACT``) is scaled by its largest entry before it is normalised.
    """
    G += np.maximum(0.5 * (lam - t), 0.25 * lam)[:, None] * S
    nrm = np.sqrt(np.einsum("ij,ij->i", G, G))
    if not (nrm > _SQUARES_EXACT).all():
        small = np.flatnonzero(nrm <= _SQUARES_EXACT)
        peak = np.abs(G[small]).max(axis=1)
        zero, tiny = small[peak == 0.0], small[peak > 0.0]
        G[zero], nrm[zero] = S[zero], 1.0
        G[tiny] /= peak[peak > 0.0, None]
        nrm[tiny] = np.sqrt(np.einsum("ij,ij->i", G[tiny], G[tiny]))
    np.divide(G, nrm[:, None], out=S)


def certify_dual(M: MatrixOperator, sol: SdpSolution) -> DualCertificate:
    """Dual upper bound at the solver's fixed point.

    Takes y_i = ||sum_{j != i} M_ij sigma_j|| + M_ii and lambda_min of
    B = diag(y) - M.  Up to ``DENSE_CERT_MAX`` rows lambda_min comes from
    ``np.linalg.eigvalsh`` on the dense B: exact up to rounding, so the bound
    is valid and ``power_converged`` is true.  Above it, Lanczos iteration
    (ARPACK) gives a Ritz pair and the bound subtracts its residual;
    ``power_converged`` then says whether that residual met
    ``LANCZOS_TOL * max(1, |theta|)``, and where it did not, the Gershgorin
    bound caps lambda_min, so the upper bound stays valid.  The row
    gradients come from one ``M.offdiag_product``, as the solver's do, and
    the Lanczos iteration's products with B go through it too.
    """
    return _Certifier(M).certify(sol)


class _Certifier:
    """The dual certificates of one operator M.  Up to ``DENSE_CERT_MAX``
    rows its in-loop :meth:`check` and its exact :meth:`certify` share one
    dense -M; above, it holds none.  A solve builds one for its checks, and
    :func:`certify_dual` another."""

    def __init__(self, M: MatrixOperator):
        self.M = M
        self.negM = None  # -M, whose diagonal each method overwrites
        if M.dim <= DENSE_CERT_MAX:
            self.negM = M.to_dense()
            np.negative(self.negM, out=self.negM)
            self.negdiag = self.negM.diagonal().copy()

    def check(self, g: np.ndarray, slack: float) -> bool:
        """Whether a Cholesky factorisation proves the gap of :meth:`certify`
        within budget at a factor whose gradient rows G = B S have norms g.
        Its point y_i = g_i + M_ii has the gap
        sum_i (g_i - t_i) - dim min(0, lambda_min(diag(g) - B)), and ``slack``
        is the budget less that first-order sum.  A factorisation of
        diag(g) - B + (0.9 slack / dim) I that succeeds proves lambda_min
        above -0.9 slack / dim, so the gap is within the budget with 10% of
        the slack to spare for rounding."""
        self.negM[np.diag_indices(len(g))] = g + 0.9 * slack / len(g)
        try:
            np.linalg.cholesky(self.negM)
        except np.linalg.LinAlgError:
            return False
        return True

    def certify(self, sol: SdpSolution) -> DualCertificate:
        """:func:`certify_dual` of ``sol``: by ``eigvalsh`` on -M with y added
        to its diagonal, or by :meth:`_lanczos` above ``DENSE_CERT_MAX``."""
        M, n, stack = self.M, self.M.dim, np.pad(sol.factor, ((0, 1), (0, 0)))  # a spare row
        y = np.linalg.norm(M.offdiag_product(stack), axis=1) + M.diagonal()
        if self.negM is not None:
            # the dense diagonal plus y: y - M.diagonal() rounds apart on a general u
            self.negM[np.diag_indices(n)] = self.negdiag + y
            lambda_min, converged = float(np.linalg.eigvalsh(self.negM)[0]), True
        else:
            lambda_min, converged = self._lanczos(y)
        upper = float(y.sum()) - n * min(0.0, lambda_min)
        return DualCertificate(y=y, upper_bound=upper, gap=upper - sol.value,
                               lambda_min=lambda_min, power_converged=converged)

    def _lanczos(self, y: np.ndarray) -> tuple[float, bool]:
        """Residual-corrected Lanczos estimate of lambda_min(diag(y) - M), and
        whether the residual met ``LANCZOS_TOL * max(1, |theta|)``."""
        # imported here: at module level scipy.sparse.linalg adds ~0.15 s and
        # ~8.5 MB to `import ssbm`, which every sweep worker and CLI call pays
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

        M, n = self.M, self.M.dim
        shift = y - M.diagonal()

        def bmat(v):  # (diag(y) - M) v = (y - diag M) v - B v; y - diag M is >= 0
            return shift * v - M.offdiag_product(np.pad(v, (0, 1)))  # v and a spare entry

        v = stream(0, "dual-init").standard_normal(n)
        if n > 1:  # ARPACK needs dim > 1; at dim 1 any unit vector is exact
            # ARPACK's stopping test is relative to |theta|, which is near 0 at an
            # optimum; on B + I it becomes the absolute test applied below.  The
            # lowest eigenvalues of B cluster near 0 (one per factor direction),
            # and ARPACK's default 20 Lanczos vectors stalled on 3 of the 400
            # solves of the criterion-9 sweep; 40 converged on all of them.
            shifted = LinearOperator((n, n), matvec=lambda v: bmat(v) + v, dtype=np.float64)
            try:
                _, vecs = eigsh(shifted, k=1, which="SA", v0=v, tol=LANCZOS_TOL, ncv=min(n, 40))
                v = vecs[:, 0]
            except ArpackNoConvergence as exc:  # keep the Ritz vector, if any
                if exc.eigenvectors.size:
                    v = exc.eigenvectors[:, 0]
        v = v / np.linalg.norm(v)
        bv = bmat(v)
        theta = float(v @ bv)
        res = float(np.linalg.norm(bv - theta * v))
        # some eigenvalue lies within res of theta; Lanczos targets the lowest
        if res <= LANCZOS_TOL * max(1.0, abs(theta)):
            return theta - res, True
        # short of it (a stale Ritz vector, or the start) that eigenvalue need not
        # be the lowest; Gershgorin's min_i (y_i - M_ii - lam_i) bounds it anyway
        return min(theta - res, float((shift - M.offdiag_radii()).min())), False


def round_leading_eigvec(sol: SdpSolution) -> np.ndarray:
    """Sign pattern of the leading eigenvector of X = S S^T.

    The eigenvector is S w for the top eigenvector w of the k x k matrix
    S^T S, which shares X's nonzero spectrum.  Sign convention: the first
    nonzero coordinate is made positive; exact zeros map to +1.  With a
    degenerate top eigenvalue (e.g. X = I) any leading vector is valid and
    the output is just a deterministic +-1 vector.
    """
    S = sol.factor
    if not np.any(S):
        raise ValueError("zero factor cannot be rounded")
    _, w = np.linalg.eigh(S.T @ S)
    v = S @ w[:, -1]
    nz = np.flatnonzero(v)
    if nz.size and v[nz[0]] < 0:
        v = -v
    return np.where(v >= 0, 1, -1).astype(np.int8)
