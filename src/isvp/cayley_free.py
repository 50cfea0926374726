"""Cayley-free two-step solver.

Each outer iteration applies two multiplicative corrections to the
approximate singular vector matrices, two corrections to the coefficient
vector, and a Chebyshev recurrence on the approximate Jacobian inverse.
Unlike the Cayley-transform baseline this module performs no linear
solves and no matrix inversions: orthogonality of U and V is maintained
only to first order through the correction matrices, which is what makes
the per-iteration cost a handful of dense multiplications.

The correction matrices are filled entrywise over a partition of the
index pairs: both indices in the leading n x n block (gap-weighted
mixing of W, U^T U and V^T V), the two off blocks coupling the trailing
rows of U (divisions by single targets), the trailing off-diagonal block
(symmetric, from U^T U alone), and the diagonals.

The module also holds the stopping rule (:class:`SolverConfig`) and the
iteration driver that the Cayley baseline and the Newton oracle share.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    IsvpInstance,
    SvdFactorization,
    approx_jacobian,
    evaluate_A,
    full_svd,
    generalized_residual_vector,
    residual_d,
)
from .errors import (
    DegenerateShift,
    DimensionMismatch,
    NonFiniteInput,
    NumericalBreakdown,
    NumericalFailure,
    SingularJacobian,
    SingularSystem,
    SingularValueCollision,
)
from .report import IterationRecord, SolveReport, SolveStatus

# numerical failures that end a solve as DIVERGED when an outer step raises them;
# breakdown is found by finiteness checks, so kernels report overflow as NonFiniteInput
_STEP_FAILURES = (
    NumericalBreakdown,
    NonFiniteInput,
    DegenerateShift,
    SingularSystem,
    SingularJacobian,
    SingularValueCollision,
    NumericalFailure,
)

# a solve diverges once d_k exceeds this multiple of max(d_0, 1)
_DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule shared by all solvers in this package.

    Iterations stop when the residual d_k drops to ``tol``, when ``max_iter``
    outer iterations have run, or when d_k is non-finite or exceeds 1e6
    times max(d_0, 1).
    """

    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _iterate(step, state, instance, config, c_star, t_start) -> SolveReport:
    """Run ``step(state, instance) -> state`` from the k = 0 ``state``
    until the stopping rule of ``config`` ends the solve.

    Every iterate gets one record: d_k from its ``U``, ``V`` and ``A``,
    cond(J_k), the time since the previous record (since ``t_start``,
    when the solve began, for k = 0) and, when ``c_star`` is given, the
    distance of c_k to it.  A step that raises one of the numerical
    failures ends the solve as ``DIVERGED``.
    """
    config = config or SolverConfig()
    records, status, t_prev = [], None, t_start
    while status is None:
        # a blowing-up iterate overflows here; the rule below reads d = inf as divergence
        with np.errstate(over="ignore", invalid="ignore"):
            d = residual_d(state.U, state.V, state.A, instance.sigma_star)
            cond_j = float(np.linalg.cond(state.J, 2))
        t_now = time.perf_counter()
        rec = IterationRecord(k=state.k, d=d, cond_j=cond_j, wall_ms=(t_now - t_prev) * 1e3)
        t_prev = t_now
        if c_star is not None:
            rec.err_c = float(np.linalg.norm(state.c - c_star))
        records.append(rec)
        if d <= config.tol:
            status = SolveStatus.CONVERGED
        elif state.k >= config.max_iter:
            status = SolveStatus.MAX_ITERATIONS
        elif not np.isfinite(d) or d > _DIVERGENCE_FACTOR * max(records[0].d, 1.0):
            status = SolveStatus.DIVERGED
        else:
            try:
                state = step(state, instance)
            except _STEP_FAILURES:
                status = SolveStatus.DIVERGED
    total_ms = (time.perf_counter() - t_start) * 1e3
    return SolveReport(status, records, c_final=state.c, iterations=state.k, total_ms=total_ms)


def _exact_point(
    instance: IsvpInstance, c: np.ndarray
) -> tuple[np.ndarray, SvdFactorization, np.ndarray]:
    """A(c), its exact SVD and the Jacobian from it."""
    A_c = evaluate_A(instance, c)
    factors = full_svd(A_c)
    return A_c, factors, approx_jacobian(factors.U, factors.V, instance)


@dataclass
class SolverState:
    """Complete mutable state of one outer iteration.

    ``A`` is A(c), so the generalized residual g(U, V, A) is the residual
    model J c + b of the paper.  ``B`` approximates the inverse of the
    approximate Jacobian ``J``; it is ``None`` from :func:`initialize`
    until the caller chooses B_0.
    """

    k: int
    c: np.ndarray
    A: np.ndarray
    U: np.ndarray
    V: np.ndarray
    B: np.ndarray | None
    J: np.ndarray


@dataclass(frozen=True)
class CorrectionPair:
    """Non-skew correction matrices for the left (m x m) and right (n x n) factors."""

    left: np.ndarray
    right: np.ndarray


def correction_matrices(
    U: np.ndarray, V: np.ndarray, W: np.ndarray, sigma_star: np.ndarray
) -> CorrectionPair:
    """Build the correction pair from U, V and W = U^T A(c) V.

    The pair satisfies left + left^T = U^T U - I and
    right + right^T = V^T V - I up to roundoff, and solves the linearized
    alignment equations on the leading-column index pairs.  The trailing
    off-diagonal block of ``left`` is symmetric by construction.
    """
    m = U.shape[0]
    n = V.shape[0]
    if U.shape != (m, m) or V.shape != (n, n) or W.shape != (m, n):
        raise DimensionMismatch("correction_matrices expects U m x m, V n x n, W m x n")
    for name, a in (("U", U), ("V", V), ("W", W)):
        if not np.all(np.isfinite(a)):
            raise NonFiniteInput(f"{name} contains NaN or infinity")
    s = sigma_star
    s2 = s * s
    Gu = U.T @ U
    Gv = V.T @ V
    Wn = W[:n, :n]
    Gun = Gu[:n, :n]
    den = s2[:, None] - s2[None, :]
    np.fill_diagonal(den, 1.0)
    ss = s[:, None] * s[None, :]
    idx = np.arange(n)

    left = np.empty((m, m))
    num_l = s[:, None] * Wn.T + s[None, :] * Wn - s2[None, :] * Gun - ss * Gv
    block = num_l / den
    block[idx, idx] = 0.5 * (Gun[idx, idx] - 1.0)
    left[:n, :n] = block
    if m > n:
        left[n:, :n] = Gu[n:, :n] - W[n:, :] / s[None, :]
        left[:n, n:] = W[n:, :].T / s[:, None]
        # trailing block: mirrored explicitly so symmetry is exact
        upper = np.triu(0.5 * Gu[n:, n:], 1)
        trailing = upper + upper.T
        np.fill_diagonal(trailing, 0.5 * (np.diagonal(Gu)[n:] - 1.0))
        left[n:, n:] = trailing

    num_r = s[:, None] * Wn + s[None, :] * Wn.T - ss * Gun - s2[None, :] * Gv
    right = num_r / den
    right[idx, idx] = 0.5 * (Gv[idx, idx] - 1.0)
    return CorrectionPair(left=left, right=right)


def multiplicative_refine(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Apply the first-order inverse update M (I - C) = M - M C."""
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] != M.shape[1]:
        raise DimensionMismatch("C must be square with side equal to M's column count")
    return M - M @ C


def chebyshev_update(B: np.ndarray, J_next: np.ndarray) -> np.ndarray:
    """Chebyshev recurrence B' = B + B (2I - J'B)(I - J'B).

    In exact arithmetic I - B'J' = (I - B J')^3, which is what drives the
    cubic root-convergence of the outer loop.
    """
    n = B.shape[0]
    R = np.eye(n) - J_next @ B
    return B + B @ ((np.eye(n) + R) @ R)


def outer_step(state: SolverState, instance: IsvpInstance) -> SolverState:
    """Advance one outer iteration.

    Substeps: first coefficient update from the generalized residual at
    the iterate, g(U, V, A(c)) = J c + b; first correction pair from W at
    the predicted point; multiplicative refinement; second coefficient
    update from the refined residual rho; second correction pair from the
    updated point; second refinement; new J; Chebyshev update of B.  A
    non-finite update raises ``NumericalBreakdown``.
    """
    sigma = instance.sigma_star
    c, U, V, B = state.c, state.U, state.V, state.B
    with np.errstate(over="ignore", invalid="ignore"):
        c_bar = c - B @ generalized_residual_vector(U, V, state.A, sigma)
        if not np.all(np.isfinite(c_bar)):
            raise NumericalBreakdown("first coefficient update is non-finite")
        A_bar = evaluate_A(instance, c_bar)
        W = U.T @ (A_bar @ V)
        first = correction_matrices(U, V, W, sigma)
        U_bar = multiplicative_refine(U, first.left)
        V_bar = multiplicative_refine(V, first.right)

        rho = generalized_residual_vector(U_bar, V_bar, A_bar, sigma)
        c_next = c_bar - B @ rho
        if not np.all(np.isfinite(c_next)):
            raise NumericalBreakdown("second coefficient update is non-finite")
        A_next = evaluate_A(instance, c_next)
        W_bar = U_bar.T @ (A_next @ V_bar)
        second = correction_matrices(U_bar, V_bar, W_bar, sigma)
        U_next = multiplicative_refine(U_bar, second.left)
        V_next = multiplicative_refine(V_bar, second.right)

        J_next = approx_jacobian(U_next, V_next, instance)
        B_next = chebyshev_update(B, J_next)
    for name, a in (("U", U_next), ("V", V_next), ("B", B_next), ("J", J_next)):
        if not np.all(np.isfinite(a)):
            raise NumericalBreakdown(f"updated {name} is non-finite")

    return SolverState(k=state.k + 1, c=c_next, A=A_next, U=U_next, V=V_next, B=B_next, J=J_next)


def initialize(instance: IsvpInstance, c0) -> SolverState:
    """Build the k = 0 state from an exact SVD of A(c0).

    ``B`` is left ``None``; the caller sets it, typically from ``state.J``.
    """
    c0 = np.asarray(c0, dtype=float).reshape(-1)
    A_c, factors, J0 = _exact_point(instance, c0)
    return SolverState(k=0, c=c0.copy(), A=A_c, U=factors.U, V=factors.V, B=None, J=J0)


def solve(
    instance: IsvpInstance,
    c0,
    B0,
    config: SolverConfig | None = None,
    c_star=None,
) -> SolveReport:
    """Run the Cayley-free iteration from c0 with the supplied B0.

    Returns a report whose records include the k = 0 diagnostics.  A
    numerical failure inside an outer step becomes a ``DIVERGED`` status
    rather than an exception.  When ``c_star`` is given, records carry
    the distance to it.
    """
    t_start = time.perf_counter()
    B0 = np.asarray(B0, dtype=float)
    if B0.shape != (instance.n, instance.n):
        raise DimensionMismatch(f"B0 must be {instance.n} x {instance.n}")
    if not np.all(np.isfinite(B0)):
        raise NonFiniteInput("B0 contains NaN or infinity")
    state = initialize(instance, c0)
    state.B = B0.copy()
    return _iterate(outer_step, state, instance, config, c_star, t_start)
