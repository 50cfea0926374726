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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    IsvpInstance,
    approx_jacobian,
    evaluate_A,
    full_svd,
    generalized_residual_vector,
    residual_d,
)
from .errors import DimensionMismatch, NonFiniteInput, NumericalBreakdown
from .report import IterationRecord, SolveReport, SolveStatus


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule shared by all solvers in this package.

    Iterations stop when the residual d_k drops to ``tol``, when ``max_iter``
    outer iterations have run, or when d_k exceeds ``divergence_factor``
    times max(d_0, 1).
    """

    tol: float = 1e-10
    max_iter: int = 50
    divergence_factor: float = 1e6

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.divergence_factor > 0.0:
            raise ValueError("divergence_factor must be positive")


@dataclass
class SolverState:
    """Complete mutable state of one outer iteration.

    ``B`` approximates the inverse of the approximate Jacobian ``J``; ``b``
    is the corrected affine offset so that J c + b plays the role of the
    residual function at c.
    """

    k: int
    c: np.ndarray
    U: np.ndarray
    V: np.ndarray
    B: np.ndarray
    J: np.ndarray
    b: np.ndarray


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


def outer_step(
    state: SolverState, instance: IsvpInstance, config: SolverConfig
) -> tuple[SolverState, IterationRecord]:
    """Advance one outer iteration and report its diagnostics.

    Substeps: first coefficient update from (J, b); first correction pair
    from W at the predicted point; multiplicative refinement; second
    coefficient update from the refined residual rho; second correction
    pair from the updated point; second refinement; new J, b; Chebyshev
    update of B.
    """
    t0 = time.perf_counter()
    # overflow inside the kernels surfaces as NonFiniteInput and is
    # converted here; breakdown detection works by finiteness checks,
    # so numpy's own overflow warnings stay silenced
    try:
        return _outer_step_body(state, instance, t0)
    except NonFiniteInput as exc:
        raise NumericalBreakdown(str(exc)) from exc


def _outer_step_body(
    state: SolverState, instance: IsvpInstance, t0: float
) -> tuple[SolverState, IterationRecord]:
    sigma = instance.sigma_star
    c, U, V, B, J, b = state.c, state.U, state.V, state.B, state.J, state.b
    with np.errstate(over="ignore", invalid="ignore"):
        c_bar = c - B @ (J @ c + b)
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
        b_next = generalized_residual_vector(U_next, V_next, instance.A0, sigma)
        B_next = chebyshev_update(B, J_next)
    for name, a in (("U", U_next), ("V", V_next), ("B", B_next), ("J", J_next)):
        if not np.all(np.isfinite(a)):
            raise NumericalBreakdown(f"updated {name} is non-finite")

    d = residual_d(U_next, V_next, A_next, sigma)
    cond_j = float(np.linalg.cond(J_next, 2))
    wall_ms = (time.perf_counter() - t0) * 1e3
    new_state = SolverState(
        k=state.k + 1, c=c_next, U=U_next, V=V_next, B=B_next, J=J_next, b=b_next
    )
    record = IterationRecord(k=new_state.k, d=d, cond_j=cond_j, wall_ms=wall_ms)
    return new_state, record


def initialize(instance: IsvpInstance, c0, B0) -> tuple[SolverState, IterationRecord]:
    """Build the k = 0 state from an exact SVD of A(c0) and a supplied B0."""
    t0 = time.perf_counter()
    c0 = np.asarray(c0, dtype=float).reshape(-1)
    B0 = np.asarray(B0, dtype=float)
    if B0.shape != (instance.n, instance.n):
        raise DimensionMismatch(f"B0 must be {instance.n} x {instance.n}")
    if not np.all(np.isfinite(B0)):
        raise NonFiniteInput("B0 contains NaN or infinity")
    A0 = evaluate_A(instance, c0)
    factors = full_svd(A0)
    J0 = approx_jacobian(factors.U, factors.V, instance)
    b0 = generalized_residual_vector(
        factors.U, factors.V, instance.A0, instance.sigma_star
    )
    d0 = residual_d(factors.U, factors.V, A0, instance.sigma_star)
    cond0 = float(np.linalg.cond(J0, 2))
    wall_ms = (time.perf_counter() - t0) * 1e3
    state = SolverState(k=0, c=c0.copy(), U=factors.U, V=factors.V, B=B0.copy(), J=J0, b=b0)
    return state, IterationRecord(k=0, d=d0, cond_j=cond0, wall_ms=wall_ms)


def solve(
    instance: IsvpInstance,
    c0,
    B0,
    config: SolverConfig | None = None,
    c_star=None,
) -> SolveReport:
    """Run the Cayley-free iteration from c0 with the supplied B0.

    Returns a report whose records include the k = 0 diagnostics.  Any
    numerical breakdown is converted to a ``DIVERGED`` status rather than
    propagated.  When ``c_star`` is given, records carry the distance to it.
    """
    config = config or SolverConfig()
    t_start = time.perf_counter()
    state, rec0 = initialize(instance, c0, B0)
    if c_star is not None:
        rec0.err_c = float(np.linalg.norm(state.c - c_star))
    records = [rec0]
    d0 = rec0.d
    d = d0
    while True:
        if d <= config.tol:
            status = SolveStatus.CONVERGED
            break
        if state.k >= config.max_iter:
            status = SolveStatus.MAX_ITERATIONS
            break
        if not np.isfinite(d) or d > config.divergence_factor * max(d0, 1.0):
            status = SolveStatus.DIVERGED
            break
        try:
            state, rec = outer_step(state, instance, config)
        except NumericalBreakdown:
            status = SolveStatus.DIVERGED
            break
        if c_star is not None:
            rec.err_c = float(np.linalg.norm(state.c - c_star))
        records.append(rec)
        d = rec.d
    total_ms = (time.perf_counter() - t_start) * 1e3
    return SolveReport(
        status=status,
        records=records,
        c_final=state.c,
        iterations=state.k,
        total_ms=total_ms,
    )
