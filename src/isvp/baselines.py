"""Baseline solvers: the Cayley-transform two-step method and a Newton oracle.

The Cayley baseline keeps U and V exactly orthogonal by updating them
through Cayley transforms of skew-symmetric correction matrices, at the
price of 2(m + n) linear-system right-hand sides per outer iteration.
The Newton oracle recomputes a full SVD every iteration and solves the
exact Jacobian equation; it is slow but serves as ground truth for
cross-checking both two-step methods.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cayley_free import SolverConfig, chebyshev_update
from .core import (
    DEFAULT_MIN_GAP,
    IsvpInstance,
    approx_jacobian,
    evaluate_A,
    full_svd,
    residual_d,
)
from .errors import (
    DegenerateShift,
    DimensionMismatch,
    NonFiniteInput,
    NumericalBreakdown,
    SingularJacobian,
    SingularSystem,
    SingularValueCollision,
)
from .report import IterationRecord, SolveReport, SolveStatus


@dataclass
class Alg1State:
    """State of the Cayley baseline: vectors stay orthogonal, and a shift
    vector s replaces the targets inside the skew-matrix denominators."""

    k: int
    c: np.ndarray
    U: np.ndarray
    V: np.ndarray
    B: np.ndarray
    J: np.ndarray
    b: np.ndarray
    s: np.ndarray


def alg1_offset_vector(U: np.ndarray, V: np.ndarray, A0: np.ndarray, n: int) -> np.ndarray:
    """Uncorrected affine offset [b]_i = u_i^T A_0 v_i.

    Deliberately different from the corrected offset used by the
    Cayley-free solver (core.generalized_residual_vector with M = A_0):
    the baseline keeps its vectors orthogonal, so the norm correction
    term is identically zero there and the method omits it.
    """
    return np.einsum("ji,ji->i", U[:, :n], (A0 @ V)[:, :n])


def _check_shift(s: np.ndarray, min_gap: float) -> None:
    if np.any(np.abs(s) <= min_gap):
        raise DegenerateShift("shift entry too close to zero")
    diff = np.abs(s[:, None] - s[None, :])
    np.fill_diagonal(diff, np.inf)
    if diff.min() <= min_gap:
        raise DegenerateShift("two shift entries collide")
    ssum = np.abs(s[:, None] + s[None, :])
    if ssum.min() <= min_gap:
        raise DegenerateShift("two shift entries cancel")


def alg1_skew_pair(
    D: np.ndarray, s: np.ndarray, min_gap: float = DEFAULT_MIN_GAP
) -> tuple[np.ndarray, np.ndarray]:
    """Skew-symmetric correction pair (X m x m, Y n x n) from D and shifts s.

    Entries are staged in one triangle and mirrored, so X = -X^T and
    Y = -Y^T hold bitwise.  The trailing off-diagonal block of X is zero.
    """
    m, n = D.shape
    if s.shape != (n,):
        raise DimensionMismatch("shift vector length must match D's column count")
    _check_shift(s, min_gap)
    den = s[None, :] ** 2 - s[:, None] ** 2
    np.fill_diagonal(den, 1.0)
    Dn = D[:n, :n]

    upper = np.zeros((m, m))
    upper[:n, :n] = np.triu((s[:, None] * Dn.T + s[None, :] * Dn) / den, 1)
    if m > n:
        # stage the mirror image of the (i > n, j <= n) definition D_ij / s_j
        upper[:n, n:] = -(D[n:, :] / s[None, :]).T
    X = upper - upper.T

    upper_y = np.triu((s[:, None] * Dn + s[None, :] * Dn.T) / den, 1)
    Y = upper_y - upper_y.T
    return X, Y


def cayley_orthogonalize(Q: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Solve (I + S/2) Q'^T = (I - S/2) Q^T for Q'.

    For skew S this is the Cayley transform applied to Q's columns and
    preserves orthogonality to working precision.  Solved by dense LU
    with partial pivoting.
    """
    side = S.shape[0]
    if S.shape != (side, side) or Q.shape[1] != side:
        raise DimensionMismatch("S must be square with side equal to Q's column count")
    eye = np.eye(side)
    try:
        Qt = np.linalg.solve(eye + 0.5 * S, (eye - 0.5 * S) @ Q.T)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Cayley system is singular: {exc}") from exc
    return Qt.T


def alg1_outer_step(
    state: Alg1State, instance: IsvpInstance, config: SolverConfig
) -> tuple[Alg1State, IterationRecord]:
    """One outer iteration of the Cayley baseline.

    Two skew/Cayley correction rounds bracket the two coefficient
    updates; the shift vector is refreshed from the Chebyshev-updated B.
    """
    t0 = time.perf_counter()
    # as in the Cayley-free step, breakdown is detected by finiteness
    # checks rather than numpy warnings
    try:
        return _alg1_step_body(state, instance, t0)
    except NonFiniteInput as exc:
        raise NumericalBreakdown(str(exc)) from exc


def _alg1_step_body(
    state: Alg1State, instance: IsvpInstance, t0: float
) -> tuple[Alg1State, IterationRecord]:
    sigma = instance.sigma_star
    n = instance.n
    c, U, V, B, J, b, s = (
        state.c,
        state.U,
        state.V,
        state.B,
        state.J,
        state.b,
        state.s,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        y = c - B @ (J @ c + b - sigma)
        if not np.all(np.isfinite(y)):
            raise NumericalBreakdown("first coefficient update is non-finite")
        A_y = evaluate_A(instance, y)
        D = U.T @ (A_y @ V)
        X, Y = alg1_skew_pair(D, s, instance.min_gap)
        Z = cayley_orthogonalize(U, X)
        N = cayley_orthogonalize(V, Y)
        A_y_N = A_y @ N
        sigma_bar = np.einsum("ji,ji->i", Z[:, :n], A_y_N[:, :n])

        c_next = y - B @ (sigma_bar - sigma)
        if not np.all(np.isfinite(c_next)):
            raise NumericalBreakdown("second coefficient update is non-finite")
        t_bar = sigma_bar - sigma
        s_bar = sigma + t_bar - J @ (B @ t_bar)

        A_next = evaluate_A(instance, c_next)
        D_bar = U.T @ (A_next @ V) - D + Z.T @ A_y_N
        X_bar, Y_bar = alg1_skew_pair(D_bar, s_bar, instance.min_gap)
        U_next = cayley_orthogonalize(Z, X_bar)
        V_next = cayley_orthogonalize(N, Y_bar)

        sigma_next = np.einsum("ji,ji->i", U_next[:, :n], (A_next @ V_next)[:, :n])
        J_next = approx_jacobian(U_next, V_next, instance)
        b_next = alg1_offset_vector(U_next, V_next, instance.A0, n)
        B_next = chebyshev_update(B, J_next)
        t_next = sigma_next - sigma
        s_next = sigma + t_next - J_next @ (B_next @ t_next)
    for name, a in (("U", U_next), ("V", V_next), ("B", B_next), ("s", s_next)):
        if not np.all(np.isfinite(a)):
            raise NumericalBreakdown(f"updated {name} is non-finite")

    d = residual_d(U_next, V_next, A_next, sigma)
    cond_j = float(np.linalg.cond(J_next, 2))
    wall_ms = (time.perf_counter() - t0) * 1e3
    new_state = Alg1State(
        k=state.k + 1, c=c_next, U=U_next, V=V_next, B=B_next, J=J_next, b=b_next, s=s_next
    )
    return new_state, IterationRecord(k=new_state.k, d=d, cond_j=cond_j, wall_ms=wall_ms)


def alg1_solve(
    instance: IsvpInstance,
    c0,
    config: SolverConfig | None = None,
    c_star=None,
) -> SolveReport:
    """Run the Cayley baseline from c0.

    Unlike the Cayley-free solver, B_0 is always the exact LU inverse of
    J_0 and the initial shift vector is sigma*.
    """
    config = config or SolverConfig()
    t_start = time.perf_counter()
    sigma = instance.sigma_star
    t0 = time.perf_counter()
    c0 = np.asarray(c0, dtype=float).reshape(-1)
    A0 = evaluate_A(instance, c0)
    factors = full_svd(A0)
    J0 = approx_jacobian(factors.U, factors.V, instance)
    b0 = alg1_offset_vector(factors.U, factors.V, instance.A0, instance.n)
    try:
        B0 = np.linalg.inv(J0)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"initial Jacobian is singular: {exc}") from exc
    d0 = residual_d(factors.U, factors.V, A0, sigma)
    rec0 = IterationRecord(
        k=0,
        d=d0,
        cond_j=float(np.linalg.cond(J0, 2)),
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    if c_star is not None:
        rec0.err_c = float(np.linalg.norm(c0 - c_star))
    state = Alg1State(
        k=0, c=c0.copy(), U=factors.U, V=factors.V, B=B0, J=J0, b=b0, s=sigma.copy()
    )
    records = [rec0]
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
            state, rec = alg1_outer_step(state, instance, config)
        except (NumericalBreakdown, DegenerateShift, SingularSystem):
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


def newton_exact_solve(
    instance: IsvpInstance,
    c0,
    config: SolverConfig | None = None,
    c_star=None,
) -> SolveReport:
    """Classical Newton iteration on f(c) = sigma(c) - sigma*.

    Every iteration recomputes a full SVD of A(c), forms the exact
    Jacobian from the exact singular vectors, and solves the Newton
    equation by dense LU.  Singular values are matched to the targets by
    sorted order, so the path must keep them simple (gap above the
    instance's min_gap), else ``SingularValueCollision`` is raised.
    """
    config = config or SolverConfig()
    t_start = time.perf_counter()
    sigma = instance.sigma_star
    c = np.asarray(c0, dtype=float).reshape(-1).copy()
    records: list[IterationRecord] = []
    d0 = None
    status = None
    while True:
        t0 = time.perf_counter()
        A_c = evaluate_A(instance, c)
        factors = full_svd(A_c)
        gaps = np.diff(-np.concatenate([factors.sigma, [0.0]]))
        if gaps.min() <= instance.min_gap:
            raise SingularValueCollision(
                f"singular values too close along the path (gap {gaps.min():.3e})"
            )
        J = approx_jacobian(factors.U, factors.V, instance)
        d = residual_d(factors.U, factors.V, A_c, sigma)
        rec = IterationRecord(
            k=len(records),
            d=d,
            cond_j=float(np.linalg.cond(J, 2)),
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )
        if c_star is not None:
            rec.err_c = float(np.linalg.norm(c - c_star))
        records.append(rec)
        if d0 is None:
            d0 = d
        if d <= config.tol:
            status = SolveStatus.CONVERGED
            break
        if rec.k >= config.max_iter:
            status = SolveStatus.MAX_ITERATIONS
            break
        if not np.isfinite(d) or d > config.divergence_factor * max(d0, 1.0):
            status = SolveStatus.DIVERGED
            break
        f = factors.sigma - sigma
        try:
            delta = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"Newton Jacobian is singular: {exc}") from exc
        c = c + delta
    total_ms = (time.perf_counter() - t_start) * 1e3
    return SolveReport(
        status=status,
        records=records,
        c_final=c,
        iterations=records[-1].k,
        total_ms=total_ms,
    )
