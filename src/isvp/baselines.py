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

from .cayley_free import SolverConfig, _exact_point, _iterate, chebyshev_update
from .core import DEFAULT_MIN_GAP, IsvpInstance, approx_jacobian, evaluate_A
from .errors import (
    DegenerateShift,
    DimensionMismatch,
    NumericalBreakdown,
    SingularJacobian,
    SingularSystem,
    SingularValueCollision,
)
from .report import SolveReport


@dataclass
class Alg1State:
    """State of the Cayley baseline: vectors stay orthogonal, and a shift
    vector s replaces the targets inside the skew-matrix denominators.
    ``A`` is A(c)."""

    k: int
    c: np.ndarray
    A: np.ndarray
    U: np.ndarray
    V: np.ndarray
    B: np.ndarray
    J: np.ndarray
    s: np.ndarray


def alg1_offset_vector(U: np.ndarray, V: np.ndarray, M: np.ndarray, n: int) -> np.ndarray:
    """The vector [u_i^T M v_i] over the leading n columns of U and V.

    With M = A(c) it equals J c + b with b = [u_i^T A_0 v_i], the
    baseline's linear model of the singular values at c.  Deliberately
    different from the corrected residual of the Cayley-free solver
    (core.generalized_residual_vector): the baseline keeps its vectors
    orthogonal, so the norm correction term is identically zero there and
    the method omits it.
    """
    return np.einsum("ji,ji->i", U[:, :n], M @ V[:, :n])


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


def alg1_outer_step(state: Alg1State, instance: IsvpInstance) -> Alg1State:
    """One outer iteration of the Cayley baseline.

    Two skew/Cayley correction rounds bracket the two coefficient
    updates; the shift vector is refreshed from the Chebyshev-updated B.
    A non-finite update raises ``NumericalBreakdown``.
    """
    sigma = instance.sigma_star
    n = instance.n
    c, U, V, B, J, s = state.c, state.U, state.V, state.B, state.J, state.s
    with np.errstate(over="ignore", invalid="ignore"):
        y = c - B @ (alg1_offset_vector(U, V, state.A, n) - sigma)
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

        sigma_next = alg1_offset_vector(U_next, V_next, A_next, n)
        J_next = approx_jacobian(U_next, V_next, instance)
        B_next = chebyshev_update(B, J_next)
        t_next = sigma_next - sigma
        s_next = sigma + t_next - J_next @ (B_next @ t_next)
    for name, a in (("U", U_next), ("V", V_next), ("B", B_next), ("s", s_next)):
        if not np.all(np.isfinite(a)):
            raise NumericalBreakdown(f"updated {name} is non-finite")

    return Alg1State(
        k=state.k + 1, c=c_next, A=A_next, U=U_next, V=V_next, B=B_next, J=J_next, s=s_next
    )


def alg1_solve(
    instance: IsvpInstance,
    c0,
    config: SolverConfig | None = None,
    c_star=None,
) -> SolveReport:
    """Run the Cayley baseline from c0.

    Unlike the Cayley-free solver, B_0 is always the exact LU inverse of
    J_0 and the initial shift vector is sigma*.  A singular J_0 raises
    ``SingularJacobian``.
    """
    t_start = time.perf_counter()
    c0 = np.asarray(c0, dtype=float).reshape(-1)
    A_c, factors, J0 = _exact_point(instance, c0)
    try:
        B0 = np.linalg.inv(J0)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"initial Jacobian is singular: {exc}") from exc
    state = Alg1State(
        k=0, c=c0.copy(), A=A_c, U=factors.U, V=factors.V, B=B0, J=J0,
        s=instance.sigma_star.copy(),
    )
    return _iterate(alg1_outer_step, state, instance, config, c_star, t_start)


@dataclass
class _NewtonState:
    """Newton iterate: c with A(c), its exact SVD and the Jacobian from it."""

    k: int
    c: np.ndarray
    A: np.ndarray
    U: np.ndarray
    V: np.ndarray
    sigma: np.ndarray
    J: np.ndarray


def _newton_point(instance: IsvpInstance, c: np.ndarray, k: int) -> _NewtonState:
    """Exact SVD and Jacobian at c.

    Singular values are matched to the targets by sorted order, so they
    must stay simple (gap above the instance's min_gap).
    """
    A_c, factors, J = _exact_point(instance, c)
    gaps = np.diff(-np.concatenate([factors.sigma, [0.0]]))
    if gaps.min() <= instance.min_gap:
        raise SingularValueCollision(
            f"singular values too close along the path (gap {gaps.min():.3e})"
        )
    return _NewtonState(k=k, c=c, A=A_c, U=factors.U, V=factors.V, sigma=factors.sigma, J=J)


def _newton_step(state: _NewtonState, instance: IsvpInstance) -> _NewtonState:
    """Solve the Newton equation at c_k, then evaluate the new point."""
    f = state.sigma - instance.sigma_star
    try:
        delta = np.linalg.solve(state.J, -f)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"Newton Jacobian is singular: {exc}") from exc
    return _newton_point(instance, state.c + delta, state.k + 1)


def newton_exact_solve(
    instance: IsvpInstance,
    c0,
    config: SolverConfig | None = None,
    c_star=None,
) -> SolveReport:
    """Classical Newton iteration on f(c) = sigma(c) - sigma*.

    Every iteration solves the Newton equation by dense LU, recomputes a
    full SVD of A(c) and forms the exact Jacobian from the exact singular
    vectors.  A collision of singular values at c0 raises
    ``SingularValueCollision``; later in the run it, like a singular
    Jacobian, ends the solve as ``DIVERGED``.
    """
    t_start = time.perf_counter()
    c = np.asarray(c0, dtype=float).reshape(-1).copy()
    state = _newton_point(instance, c, 0)
    return _iterate(_newton_step, state, instance, config, c_star, t_start)
