"""Baseline solvers: the Cayley-transform two-step method and a Newton oracle.

The Cayley baseline keeps U and V exactly orthogonal by updating them
through Cayley transforms of skew-symmetric correction matrices, at the
price of 2(r + n) linear-system right-hand sides per outer iteration,
for an r x r U (see :class:`core.IsvpInstance`).  Its skew pair is the
Cayley-free alignment kernel at identity Gram matrices, negated, with
the shifts s_k in place of the targets and their tables from the same
builder, :func:`cayley_free._tables`.  The shifts pass the targets' gap
rule: :func:`core.spectral_gap` of their sorted absolute values must
exceed ``MIN_GAP``, which rules out shifts that collide, cancel or
vanish.
The Newton oracle recomputes a thin SVD every iteration (it reads only
the n leading left singular vectors) and solves the exact Jacobian
equation; it is slow but serves as ground truth for cross-checking both
two-step methods.
"""

from __future__ import annotations

import time

import numpy as np

from .cayley_free import (
    SolverConfig, SolverState, _alignment_pair, _check_updated, _exact_point, _form_jacobian,
    _iterate, _tables, two_step_start,
)
from .core import MIN_GAP, IsvpInstance, _real_array, approx_jacobian, evaluate_A, spectral_gap
from .errors import InputError, NumericalError
from .report import SolveReport


def alg1_offset_vector(W: np.ndarray) -> np.ndarray:
    """The diagonal [u_i^T M v_i] of an aligned product W = U^T M V.

    With M = A(c) it equals J c + b with b = [u_i^T A_0 v_i], the
    baseline's linear model of the singular values at c.  Deliberately
    different from the corrected residual of the Cayley-free solver
    (core.generalized_residual_vector): the baseline keeps its vectors
    orthogonal, so the norm correction term is identically zero there and
    the method omits it.
    """
    return np.diagonal(W)


def _check_shift(s: np.ndarray) -> None:
    # min(|s_i - s_j|, |s_i + s_j|) = ||s_i| - |s_j||, and rounding is monotone, so
    # the smallest such gap over all pairs is an adjacent gap of the sorted |s|
    gap = spectral_gap(np.sort(np.abs(s))[::-1])
    if gap <= MIN_GAP:
        raise NumericalError(f"shift entries collide, cancel or vanish (gap {gap:.3e})")


def alg1_skew_pair(D: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Skew-symmetric correction pair (X m x m, Y n x n) from D and shifts s.

    The negated kernel :func:`cayley_free._alignment_pair` at identity
    Gram, so X = -X^T and Y = -Y^T bit for bit, and X's trailing
    off-diagonal block is zero.  Its tables skip the targets' cache.
    """
    D = _real_array("D", D)
    s = _real_array("s", s)
    if D.ndim != 2 or s.shape != D.shape[1:] or D.shape[0] < D.shape[1]:
        raise InputError("alg1_skew_pair expects D m x n and shifts s of length n, m >= n")
    _check_shift(s)
    m, n = D.shape
    left, right = _alignment_pair(np.eye(m), np.eye(n), D, s, _tables(s))
    return np.negative(left, out=left), np.negative(right, out=right)


def cayley_orthogonalize(Q: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Solve (I + S/2) Q'^T = (I - S/2) Q^T for Q'.

    For skew S this is the Cayley transform applied to Q's columns and
    preserves orthogonality to working precision.  Since
    (I + S/2)^{-1} (I - S/2) = 2 (I + S/2)^{-1} - I, it is formed as
    Q' = 2 X^T - Q from one dense LU solve (I + S/2) X = Q^T with partial
    pivoting, and no product with I - S/2.
    """
    Q = _real_array("Q", Q)
    S = _real_array("S", S)
    if Q.ndim != 2 or S.shape != (Q.shape[1], Q.shape[1]):
        raise InputError("S must be square with side equal to Q's column count")
    side = Q.shape[1]
    try:
        X = np.linalg.solve(np.eye(side) + 0.5 * S, Q.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Cayley system is singular: {exc}") from exc
    return 2.0 * X.T - Q


def alg1_outer_step(state: SolverState, instance: IsvpInstance) -> SolverState:
    """One outer iteration of the Cayley baseline.

    On an iterate that a step has produced it first forms J_k and B_k
    (:func:`cayley_free._form_jacobian`).  The shift vector s_k, which
    replaces the targets inside the skew-matrix denominators, is sigma*
    at k = 0 and is formed from J_k and B_k after that; it is a value of
    the step, not of the state.  Two skew/Cayley correction rounds then
    bracket the two coefficient updates.  The new state carries ``B`` =
    B_k and no ``J``.  A non-finite update raises ``NumericalError``.
    """
    sigma = instance.sigma_star
    _form_jacobian(state, instance)
    c, U, V, B, J = state.c, state.U, state.V, state.B, state.J
    with np.errstate(over="ignore", invalid="ignore"):
        t = alg1_offset_vector(state.W) - sigma
        s = sigma if state.k == 0 else sigma + t - J @ (B @ t)
        _check_updated(("s", s))
        y = c - B @ t
        if not np.isfinite(y).all():
            raise NumericalError("first coefficient update is non-finite")
        A_y = evaluate_A(instance, y)
        D = U.T @ (A_y @ V)
        X, Y = alg1_skew_pair(D, s)
        Z = cayley_orthogonalize(U, X)
        N = cayley_orthogonalize(V, Y)
        W_y = Z.T @ (A_y @ N)
        sigma_bar = alg1_offset_vector(W_y)

        c_next = y - B @ (sigma_bar - sigma)
        if not np.isfinite(c_next).all():
            raise NumericalError("second coefficient update is non-finite")
        t_bar = sigma_bar - sigma
        s_bar = sigma + t_bar - J @ (B @ t_bar)

        A_next = evaluate_A(instance, c_next)
        D_bar = U.T @ (A_next @ V) - D + W_y
        X_bar, Y_bar = alg1_skew_pair(D_bar, s_bar)
        U_next = cayley_orthogonalize(Z, X_bar)
        V_next = cayley_orthogonalize(N, Y_bar)
        W_next = U_next.T @ (A_next @ V_next)
    _check_updated(("U", U_next), ("V", V_next))
    return SolverState(k=state.k + 1, c=c_next, W=W_next, U=U_next, V=V_next, B=B, J=None)


def alg1_solve(
    instance: IsvpInstance,
    c0,
    config: SolverConfig | None = None,
    c_star=None,
) -> SolveReport:
    """Run the Cayley baseline from :func:`cayley_free.two_step_start` at c0."""
    t_start = time.perf_counter()
    state = two_step_start(instance, c0)
    return _iterate(alg1_outer_step, state, instance, config, c_star, t_start)


def _newton_point(instance: IsvpInstance, c, k: int = 0) -> SolverState:
    """Newton's iterate ``k``, its start by default: the exact point at c
    (:func:`cayley_free._exact_point`) from the thin SVD, a plain state
    with an r x n ``U``, whose n x n ``W`` is Sigma and whose ``B`` stays
    ``None``.

    Singular values are matched to the targets by sorted order, so they
    must stay simple (gap above ``MIN_GAP``).
    """
    state = _exact_point(instance, c, k, full_matrices=False)
    gap = spectral_gap(np.diagonal(state.W))
    if gap <= MIN_GAP:
        raise NumericalError(f"singular values too close along the path (gap {gap:.3e})")
    return state


def _newton_step(state: SolverState, instance: IsvpInstance) -> SolverState:
    """Form the exact Jacobian J_k at c_k and write it onto ``state``,
    solve the Newton equation for f = diag(W) - sigma*, then evaluate
    the new point."""
    state.J = approx_jacobian(state.U, state.V, instance)
    f = np.diagonal(state.W) - instance.sigma_star
    try:
        delta = np.linalg.solve(state.J, -f)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Newton Jacobian is singular: {exc}") from exc
    return _newton_point(instance, state.c + delta, state.k + 1)


def newton_exact_solve(
    instance: IsvpInstance,
    c0,
    config: SolverConfig | None = None,
    c_star=None,
) -> SolveReport:
    """Classical Newton iteration on f(c) = sigma(c) - sigma*.

    Every iteration solves the Newton equation by dense LU, recomputes a
    thin SVD of A(c), whose U holds only the n singular vectors J reads,
    and forms the exact Jacobian from the exact singular vectors.  Each
    iterate is a plain :class:`cayley_free.SolverState`
    whose ``W`` is Sigma, so f is read off its diagonal.  A collision of
    singular values at c0 raises ``NumericalError``; later in the run it,
    like a singular Jacobian, ends the solve as ``DIVERGED``.
    """
    t_start = time.perf_counter()
    state = _newton_point(instance, c0)
    return _iterate(_newton_step, state, instance, config, c_star, t_start)
