"""Cayley-free two-step solver.

Each outer iteration applies two multiplicative corrections to the
approximate singular vector matrices, two corrections to the coefficient
vector, and a Chebyshev recurrence on the approximate Jacobian inverse.
Unlike the Cayley-transform baseline this module performs no linear
solves and no matrix inversions: orthogonality of U and V is maintained
only to first order through the correction matrices, which is what makes
the per-iteration cost a handful of dense multiplications.

Both two-step methods build their corrections from one alignment kernel,
:func:`_alignment_pair`, filled entrywise over a partition of the index
pairs: the leading n x n block (gap-weighted mixing of W, U^T U and
V^T V), the two off blocks coupling the trailing rows of U (divisions by
single targets), the trailing off-diagonal block (half of U^T U's) and
the diagonals.  Its left and right halves are separate functions: on a
symmetric family, where U = V S holds (see :func:`initialize`), both
methods build only the right half, from :func:`_tied_input`.

The module also holds the stopping rule (:class:`SolverConfig`), the
iteration driver that the Cayley baseline and the Newton oracle share,
and the start both two-step methods share (:func:`two_step_start`).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    IsvpInstance,
    _is_integer,
    _is_real,
    _real_array,
    approx_jacobian,
    diag_embed,
    evaluate_A,
    full_svd,
    generalized_residual_vector,
    jacobian_inverse,
    residual_d,
)
from .errors import InputError, NonFiniteInput, NumericalError
from .report import IterationRecord, SolveReport, SolveStatus

# failures that end a solve as DIVERGED when an outer step raises them; kernels
# check their inputs, so an overflowed intermediate arrives as NonFiniteInput
_STEP_FAILURES = (NumericalError, NonFiniteInput)

# a solve diverges once d_k exceeds this multiple of max(d_0, 1)
_DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule shared by all solvers in this package.

    Iterations stop when the residual d_k drops to ``tol`` (a positive,
    finite real number, stored as a ``float``), when ``max_iter`` (an
    integer, at least 1, stored as an ``int``) outer iterations have
    run, or when d_k is non-finite or exceeds 1e6 times max(d_0, 1).
    """

    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not _is_real(self.tol):
            raise ValueError("tol must be a real number")
        object.__setattr__(self, "tol", float(self.tol))
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if not self.tol < np.inf:
            raise ValueError("tol must be finite")
        if not _is_integer(self.max_iter):
            raise ValueError("max_iter must be an integer")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _iterate(step, state, instance, config, c_star, t_start) -> SolveReport:
    """Run ``step(state, instance) -> state`` from the k = 0 ``state``
    until the stopping rule of ``config`` ends the solve.

    Every iterate gets one record: d_k from its ``W``, the time since the
    previous record (since ``t_start``, when the solve began, for k = 0)
    and, when ``c_star`` is given, the distance of c_k to it.  After the
    step from iterate k, record k holds the J_k that the step (or, at
    k = 0, the start) formed, or ``None`` where none was formed: the last
    iterate, unless a step from it formed J_k and then failed, and
    iterate 0 of a solve handed its B_0.  No Jacobian is formed for a
    record.  A step that raises one of the numerical
    failures ends the solve as ``DIVERGED``.
    """
    config = config or SolverConfig()
    records, status, t_prev = [], None, t_start
    while status is None:
        # a blowing-up iterate overflows here; the rule below reads d = inf as divergence
        with np.errstate(over="ignore", invalid="ignore"):
            d = residual_d(state.W, instance.sigma_star)
        t_now = time.perf_counter()
        rec = IterationRecord(k=state.k, d=d, wall_ms=(t_now - t_prev) * 1e3)
        t_prev = t_now
        if c_star is not None:
            rec.err_c = float(np.linalg.norm(state.c - c_star))
        records.append(rec)
        iterate = state
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
        rec.jacobian = iterate.J
    total_ms = (time.perf_counter() - t_start) * 1e3
    return SolveReport(status, records, c_final=state.c, iterations=state.k, total_ms=total_ms)


def _check_updated(*named: tuple[str, np.ndarray]) -> None:
    for name, a in named:
        if not np.isfinite(a).all():
            raise NumericalError(f"updated {name} is non-finite")


@dataclass
class SolverState:
    """Complete mutable state of one outer iteration.

    ``U`` is r x r and ``W`` = U^T A(c) V is r x n, over the ``instance.r``
    rows of A(c) that :func:`core.evaluate_A` returns (m for a dense basis,
    n for a Toeplitz one), except on a Newton iterate, which carries the
    thin factor: an r x n ``U`` and an n x n ``W``.  ``W`` is formed once
    per iterate: its diagonal is the paper's residual model J c + b, and
    the driver reads d_k off it.  At an exact point (see
    :func:`_exact_point`) ``W`` is Sigma, the singular values of A(c) on
    the diagonal of a zero matrix with as many rows as ``U`` has columns.
    ``B`` approximates the inverse of the approximate Jacobian ``J``; it
    is ``None`` from :func:`initialize` until the caller chooses B_0.
    Newton's iterates are exact points of this class too, and their
    ``B`` stays ``None``.
    At k = 0, ``J`` is J_0 only when the start formed it to build B_0:
    :func:`two_step_start`, the start of both two-step methods, does;
    :func:`solve`, handed its B_0, does not.  The Cayley-free step never
    reads it, and alg1's first step reads it in its second shift.

    On an iterate that a step has produced, ``J`` is ``None`` and ``B``
    still holds B_{k-1}: the step that starts from the iterate forms J_k
    and B_k and writes them onto it (see :func:`_form_jacobian`), so the
    last iterate of a solve never pays for them and its record holds no
    J_k.

    ``signs`` is set on a tied iterate of a two-step method, one whose
    ``U`` equals ``V * signs`` bit for bit on a symmetric family (see
    :func:`initialize`); its steps update ``V`` alone and keep the tie.
    Everywhere else it is ``None``.
    """

    k: int
    c: np.ndarray
    W: np.ndarray
    U: np.ndarray
    V: np.ndarray
    B: np.ndarray | None
    J: np.ndarray | None
    signs: np.ndarray | None = None


def _exact_point(instance: IsvpInstance, c, k: int, full_matrices: bool) -> SolverState:
    """Iterate ``k`` at ``c`` from the exact SVD of the r x n A(c) that
    :func:`core.evaluate_A` returns: ``U`` and ``V`` are its factors,
    and ``W`` = U^T A(c) V is Sigma = diag_embed(sigma, q), q the column
    count of ``U``, so no product with A(c) is formed.  ``B`` and ``J`` are ``None``.
    The state keeps a flat float copy of ``c``, checked by ``_real_array``.

    ``full_matrices`` is the caller's: a two-step start
    (:func:`initialize`) needs the trailing columns of an r x r ``U``,
    while a Newton iterate reads only ``U[:, :n]`` and takes the thin
    r x n factor, so q is r or n.

    The one place an exact SVD runs inside a solve: ``full_svd``, looked
    up in this module when called, which takes two half-size ``eigh``
    problems for a centrosymmetric block (every Toeplitz one) and
    LAPACK's SVD for any other.  It forms no Jacobian: a start that
    inverts J_0 forms it, and a later iterate has its J_k formed by the
    step that starts from it, if one does.
    """
    c = _real_array("c", c).reshape(-1).copy()
    factors = full_svd(evaluate_A(instance, c), full_matrices=full_matrices)
    W = diag_embed(factors.sigma, factors.U.shape[1])
    return SolverState(k=k, c=c, W=W, U=factors.U, V=factors.V, B=None, J=None)


def _tables(s: np.ndarray):
    """s^2, the gaps s_i^2 - s_j^2 (1 on the diagonal) and s_i s_j of the
    targets or shifts ``s``."""
    s2 = s * s
    den = s2[:, None] - s2[None, :]
    np.fill_diagonal(den, 1.0)
    return s2, den, s[:, None] * s[None, :]


@functools.lru_cache(maxsize=1)
def _target_tables(key: bytes):
    """:func:`_tables` of the targets whose float64 bytes are ``key``, as
    read-only arrays.

    They depend on the targets' values alone, so the tables of the last
    targets seen are kept: a solve builds them once, and a sigma* with
    other values, a changed one included, gets new ones.
    """
    tables = _tables(np.frombuffer(key))
    for table in tables:
        table.flags.writeable = False
    return tables


def _alignment_left(W, s, tables, Gu=None, Gv=None) -> np.ndarray:
    """The left r x r correction of the alignment equations for the r x n
    W = U^T M V, with Gram matrices Gu = U^T U and Gv = V^T V, targets or
    shifts ``s`` and their :func:`_tables`.  Gu = Gv = ``None`` stands for
    identity Gram, whose terms it skips: the result is the one that
    subtracting their exact zeros gives, bit for bit where s_i s_j > 0
    (elsewhere a zero entry may differ in sign)."""
    s2, den, ss = tables
    m, n = W.shape

    left = np.empty((m, m))
    # s_i W_ji + s_j W_ij is symmetric, so one product and its transpose give it
    sw = s[None, :] * W[:n, :n]
    block = left[:n, :n]
    np.add(sw.T, sw, out=block)
    if Gu is not None:
        block -= s2 * Gu[:n, :n]
        block -= ss * Gv
    block /= den
    if m > n:
        # the upper off block is the transpose of W[n:] / s; the lower is
        # Gu's block minus upper^T, and 0 - upper^T at identity Gram, so a
        # zero keeps the sign the Gram path gives it
        upper = left[:n, n:]
        np.divide(W[n:, :], s, out=upper.T)
        np.subtract(0.0 if Gu is None else Gu[n:, :n], upper.T, out=left[n:, :n])
        if Gu is None:
            left[n:, n:] = 0.0
        else:
            np.multiply(Gu[n:, n:], 0.5, out=left[n:, n:])
    # the diagonals of the leading and trailing blocks, in one pass
    np.fill_diagonal(left, 0.0 if Gu is None else 0.5 * (np.diagonal(Gu) - 1.0))
    return left


def _alignment_right(W, s, tables, Gun=None, Gv=None) -> np.ndarray:
    """The right n x n correction of the alignment equations for W, as
    :func:`_alignment_left`, from the leading n x n block Gun of U^T U
    and from Gv; ``None`` for both stands for identity Gram."""
    s2, den, ss = tables
    n = W.shape[1]
    sw = s[:, None] * W[:n, :n]
    right = sw + sw.T
    if Gv is not None:
        right -= ss * Gun
        right -= s2 * Gv
    right /= den
    np.fill_diagonal(right, 0.0 if Gv is None else 0.5 * (np.diagonal(Gv) - 1.0))
    return right


def _alignment_pair(W, s, tables, Gu=None, Gv=None) -> tuple[np.ndarray, np.ndarray]:
    """The correction pair (left r x r, right n x n) of the alignment
    equations: :func:`_alignment_left` and :func:`_alignment_right`."""
    n = W.shape[1]
    Gun = None if Gu is None else Gu[:n, :n]
    return _alignment_left(W, s, tables, Gu, Gv), _alignment_right(W, s, tables, Gun, Gv)


def _tied_input(W: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """S (S W + (S W)^T) / 2 for the n x n W = U^T M V of a tied iterate,
    U = V S with S = diag(``signs``) and M symmetric.

    There S W = V^T M V is symmetric in exact arithmetic, and the left
    correction equals S right S, so U (I - left) = V (I - right) S: one
    factor update serves both.  The computed S W is symmetric only to
    roundoff, and a right correction from the raw W keeps that error in
    every step, which leaves d_k on a floor some ten times higher than the
    untied path's; from the symmetric part it reaches the same floor."""
    H = signs[:, None] * W
    H += H.T
    H *= 0.5 * signs[:, None]
    return H


def correction_matrices(
    U: np.ndarray, V: np.ndarray, W: np.ndarray, sigma_star: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Build the correction pair (left, right) from U, V and W = U^T A(c) V.

    The pair satisfies left + left^T = U^T U - I and
    right + right^T = V^T V - I up to roundoff, and solves the linearized
    alignment equations on the leading-column index pairs.  The trailing
    off-diagonal block of ``left`` is half of U^T U's, symmetric bit for
    bit: numpy forms U^T U of a C-ordered U by one symmetric rank-k update.
    The target tables come from :func:`_target_tables`, keyed by value.
    """
    m = U.shape[0]
    n = V.shape[0]
    if U.shape != (m, m) or V.shape != (n, n) or W.shape != (m, n) or m < n:
        raise InputError("correction_matrices expects U m x m, V n x n, W m x n, m >= n")
    for name, a in (("U", U), ("V", V), ("W", W)):
        _real_array(name, a)
    s = _real_array("sigma_star", sigma_star)
    if s.shape != (n,):
        raise InputError(f"sigma_star must have shape ({n},), got {s.shape}")
    # numpy takes its symmetric rank-k path only for a U it need not copy first
    U = np.ascontiguousarray(U)
    return _alignment_pair(W, s, _target_tables(s.tobytes()), U.T @ U, V.T @ V)


def _tied_correction(V: np.ndarray, W: np.ndarray, signs: np.ndarray, sigma_star) -> np.ndarray:
    """The right correction of a tied iterate (U = V S, S = diag(``signs``),
    M symmetric) from :func:`_tied_input` of W, with the leading block of
    U^T U taken as S V^T V S, so U^T U is never formed."""
    Gv = V.T @ V
    Gun = signs[:, None] * Gv * signs
    tables = _target_tables(sigma_star.tobytes())
    return _alignment_right(_tied_input(W, signs), sigma_star, tables, Gun, Gv)


def multiplicative_refine(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Apply the first-order inverse update M (I - C) = M - M C."""
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] != M.shape[1]:
        raise InputError("C must be square with side equal to M's column count")
    return M - M @ C


def chebyshev_update(B: np.ndarray, J_next: np.ndarray) -> np.ndarray:
    """Chebyshev recurrence B' = B + B (2I - J'B)(I - J'B).

    In exact arithmetic I - B'J' = (I - B J')^3, which is what drives the
    cubic root-convergence of the outer loop.  B and J' must be square
    with the same side, else ``InputError``.
    """
    if B.ndim != 2 or B.shape != J_next.shape or B.shape[0] != B.shape[1]:
        raise InputError("chebyshev_update expects B and J' square with the same side")
    n = B.shape[0]
    # R = I - J'B as 0 - J'B, then 1 on its diagonal (1 + (0 - x) is 1 - x):
    # no identity matrix is built, and no off-diagonal zero turns to -0
    R = np.subtract(0.0, J_next @ B)
    R.reshape(-1)[:: n + 1] += 1.0
    S = R.copy()
    S.reshape(-1)[:: n + 1] += 1.0
    return B + B @ (S @ R)


def _form_jacobian(state: SolverState, instance: IsvpInstance) -> None:
    """On an iterate that a step has produced (k >= 1 and ``J`` is
    ``None``), form J_k and B_k = chebyshev_update(B_{k-1}, J_k) and write
    both onto ``state``.  At k = 0 it forms nothing: ``B`` is the
    caller's B_0, and the first Jacobian the Cayley-free iteration
    reads is J_1.
    ``J`` is written first, so it reaches the record even when a
    non-finite J_k or B_k raises ``NumericalError``.
    """
    if state.J is not None or state.k == 0:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        state.J = approx_jacobian(state.U, state.V, instance)
        B = chebyshev_update(state.B, state.J)
    _check_updated(("B", B), ("J", state.J))
    state.B = B


def _refined_pair(U, V, W, sigma_star, signs):
    """U (I - X) and V (I - Y) for the correction pair (X, Y) of W; on a
    tied iterate (``signs`` set) only V's, from :func:`_tied_correction`,
    and U = V S."""
    if signs is None:
        X, Y = correction_matrices(U, V, W, sigma_star)
        return multiplicative_refine(U, X), multiplicative_refine(V, Y)
    V = multiplicative_refine(V, _tied_correction(V, W, signs, sigma_star))
    return V * signs, V


def outer_step(state: SolverState, instance: IsvpInstance) -> SolverState:
    """Advance one outer iteration.

    Substeps: J_k and B_k, on an iterate that a step has produced (see
    :func:`_form_jacobian`); first coefficient update from J c + b, the
    diagonal of W; first correction pair from U^T A V at the predicted
    point; refinement; second coefficient update from the refined
    residual rho; second correction pair from the updated point; second
    refinement; new W.  On a tied iterate each refinement updates V
    alone and sets U = V S (:func:`_refined_pair`).  The new state
    carries ``B`` = B_k, no ``J`` and the iterate's ``signs``.
    A non-finite update raises ``NumericalError``.
    """
    _form_jacobian(state, instance)
    sigma = instance.sigma_star
    c, U, V, B = state.c, state.U, state.V, state.B
    with np.errstate(over="ignore", invalid="ignore"):
        c_bar = c - B @ generalized_residual_vector(U, V, np.diagonal(state.W), sigma)
        if not np.isfinite(c_bar).all():
            raise NumericalError("first coefficient update is non-finite")
        A_bar = evaluate_A(instance, c_bar)
        W = U.T @ (A_bar @ V)
        U_bar, V_bar = _refined_pair(U, V, W, sigma, state.signs)

        w_bar = np.einsum("ji,ji->i", U_bar[:, : sigma.size], A_bar @ V_bar)
        rho = generalized_residual_vector(U_bar, V_bar, w_bar, sigma)
        c_next = c_bar - B @ rho
        if not np.isfinite(c_next).all():
            raise NumericalError("second coefficient update is non-finite")
        A_next = evaluate_A(instance, c_next)
        W_bar = U_bar.T @ (A_next @ V_bar)
        U_next, V_next = _refined_pair(U_bar, V_bar, W_bar, sigma, state.signs)
        W_next = U_next.T @ (A_next @ V_next)
    _check_updated(("U", U_next), ("V", V_next))
    return SolverState(
        k=state.k + 1, c=c_next, W=W_next, U=U_next, V=V_next, B=B, J=None, signs=state.signs
    )


def initialize(instance: IsvpInstance, c0) -> SolverState:
    """The k = 0 state: the exact point at c0 (:func:`_exact_point`),
    with the full r x r ``U`` a two-step method updates, and ``W`` Sigma.

    On a family that its basis declares symmetric (every A(c) square
    and symmetric, as a Toeplitz one is), the start is tied when its
    ``U`` equals ``V * signs`` bit for bit, ``signs`` the signs of the
    eigenvalues, as :func:`core.full_svd`'s eigendecomposition gives it
    at even n.  Then ``signs`` goes on the state, and every step keeps
    U = V diag(signs) (Chu and Golub, *Inverse Eigenvalue Problems*,
    OUP 2005: on a symmetric family the ISVP is an inverse eigenvalue
    problem).  Any other start, an odd-n one from LAPACK's SVD
    included, leaves ``signs`` ``None``.

    ``B`` and ``J`` are left ``None``.  The caller sets B_0:
    :func:`two_step_start` builds it from J_0 and keeps J_0 on the state
    too, while :func:`solve` takes the caller's and forms no J_0, so its
    record 0 holds none.
    """
    state = _exact_point(instance, c0, 0, full_matrices=True)
    if instance.operator.symmetric:
        signs = np.where(np.einsum("ij,ij->j", state.U, state.V) < 0.0, -1.0, 1.0)
        if np.array_equal(state.U, state.V * signs):
            state.signs = signs
    return state


def two_step_start(instance: IsvpInstance, c0) -> SolverState:
    """The k = 0 state of both two-step methods: :func:`initialize` at c0,
    with ``J`` = J_0 and ``B`` = B_0 = :func:`core.jacobian_inverse` of it.
    A singular J_0 raises ``NumericalError``."""
    state = initialize(instance, c0)
    state.J = approx_jacobian(state.U, state.V, instance)
    state.B = jacobian_inverse(state.J)
    return state


def solve(
    instance: IsvpInstance,
    c0,
    B0,
    config: SolverConfig | None = None,
    c_star=None,
) -> SolveReport:
    """Run the Cayley-free iteration from c0 with the supplied B0.

    Returns a report whose records include the k = 0 diagnostics.  The
    iteration never reads J_0, so the solve never forms it, and record 0's
    ``cond_j`` is ``None``.  A numerical failure inside an outer step becomes
    a ``DIVERGED`` status rather than an exception.  When ``c_star`` is
    given, records carry the distance to it.
    """
    t_start = time.perf_counter()
    B0 = _real_array("B0", B0)
    if B0.shape != (instance.n, instance.n):
        raise InputError(f"B0 must be {instance.n} x {instance.n}")
    state = initialize(instance, c0)
    state.B = B0.copy()
    return _iterate(outer_step, state, instance, config, c_star, t_start)
