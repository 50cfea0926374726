"""Problem representation and shared numerical kernels.

An inverse singular value problem is described by basis matrices
A_0, ..., A_n (all m x n) and a strictly decreasing positive target
spectrum sigma*.  The affine family is A(c) = A_0 + sum_i c_i A_i and a
solution is any c whose singular values equal sigma*.  This module owns
the validated problem type with its two basis forms (a dense row-major
array, and the O(n) symmetric Toeplitz family with an FFT Jacobian), the
matrix family evaluation, the full SVD with a deterministic sign
convention, the approximate Jacobian [J]_ij = u_i^T A_j v_i, the
generalized residual vector used by the solvers, and the Frobenius
residual d = ||U^T A(c) V - Sigma*||_F.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityMismatch,
    DimensionMismatch,
    DuplicateSigma,
    IoFailure,
    NonFiniteInput,
    NonpositiveSigma,
    NumericalFailure,
)

DEFAULT_MIN_GAP = 1e-10


def _require_finite(name: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput(f"{name} contains NaN or infinity")


# Bytes of u_i^T A_j products the dense Jacobian holds at once: each
# block of basis matrices this size stays in cache between its GEMM and
# its einsum.
_JACOBIAN_BLOCK_BYTES = 2 << 20


class DenseBasis:
    """A_0, ..., A_n stored once, row-major, as one read-only (m, n+1, n) array.

    ``rows[r, k]`` is row r of A_k, and ``basis`` is the (n+1, m, n) view
    of the same buffer, so ``basis[k]`` is A_k without a copy.  Takes
    ownership of ``rows`` and marks it read-only, so no caller can change
    it afterwards.  A(c) is one GEMV per row.  The Jacobian walks the
    matrices in blocks of about 2 MiB of products, each one GEMM of U_n^T
    against the (m, k n) view of the block (inner dimension m) and one
    einsum against V_n, so its working memory does not grow with the
    basis.
    """

    def __init__(self, rows: np.ndarray):
        m, depth, n = rows.shape
        if m < n or n < 1:
            raise DimensionMismatch(f"require m >= n >= 1, got m={m}, n={n}")
        if depth != n + 1:
            raise ArityMismatch(f"n={n} needs {n + 1} basis matrices, got {depth}")
        rows.flags.writeable = False
        self.rows = rows
        self.basis = rows.transpose(1, 0, 2)
        self.m, self.n = m, n

    def evaluate(self, c: np.ndarray) -> np.ndarray:
        return self.rows[:, 0] + c @ self.rows[:, 1:]

    def jacobian(self, Un: np.ndarray, Vn: np.ndarray) -> np.ndarray:
        m, n = self.m, self.n
        step = max(1, _JACOBIAN_BLOCK_BYTES // (n * n * 8))
        J = np.empty((n, n))
        # every block's products go into this one buffer, so one block is alive at a time
        buf = np.empty(n * min(step, n) * n)
        for j0 in range(0, n, step):
            block = self.rows[:, 1 + j0 : 1 + j0 + step]
            k = block.shape[1]
            # products[i, j, s] = (u_i^T A_{j0+j})_s
            products = np.matmul(
                Un.T, block.reshape(m, k * n), out=buf[: n * k * n].reshape(n, k * n)
            )
            J[:, j0 : j0 + k] = np.einsum("ijs,si->ij", products.reshape(n, k, n), Vn)
        return J


class ToeplitzBasis:
    """A_0 = 0 and A_k the (k-1)-th symmetric Toeplitz shift, zero-padded
    to m x n: [A_k]_rs = 1 where |r - s| = k - 1 and r, s < n.

    Only (m, n) is stored.  A(c) is the n x n symmetric Toeplitz matrix
    with first column c over m - n zero rows, and u^T A_k v is a
    cross-correlation of the leading n entries of u and v, so the whole
    Jacobian comes from one FFT per factor.
    """

    def __init__(self, m: int, n: int):
        if m < n or n < 1:
            raise DimensionMismatch(f"require m >= n >= 1, got m={m}, n={n}")
        self.m, self.n = m, n

    @property
    def basis(self) -> np.ndarray:
        """The dense (n+1, m, n) stack, built anew on every access."""
        m, n = self.m, self.n
        out = np.zeros((n + 1, m, n))
        idx = np.arange(n)
        for k in range(n):
            out[k + 1, idx[: n - k], idx[k:]] = 1.0
            out[k + 1, idx[k:], idx[: n - k]] = 1.0
        out.flags.writeable = False
        return out

    def evaluate(self, c: np.ndarray) -> np.ndarray:
        # Each entry of the dense sum has one term c_k * 1 and adds exact
        # zeros otherwise, so writing c[|r - s|] is bit-identical to it.
        n = self.n
        out = np.zeros((self.m, n))
        mirrored = np.concatenate([c[:0:-1], c])  # c_{n-1} .. c_1, c_0 .. c_{n-1}
        out[:n] = np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1]
        return out

    def jacobian(self, Un: np.ndarray, Vn: np.ndarray) -> np.ndarray:
        # J[i, k] = sum_r u_r v_{r+k} + u_{r+k} v_r over the leading n rows
        # (the identity k = 0 counts once).  Its spectrum is
        # 2 Re(conj(F u) F v); a length of at least 2n keeps the circular
        # correlation free of wrap-around.
        n = self.n
        size = 1 << (2 * n - 1).bit_length()
        fu = np.fft.rfft(Un[:n], size, axis=0)
        fv = np.fft.rfft(Vn, size, axis=0)
        corr = np.fft.irfft(2.0 * (fu.conj() * fv).real, size, axis=0)[:n]
        corr[0] *= 0.5
        return np.ascontiguousarray(corr.T)


@dataclass(frozen=True)
class IsvpInstance:
    """Immutable problem statement: basis operator plus target spectrum.

    ``operator`` is a :class:`DenseBasis` or a :class:`ToeplitzBasis`;
    both give ``evaluate(c)``, ``jacobian(Un, Vn)`` and the dense
    ``basis`` stack, whose entry 0 is the affine offset A_0 and entries
    1..n are the coefficient matrices A_1, ..., A_n, all of shape (m, n)
    with m >= n.  ``sigma_star`` holds the n targets, strictly decreasing
    and positive with consecutive gaps (and the gap to zero) above
    ``min_gap``.
    """

    operator: DenseBasis | ToeplitzBasis
    sigma_star: np.ndarray
    min_gap: float = DEFAULT_MIN_GAP

    @property
    def m(self) -> int:
        return self.operator.m

    @property
    def n(self) -> int:
        return self.operator.n

    @property
    def basis(self) -> np.ndarray:
        return self.operator.basis


def build_instance(basis, sigma_star, min_gap: float = DEFAULT_MIN_GAP) -> IsvpInstance:
    """Validate raw inputs and construct a dense :class:`IsvpInstance`.

    The basis is copied, one matrix at a time, into one new row-major
    array.  Raises ``DimensionMismatch`` for ragged bases or m < n,
    ``ArityMismatch`` when the basis does not hold n + 1 matrices or
    ``sigma_star`` does not hold n values, ``NonpositiveSigma`` /
    ``DuplicateSigma`` when the targets violate strict positivity or the
    minimum-gap requirement.
    """
    mats = list(basis)
    if not mats:
        raise DimensionMismatch("basis must contain at least A_0")
    first = np.asarray(mats[0], dtype=float)
    if first.ndim != 2:
        raise DimensionMismatch("basis matrices must be two-dimensional")
    m, n = first.shape
    rows = np.empty((m, len(mats), n))
    for idx, a in enumerate(mats):
        a = np.asarray(a, dtype=float)
        if a.shape != (m, n):
            raise DimensionMismatch(
                f"basis[{idx}] has shape {a.shape}, expected {(m, n)}"
            )
        _require_finite(f"basis[{idx}]", a)
        rows[:, idx] = a
    return make_instance(DenseBasis(rows), sigma_star, min_gap)


def make_instance(
    operator: DenseBasis | ToeplitzBasis, sigma_star, min_gap: float = DEFAULT_MIN_GAP
) -> IsvpInstance:
    """Validate the targets against a basis operator and construct the instance."""
    n = operator.n
    sigma = np.array(sigma_star, dtype=float, copy=True).reshape(-1)
    if sigma.size != n:
        raise ArityMismatch(f"sigma_star must have n={n} entries, got {sigma.size}")
    _require_finite("sigma_star", sigma)
    if np.any(sigma <= 0.0):
        raise NonpositiveSigma("target singular values must be strictly positive")
    gaps = np.diff(-np.concatenate([sigma, [0.0]]))
    if np.any(gaps <= min_gap):
        raise DuplicateSigma(
            f"minimum target gap {gaps.min():.3e} is not above min_gap={min_gap:.3e}"
        )
    sigma.flags.writeable = False
    return IsvpInstance(operator=operator, sigma_star=sigma, min_gap=min_gap)


def diag_embed(sigma: np.ndarray, m: int) -> np.ndarray:
    """Embed a length-n vector as the m x n diagonal matrix."""
    n = sigma.size
    out = np.zeros((m, n))
    out[np.arange(n), np.arange(n)] = sigma
    return out


def evaluate_A(instance: IsvpInstance, c) -> np.ndarray:
    """Evaluate A(c) = A_0 + sum_i c_i A_i.

    The result is bit-identical across repeated evaluations.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.size != instance.n:
        raise DimensionMismatch(f"c must have length {instance.n}, got {c.size}")
    _require_finite("c", c)
    return instance.operator.evaluate(c)


@dataclass(frozen=True)
class SvdFactorization:
    """Full SVD A = U diag(sigma) V^T with U m x m, V n x n, sigma decreasing."""

    U: np.ndarray
    V: np.ndarray
    sigma: np.ndarray


def _pivot_signs(X: np.ndarray) -> np.ndarray:
    """-1 for each column of X whose entry of largest magnitude (lowest
    row index on ties) is negative, +1 otherwise."""
    pivots = np.argmax(np.abs(X), axis=0)
    return np.where(X[pivots, np.arange(X.shape[1])] < 0.0, -1.0, 1.0)


def full_svd(A) -> SvdFactorization:
    """Full SVD with a deterministic sign convention, from one LAPACK call.

    For each right singular vector the entry of largest magnitude is made
    positive (ties broken by lowest row index) and the paired left vector
    is flipped in tandem.  When m > n the trailing columns of U are the
    orthonormal completion LAPACK returns with the full SVD, each
    sign-normalized by the same rule, so reruns produce identical factors.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch("full_svd expects a matrix")
    m, n = A.shape
    if m < n:
        raise DimensionMismatch(f"require m >= n, got {A.shape}")
    _require_finite("A", A)
    try:
        U, sigma, Vt = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    signs = _pivot_signs(Vt.T)
    V = Vt.T * signs
    U *= np.concatenate([signs, _pivot_signs(U[:, n:])])
    return SvdFactorization(U=U, V=V, sigma=sigma)


def approx_jacobian(U: np.ndarray, V: np.ndarray, instance: IsvpInstance) -> np.ndarray:
    """Approximate Jacobian [J]_ij = u_i^T A_j v_i from the leading columns of U, V."""
    n = instance.n
    _require_finite("U", U)
    _require_finite("V", V)
    return instance.operator.jacobian(U[:, :n], V[:, :n])


def generalized_residual_vector(
    U: np.ndarray, V: np.ndarray, M: np.ndarray, sigma_star: np.ndarray
) -> np.ndarray:
    """Entries g_i = u_i^T M v_i - sigma*_i (u_i^T u_i + v_i^T v_i) / 2.

    It is affine in c: with M = A(c) it equals J c + g(U, V, A_0), the
    residual model that drives the first coefficient update; with
    refined vectors it is the second-step residual rho.
    """
    n = sigma_star.size
    Un = U[:, :n]
    Vn = V[:, :n]
    diag = np.einsum("ji,ji->i", Un, M @ Vn)
    uu = np.einsum("ji,ji->i", Un, Un)
    vv = np.einsum("ji,ji->i", Vn, Vn)
    return diag - 0.5 * sigma_star * (uu + vv)


def residual_d(
    U: np.ndarray, V: np.ndarray, A_of_c: np.ndarray, sigma_star: np.ndarray
) -> float:
    """Frobenius residual d = ||U^T A(c) V - Sigma*||_F."""
    n = sigma_star.size
    M = U.T @ (A_of_c @ V)
    M[np.arange(n), np.arange(n)] -= sigma_star
    return float(np.linalg.norm(M))


def save_instance(instance: IsvpInstance, path) -> None:
    """Write the instance text format.

    Line 1 holds "m n"; then n+1 blocks of m lines with n space-separated
    values each (row-major A_0..A_n); the final line holds sigma*.  Values
    carry 17 significant digits so a round-trip is exact.  Every basis
    form is written densely, so a Toeplitz instance reads back as a dense
    one with the same A(c).
    """
    try:
        with open(path, "w") as fh:
            fh.write(f"{instance.m} {instance.n}\n")
            for a in instance.basis:
                np.savetxt(fh, a, fmt="%.17g")
            np.savetxt(fh, instance.sigma_star[None], fmt="%.17g")
    except OSError as exc:
        raise IoFailure(f"cannot write instance to {path}: {exc}") from exc


def _read_block(fh, shape: tuple[int, int], what: str, max_rows: int | None = None):
    """Parse the next ``max_rows`` data lines of ``fh`` (all that are left
    for None) and require them to form an array of ``shape``."""
    block = np.loadtxt(fh, max_rows=max_rows, ndmin=2)
    if block.shape != shape:
        raise ValueError(
            f"{what}: expected {shape[0]} lines of {shape[1]} values, "
            f"found {block.shape[0]} of {block.shape[1]}"
        )
    return block


def load_instance(path, min_gap: float = DEFAULT_MIN_GAP) -> IsvpInstance:
    """Read the instance text format written by :func:`save_instance`.

    Each basis matrix is parsed on its own and written straight into the
    instance's row-major array, so loading holds one basis-sized array.
    """
    try:
        fh = open(path)
    except OSError as exc:
        raise IoFailure(f"cannot read instance from {path}: {exc}") from exc
    with fh, warnings.catch_warnings():
        # loadtxt only warns when the file ends before a block; that is malformed too
        warnings.simplefilter("error", UserWarning)
        try:
            m, n = (int(tok) for tok in fh.readline().split())
            # every value takes at least one digit and one separator; a pipe
            # reports size 0, so only the allocation can reject its header
            if 0 < os.fstat(fh.fileno()).st_size < 2 * ((n + 1) * m * n + n):
                raise ValueError(f"header {m} {n} asks for more values than the file holds")
            rows = np.empty((m, n + 1, n))
            for k in range(n + 1):
                rows[:, k] = _read_block(fh, (m, n), f"A_{k}", max_rows=m)
            sigma = _read_block(fh, (1, n), "sigma*")[0]
        except (ValueError, OSError, UserWarning, MemoryError) as exc:
            raise IoFailure(f"malformed instance file {path}: {exc}") from exc
    _require_finite("basis", rows)
    return make_instance(DenseBasis(rows), sigma, min_gap)
