"""Problem representation and shared numerical kernels.

An inverse singular value problem is described by basis matrices
A_0, ..., A_n (all m x n) and a strictly decreasing positive target
spectrum sigma*.  The affine family is A(c) = A_0 + sum_i c_i A_i and a
solution is any c whose singular values equal sigma*.  This module owns
the validated problem type with its two basis forms (a dense stack, and
the O(n) symmetric Toeplitz family with an FFT Jacobian), the matrix
family evaluation, the full SVD with a deterministic sign convention,
the approximate Jacobian [J]_ij = u_i^T A_j v_i, the generalized
residual vector used by the solvers, and the Frobenius residual
d = ||U^T A(c) V - Sigma*||_F.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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


# Bytes of A_j v_i products the dense Jacobian holds at once: a block of
# basis matrices this size stays in cache between its GEMM and its einsum.
_JACOBIAN_BLOCK_BYTES = 2 << 20


class DenseBasis:
    """A_0, ..., A_n stored once as one read-only (n+1, m, n) array.

    Takes ownership of ``stack`` and marks it read-only, so ``basis[k]``
    is a view of the one buffer and no caller can change it afterwards.
    A(c) is one GEMV over the stack.  The Jacobian walks the stack in
    blocks of about 2 MiB of products (one GEMM and one einsum each), so
    its working memory does not grow with the basis.
    """

    def __init__(self, stack: np.ndarray):
        _, m, n = stack.shape
        if m < n or n < 1:
            raise DimensionMismatch(f"require m >= n >= 1, got m={m}, n={n}")
        stack.flags.writeable = False
        self.basis = stack
        self.m, self.n = m, n

    @property
    def A0(self) -> np.ndarray:
        return self.basis[0]

    def evaluate(self, c: np.ndarray) -> np.ndarray:
        return self.basis[0] + np.tensordot(c, self.basis[1:], 1)

    def jacobian(self, Un: np.ndarray, Vn: np.ndarray) -> np.ndarray:
        m, n = self.m, self.n
        step = max(1, _JACOBIAN_BLOCK_BYTES // (m * n * 8))
        J = np.empty((n, n))
        # every block's products go into this one buffer, so one block is alive at a time
        buf = np.empty((min(step, n) * m, n))
        for j0 in range(0, n, step):
            block = self.basis[1 + j0 : 1 + j0 + step]
            k = len(block)
            # products[j, :, i] = A_{j0+j} @ v_i
            products = np.matmul(block.reshape(-1, n), Vn, out=buf[: k * m]).reshape(k, m, n)
            J[:, j0 : j0 + k] = np.einsum("ri,jri->ij", Un, products)
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
    def A0(self) -> np.ndarray:
        out = np.zeros((self.m, self.n))
        out.flags.writeable = False
        return out

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
    both give ``A0``, ``evaluate(c)``, ``jacobian(Un, Vn)`` and the dense
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
    def A0(self) -> np.ndarray:
        return self.operator.A0

    @property
    def basis(self) -> np.ndarray:
        return self.operator.basis


def build_instance(basis, sigma_star, min_gap: float = DEFAULT_MIN_GAP) -> IsvpInstance:
    """Validate raw inputs and construct a dense :class:`IsvpInstance`.

    The basis is copied into one new array.  Raises ``DimensionMismatch``
    for ragged bases or m < n, ``ArityMismatch`` when
    ``len(sigma_star) != len(basis) - 1``, ``NonpositiveSigma`` /
    ``DuplicateSigma`` when the targets violate strict positivity or the
    minimum-gap requirement.
    """
    mats = [np.asarray(a, dtype=float) for a in basis]
    if not mats:
        raise DimensionMismatch("basis must contain at least A_0")
    if mats[0].ndim != 2:
        raise DimensionMismatch("basis matrices must be two-dimensional")
    m, n = mats[0].shape
    for idx, a in enumerate(mats):
        if a.shape != (m, n):
            raise DimensionMismatch(
                f"basis[{idx}] has shape {a.shape}, expected {(m, n)}"
            )
        _require_finite(f"basis[{idx}]", a)
    operator = DenseBasis(np.stack(mats))
    size = np.size(sigma_star)
    if size != len(mats) - 1:
        raise ArityMismatch(
            f"sigma_star has {size} entries but basis defines {len(mats) - 1}"
        )
    return make_instance(operator, sigma_star, min_gap)


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


def full_svd(A) -> SvdFactorization:
    """Full SVD with a deterministic sign and completion convention.

    For each right singular vector the entry of largest magnitude is made
    positive (ties broken by lowest row index) and the paired left vector
    is flipped in tandem.  When m > n the trailing columns of U are a
    Householder-QR completion of the orthogonal complement of u_1..u_n,
    again sign-normalized, so reruns produce identical factors.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch("full_svd expects a matrix")
    m, n = A.shape
    if m < n:
        raise DimensionMismatch(f"require m >= n, got {A.shape}")
    _require_finite("A", A)
    try:
        U1, sigma, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    V = Vt.T
    cols = np.arange(n)
    pivots = np.argmax(np.abs(V), axis=0)
    signs = np.where(V[pivots, cols] < 0.0, -1.0, 1.0)
    V = V * signs
    U1 = U1 * signs
    if m > n:
        # Householder QR of U1: trailing columns of Q span the complement.
        Q = np.linalg.qr(U1, mode="complete")[0]
        tail = Q[:, n:]
        tcols = np.arange(m - n)
        tpivots = np.argmax(np.abs(tail), axis=0)
        tsigns = np.where(tail[tpivots, tcols] < 0.0, -1.0, 1.0)
        U = np.concatenate([U1, tail * tsigns], axis=1)
    else:
        U = U1
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

    With M = A_0 this is the corrected affine offset b; with M = A(c) and
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
    lines = [f"{instance.m} {instance.n}"]
    for a in instance.basis:
        for row in a:
            lines.append(" ".join(format(x, ".17g") for x in row))
    lines.append(" ".join(format(x, ".17g") for x in instance.sigma_star))
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write instance to {path}: {exc}") from exc


def load_instance(path, min_gap: float = DEFAULT_MIN_GAP) -> IsvpInstance:
    """Read the instance text format written by :func:`save_instance`."""
    try:
        fh = open(path)
    except OSError as exc:
        raise IoFailure(f"cannot read instance from {path}: {exc}") from exc
    with fh:
        try:
            m, n = (int(tok) for tok in fh.readline().split())
            values = np.loadtxt(fh, ndmin=2)
            expected = (n + 1) * m + 1
            if values.shape != (expected, n):
                raise ValueError(
                    f"expected {expected} data lines of {n} values, "
                    f"found {values.shape[0]} of {values.shape[1]}"
                )
        except (ValueError, OSError) as exc:
            raise IoFailure(f"malformed instance file {path}: {exc}") from exc
    # the basis rows become the instance's stack as they are, without a copy
    stack = values[:-1].reshape(n + 1, m, n)
    _require_finite("basis", stack)
    return make_instance(DenseBasis(stack), values[-1], min_gap)
