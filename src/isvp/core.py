"""Problem representation and shared numerical kernels.

An inverse singular value problem is described by basis matrices
A_0, ..., A_n (all m x n) and a strictly decreasing positive target
spectrum sigma*.  The affine family is A(c) = A_0 + sum_i c_i A_i and a
solution is any c whose singular values equal sigma*.  This module owns
the validated problem type with its two basis forms (a dense row-major
array, and the O(n) symmetric Toeplitz family with an FFT Jacobian), the
matrix family evaluation on the rows A(c) can fill, the full or thin
SVD (two half-size symmetric eigendecompositions for a centrosymmetric
matrix of even side, and LAPACK's SVD for any other), the approximate
Jacobian [J]_ij = u_i^T A_j v_i and its one inverse at the start, the
generalized residual vector used by the solvers, and the Frobenius
residual d = ||U^T A(c) V - Sigma*||_F.
"""

from __future__ import annotations

import numbers
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonFiniteInput, NumericalError

# singular values closer than this, or this close to zero, collide
MIN_GAP = 1e-10


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_shape(m, n) -> tuple[int, int]:
    """(m, n) as ints if both are integers, not bools, with m >= n >= 1."""
    if not (_is_integer(m) and _is_integer(n)):
        raise InputError(f"m and n must be integers, got m={m!r}, n={n!r}")
    if m < n or n < 1:
        raise InputError(f"require m >= n >= 1, got m={m}, n={n}")
    return int(m), int(n)


def _real_array(name: str, a) -> np.ndarray:
    """``a`` as a finite float array, else an ``InputError`` naming ``name``."""
    try:
        a = np.asarray(a)
    except ValueError as exc:
        raise InputError(f"{name} must be a rectangular array: {exc}") from exc
    if a.dtype.kind not in "iuf":
        raise InputError(f"{name} must hold real numbers, not {a.dtype}")
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} contains NaN or infinity")
    return a.astype(float, copy=False)


# Bytes of u_i^T A_j products the dense Jacobian holds at once.  Each
# panel of basis matrices is one GEMM, and every GEMM packs U_n^T and
# starts the BLAS threads again, so fewer, wider panels are faster: at
# 400 x 200 (2 OpenBLAS threads) 8 MiB panels, 8 GEMMs per J, form J
# about 11% faster than 2 MiB ones (34 GEMMs), and 16 MiB is within
# noise of 8 MiB.
_JACOBIAN_BLOCK_BYTES = 8 << 20


class DenseBasis:
    """A_0, ..., A_n stored once, row-major, as one read-only (m, n+1, n) array.

    ``rows[i, k]`` is row i of A_k, and ``basis`` is the (n+1, m, n) view
    of the same buffer, so ``basis[k]`` is A_k without a copy.  Takes
    ownership of ``rows`` and marks it read-only, so no caller can change
    it afterwards.  A(c) may fill every row, so ``r = m``, and A(c) is
    one GEMV per row.  The Jacobian walks the matrices in panels of at
    most ``_JACOBIAN_BLOCK_BYTES`` of products, each one GEMM of U^T
    against the (m, k n) view of the panel (inner dimension m) and one
    batched matmul against V_n (a k x n GEMV with v_i for each i), so its
    working memory does not grow with the basis.  The cap is set for
    fewer, wider GEMMs, each of which pays a fixed packing and threading
    cost; (m, n) fixes the split, and with it the order of J's sums.
    """

    def __init__(self, rows: np.ndarray):
        m, depth, n = rows.shape
        _check_shape(m, n)
        if depth != n + 1:
            raise InputError(f"n={n} needs {n + 1} basis matrices, got {depth}")
        rows.flags.writeable = False
        self.rows = rows
        self.basis = rows.transpose(1, 0, 2)
        self.m, self.n, self.r = m, n, m

    def evaluate(self, c: np.ndarray) -> np.ndarray:
        return self.rows[:, 0] + c @ self.rows[:, 1:]

    def jacobian(self, Un: np.ndarray, Vn: np.ndarray) -> np.ndarray:
        m, n = self.m, self.n
        step = max(1, _JACOBIAN_BLOCK_BYTES // (n * n * 8))
        J = np.empty((n, n))
        # every panel's products go into this one buffer, so one panel is alive at a time
        buf = np.empty(n * min(step, n) * n)
        for j0 in range(0, n, step):
            panel = self.rows[:, 1 + j0 : 1 + j0 + step]
            k = panel.shape[1]
            # products[i, j, s] = (u_i^T A_{j0+j})_s
            products = np.matmul(
                Un.T, panel.reshape(m, k * n), out=buf[: n * k * n].reshape(n, k * n)
            )
            # J[i, j0 + j] = products[i, j] . v_i: n GEMVs of size k x n, one per i
            np.matmul(products.reshape(n, k, n), Vn.T[:, :, None], out=J[:, j0 : j0 + k, None])
        return J


def _fft_length(n: int) -> int:
    """FFT length of a linear correlation of two n-vectors: the smallest
    length >= 2n - 1 whose only prime factors are 2, 3 and 5."""
    size = 2 * n - 1
    while True:
        rest = size
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


class ToeplitzBasis:
    """A_0 = 0 and A_k the (k-1)-th symmetric Toeplitz shift, zero-padded
    to m x n: [A_k]_rs = 1 where |r - s| = k - 1 and r, s < n.

    Only (m, n) is stored.  The rows of A(c) below n are zero, so
    ``r = n`` and ``evaluate`` returns the n x n symmetric Toeplitz
    matrix with first column c; it equals its transpose and its reversal
    bit for bit (it is centrosymmetric), so at even n :func:`full_svd`
    factors it from two half-size ``eigh`` problems and runs no SVD.
    u^T A_k v is a cross-correlation of the leading n entries of u and v,
    so the whole Jacobian comes from one FFT per factor.
    """

    def __init__(self, m: int, n: int):
        m, n = _check_shape(m, n)
        self.m, self.n, self.r = m, n, n

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
        mirrored = np.concatenate([c[:0:-1], c])  # c_{n-1} .. c_1, c_0 .. c_{n-1}
        window = np.lib.stride_tricks.sliding_window_view(mirrored, self.n)
        return np.ascontiguousarray(window[::-1])

    def jacobian(self, Un: np.ndarray, Vn: np.ndarray) -> np.ndarray:
        # J[i, k] = sum_r u_r v_{r+k} + u_{r+k} v_r over the leading n rows
        # (the identity k = 0 counts once).  Its spectrum is
        # 2 Re(conj(F u) F v); a length of at least 2n - 1 keeps the circular
        # correlation free of wrap-around.
        n = self.n
        size = _fft_length(n)
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
    with m >= n.  Rows r and beyond of every A(c) are zero, and the form
    states ``r``: m for a dense basis, n for a Toeplitz one.
    :func:`evaluate_A` returns only the leading r rows, so the two-step
    methods carry an r x r ``U`` and the Newton oracle an r x n one, from
    :func:`full_svd` of those rows.
    ``sigma_star`` holds the n targets, strictly decreasing and positive
    with a :func:`spectral_gap` above ``MIN_GAP``.
    """

    operator: DenseBasis | ToeplitzBasis
    sigma_star: np.ndarray

    @property
    def m(self) -> int:
        return self.operator.m

    @property
    def n(self) -> int:
        return self.operator.n

    @property
    def r(self) -> int:
        return self.operator.r

    @property
    def basis(self) -> np.ndarray:
        return self.operator.basis


def spectral_gap(sigma: np.ndarray) -> float:
    """Smallest gap of a decreasing spectrum, the gap to zero included."""
    return float(np.diff(-np.concatenate([sigma, [0.0]])).min())


def build_instance(basis, sigma_star) -> IsvpInstance:
    """Validate raw inputs and construct a dense :class:`IsvpInstance`.

    The basis is copied, one matrix at a time, into one new row-major
    array.  Raises ``InputError`` for ragged bases or m < n, when the
    basis does not hold n + 1 matrices or ``sigma_star`` does not hold n
    values, and when the targets are not positive or a gap is at most
    ``MIN_GAP``.
    """
    mats = list(basis)
    if not mats:
        raise InputError("basis must contain at least A_0")
    if np.ndim(mats[0]) != 2:
        raise InputError("basis matrices must be two-dimensional")
    m, n = np.shape(mats[0])
    rows = np.empty((m, len(mats), n))
    for idx, a in enumerate(mats):
        a = _real_array(f"basis[{idx}]", a)
        if a.shape != (m, n):
            raise InputError(
                f"basis[{idx}] has shape {a.shape}, expected {(m, n)}"
            )
        rows[:, idx] = a
    return make_instance(DenseBasis(rows), sigma_star)


def make_instance(operator: DenseBasis | ToeplitzBasis, sigma_star) -> IsvpInstance:
    """Validate the targets against a basis operator and construct the instance."""
    n = operator.n
    sigma = _real_array("sigma_star", sigma_star).flatten()
    if sigma.size != n:
        raise InputError(f"sigma_star must have n={n} entries, got {sigma.size}")
    if np.any(sigma <= 0.0):
        raise InputError("target singular values must be strictly positive")
    gap = spectral_gap(sigma)
    if gap <= MIN_GAP:
        raise InputError(f"minimum target gap {gap:.3e} is not above {MIN_GAP:.0e}")
    sigma.flags.writeable = False
    return IsvpInstance(operator=operator, sigma_star=sigma)


def diag_embed(sigma: np.ndarray, m: int) -> np.ndarray:
    """Embed a length-n vector as the m x n diagonal matrix."""
    n = sigma.size
    out = np.zeros((m, n))
    out[np.arange(n), np.arange(n)] = sigma
    return out


def evaluate_A(instance: IsvpInstance, c) -> np.ndarray:
    """Evaluate A(c) = A_0 + sum_i c_i A_i on its leading ``instance.r``
    rows, an r x n array: the rows below are zero for every c.

    The result is bit-identical across repeated evaluations.
    """
    c = _real_array("c", c).reshape(-1)
    if c.size != instance.n:
        raise InputError(f"c must have length {instance.n}, got {c.size}")
    return instance.operator.evaluate(c)


@dataclass(frozen=True)
class SvdFactorization:
    """SVD A = U diag(sigma) V^T with V n x n and sigma decreasing: U is
    m x m for the full factor, m x n for the thin one."""

    U: np.ndarray
    V: np.ndarray
    sigma: np.ndarray


def _centrosymmetric_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric A of even side n equal to
    A[::-1, ::-1], from two half-size ``eigh`` problems (Cantoni and
    Butler, *Linear Algebra Appl.* 13, 1976).

    With k = n / 2, J the k x k exchange matrix and T11, T12 the leading
    k rows of A split at column k, the eigenvectors are [x; Jx] / sqrt 2
    for x of the even part T11 + T12 J and [y; -Jy] / sqrt 2 for y of the
    odd part T11 - T12 J.  Returns (lambda, Q) unsorted: the even part's
    pairs, each ascending, then the odd part's.
    """
    k = A.shape[0] // 2
    T12J = A[:k, ::-1][:, :k]
    lam_even, X = np.linalg.eigh(A[:k, :k] + T12J)
    lam_odd, Y = np.linalg.eigh(A[:k, :k] - T12J)
    s = np.sqrt(0.5)
    Q = np.empty((2 * k, 2 * k))
    Q[:k, :k] = s * X
    Q[k:, :k] = s * X[::-1]
    Q[:k, k:] = s * Y
    Q[k:, k:] = -s * Y[::-1]
    return np.concatenate([lam_even, lam_odd]), Q


def full_svd(A, full_matrices: bool = True) -> SvdFactorization:
    """SVD with the factors its routine returns.

    ``full_matrices`` is numpy's: when it is true and m > n, U is m x m;
    when it is false, U holds only the n leading columns (the thin SVD,
    Golub and Van Loan, *Matrix Computations*, section 2.4), and sigma
    and V are the full factor's.  Each pair (u_i, v_i) keeps the sign
    its routine gives it: every solve reads the vectors only through
    quantities that a paired flip leaves unchanged, and one build at one
    thread count returns the same factors on every call.

    An A of even side equal to its transpose and to its reversal
    A[::-1, ::-1] bit for bit (every symmetric Toeplitz one) is
    centrosymmetric and needs no SVD: its eigendecomposition
    A = Q diag(lambda) Q^T, from two half-size ``eigh`` problems
    (:func:`_centrosymmetric_eigh`), gives sigma = |lambda| and V = Q,
    ordered by |lambda| decreasing, and U = V diag(sign(lambda)) with
    sign +1 at lambda = 0 (Golub and Van Loan, *Matrix Computations*,
    section 8.6).  The sort is stable, so pairs with equal |lambda| keep
    the helper's order: the even part's before the odd part's,
    ascending within each.  Every other A, a symmetric one or a
    centrosymmetric one of odd side included, takes one LAPACK SVD.
    """
    A = _real_array("A", A)
    if A.ndim != 2:
        raise InputError("full_svd expects a matrix")
    m, n = A.shape
    if m < n:
        raise InputError(f"require m >= n, got {A.shape}")
    if n % 2 == 0 and np.array_equal(A, A.T) and np.array_equal(A, A[::-1, ::-1]):
        try:
            lam, Q = _centrosymmetric_eigh(A)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
        order = np.argsort(-np.abs(lam), kind="stable")
        lam = lam[order]
        V = Q[:, order]
        U = V * np.where(lam < 0.0, -1.0, 1.0)
        sigma = np.abs(lam)
    else:
        try:
            U, sigma, Vt = np.linalg.svd(A, full_matrices=full_matrices)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD did not converge: {exc}") from exc
        V = Vt.T
    return SvdFactorization(U=U, V=V, sigma=sigma)


def approx_jacobian(U: np.ndarray, V: np.ndarray, instance: IsvpInstance) -> np.ndarray:
    """Approximate Jacobian [J]_ij = u_i^T A_j v_i from the leading columns of U, V.

    U needs r to m rows (those past r meet zero rows of every A_j), V
    exactly n, and both n columns or more; else ``InputError``.
    """
    m, n, r = instance.m, instance.n, instance.r
    if not r <= U.shape[0] <= m or U.shape[1] < n:
        raise InputError(f"U must have {r} to {m} rows and at least {n} columns, got {U.shape}")
    if V.shape[0] != n or V.shape[1] < n:
        raise InputError(f"V must have {n} rows and at least {n} columns, got {V.shape}")
    _real_array("U", U)
    _real_array("V", V)
    return instance.operator.jacobian(U[:, :n], V[:, :n])


def jacobian_inverse(J0: np.ndarray) -> np.ndarray:
    """Dense LU inverse of the starting Jacobian J_0, the exact B_0 of both
    two-step methods.  A J_0 that is not square raises ``InputError``, a
    non-finite one ``NonFiniteInput`` and a singular one ``NumericalError``."""
    J0 = _real_array("J0", J0)
    if J0.ndim != 2 or J0.shape[0] != J0.shape[1]:
        raise InputError(f"J0 must be square, got shape {J0.shape}")
    try:
        return np.linalg.inv(J0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"J0 is singular: {exc}") from exc


def generalized_residual_vector(
    U: np.ndarray, V: np.ndarray, w: np.ndarray, sigma_star: np.ndarray
) -> np.ndarray:
    """Entries g_i = w_i - sigma*_i (u_i^T u_i + v_i^T v_i) / 2, where the
    n entries w_i = u_i^T M v_i are the diagonal of U^T M V.

    With M = A(c) it is affine in c, J c + g(U, V, diag(U^T A_0 V)): the
    model of the first coefficient update.  With refined vectors it is the
    second-step residual rho.  Raises ``InputError`` for any other w, and
    for a U or V that is not a 2-D array with n columns or more.
    """
    n = sigma_star.size
    if w.shape != (n,):
        raise InputError(f"w must have shape ({n},), got {w.shape}")
    for name, a in (("U", U), ("V", V)):
        if not isinstance(a, np.ndarray) or a.ndim != 2 or a.shape[1] < n:
            got = getattr(a, "shape", type(a).__name__)
            raise InputError(f"{name} must be a 2-D array with at least {n} columns, got {got}")
    Un = U[:, :n]
    Vn = V[:, :n]
    uu = np.einsum("ji,ji->i", Un, Un)
    vv = np.einsum("ji,ji->i", Vn, Vn)
    return w - 0.5 * sigma_star * (uu + vv)


def residual_d(W: np.ndarray, sigma_star: np.ndarray) -> float:
    """Frobenius residual d = ||W - Sigma*||_F of the aligned product W = U^T A(c) V.

    A W that is not a 2-D array of at least n x n is an ``InputError``;
    its values go unchecked, so a non-finite W gives a non-finite d."""
    n = sigma_star.size
    if not isinstance(W, np.ndarray) or W.ndim != 2 or min(W.shape) < n:
        got = getattr(W, "shape", type(W).__name__)
        raise InputError(f"W must be a 2-D array of at least {n} x {n}, got {got}")
    M = W.copy()
    M[np.arange(n), np.arange(n)] -= sigma_star
    return float(np.linalg.norm(M))


def save_instance(instance: IsvpInstance, path) -> None:
    """Write the instance text format.

    Line 1 names the basis form.  A dense basis has "m n", then n+1
    blocks of m lines with n space-separated values each (row-major
    A_0..A_n); a Toeplitz basis has "toeplitz m n" and nothing more.  The
    final line holds sigma*.  Values carry 17 significant digits so a
    round-trip is exact.
    """
    try:
        with open(path, "w") as fh:
            if isinstance(instance.operator, ToeplitzBasis):
                fh.write(f"toeplitz {instance.m} {instance.n}\n")
            else:
                fh.write(f"{instance.m} {instance.n}\n")
                for a in instance.basis:
                    np.savetxt(fh, a, fmt="%.17g")
            np.savetxt(fh, instance.sigma_star[None], fmt="%.17g")
    except OSError as exc:
        raise InputError(f"cannot write instance to {path}: {exc}") from exc


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


def load_instance(path) -> IsvpInstance:
    """Read a file :func:`save_instance` wrote, into the form line 1 names.

    Each dense basis matrix is parsed on its own and written straight into
    the instance's row-major array, so loading holds one basis-sized array.
    """
    try:
        fh = open(path)
    except OSError as exc:
        raise InputError(f"cannot read instance from {path}: {exc}") from exc
    with fh, warnings.catch_warnings():
        # loadtxt only warns when the file ends before a block; that is malformed too
        warnings.simplefilter("error", UserWarning)
        try:
            header = fh.readline().split()
            toeplitz = header[:1] == ["toeplitz"]
            m, n = (int(tok) for tok in header[toeplitz:])
            values = n if toeplitz else (n + 1) * m * n + n
            # every value takes at least one digit and one separator; a pipe
            # reports size 0, so only the allocation can reject its header
            if 0 < os.fstat(fh.fileno()).st_size < 2 * values:
                raise ValueError(f"header {m} {n} asks for more values than the file holds")
            if toeplitz:
                operator = ToeplitzBasis(m, n)
            else:
                rows = np.empty((m, n + 1, n))
                for k in range(n + 1):
                    rows[:, k] = _read_block(fh, (m, n), f"A_{k}", max_rows=m)
                operator = DenseBasis(_real_array("basis", rows))
            sigma = _read_block(fh, (1, n), "sigma*")[0]
        except (ValueError, OSError, UserWarning, MemoryError) as exc:
            raise InputError(f"malformed instance file {path}: {exc}") from exc
    return make_instance(operator, sigma)
