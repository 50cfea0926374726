"""Self-contained invariant checks behind the ``isvp verify`` command.

Each check runs a batch of seeded randomized trials against one algebraic
property of the kernels and returns the worst violation seen, so the CLI
can print one line per property.  The trial distributions keep the
factors near-orthogonal and the target spectra well separated, which is
the regime the identities are used in.

These checks are the one implementation of each identity: acceptance
criterion 4 of the test suite runs them (100 trials, seed 41) and gates
on exactly what ``isvp verify`` prints.  The draw helpers below are also
the ones the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .baselines import alg1_skew_pair, alg1_solve, cayley_orthogonalize
from .cayley_free import (
    chebyshev_update,
    correction_matrices,
    initialize,
    outer_step,
)
from .core import (
    approx_jacobian,
    diag_embed,
    evaluate_A,
    full_svd,
    spectral_gap,
)
from .harness import generate_instance


@dataclass
class CheckResult:
    name: str
    worst: float
    bound: float

    @property
    def passed(self) -> bool:
        # False for a NaN worst
        return bool(self.worst <= self.bound)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict}  {self.name}: worst {self.worst:.3e} (bound {self.bound:.3e})"


def _worst(*values: float) -> float:
    """Largest value; NaN when any value is NaN, where ``max`` would drop it."""
    return float(np.max(values))


def _random_shape(rng: np.random.Generator, max_m: int = 50, max_n: int = 30):
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(n, max_m + 1))
    return m, n


def separated_sigma(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly decreasing positive targets with O(0.1) gaps."""
    gaps = rng.uniform(0.1, 0.3, n)
    return np.cumsum(gaps[::-1])[::-1] + 0.5


def near_orthogonal(rng: np.random.Generator, side: int) -> np.ndarray:
    """Orthogonal matrix plus a small perturbation, the regime the
    correction formulas operate in."""
    Q = np.linalg.qr(rng.standard_normal((side, side)))[0]
    return Q + 0.1 * rng.standard_normal((side, side)) / np.sqrt(side)


def _correction_inputs(rng: np.random.Generator):
    m, n = _random_shape(rng)
    sigma = separated_sigma(rng, n)
    U = near_orthogonal(rng, m)
    V = near_orthogonal(rng, n)
    W = diag_embed(sigma, m) + 0.3 * rng.standard_normal((m, n))
    return m, n, sigma, U, V, W


def check_correction_symmetrization(trials: int, seed: int) -> CheckResult:
    """left + left^T must equal U^T U - I (right likewise) to 1e-12 m."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m, n, sigma, U, V, W = _correction_inputs(rng)
        pair = correction_matrices(U, V, W, sigma)
        res_l = np.linalg.norm(pair.left + pair.left.T - (U.T @ U - np.eye(m)))
        res_r = np.linalg.norm(pair.right + pair.right.T - (V.T @ V - np.eye(n)))
        worst = _worst(worst, res_l / m, res_r / m)
    return CheckResult("correction symmetrization", worst, 1e-12)


def check_correction_linear_system(trials: int, seed: int) -> CheckResult:
    """The pair satisfies the linearized alignment equations on the
    leading-column index pairs to 1e-10 relative."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m, n, sigma, U, V, W = _correction_inputs(rng)
        pair = correction_matrices(U, V, W, sigma)
        S = diag_embed(sigma, m)
        mask = np.ones((m, n), dtype=bool)
        mask[np.arange(n), np.arange(n)] = False
        lhs1 = (U.T @ U) @ S - W
        rhs1 = pair.left @ S - S @ pair.right
        lhs2 = S @ (V.T @ V) - W
        rhs2 = S @ pair.right.T - pair.left.T @ S
        rel1 = np.linalg.norm((lhs1 - rhs1)[mask]) / (1.0 + np.linalg.norm(lhs1[mask]))
        rel2 = np.linalg.norm((lhs2 - rhs2)[mask]) / (1.0 + np.linalg.norm(lhs2[mask]))
        worst = _worst(worst, rel1, rel2)
    return CheckResult("correction linear system", worst, 1e-10)


def check_chebyshev_cubing(trials: int, seed: int) -> CheckResult:
    """I - B'J = (I - BJ)^3 to 1e-12 (1 + ||I - BJ||_F^3)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 31))
        B = rng.uniform(-1.0, 1.0, (n, n))
        J = rng.uniform(-1.0, 1.0, (n, n))
        B_next = chebyshev_update(B, J)
        R = np.eye(n) - B @ J
        lhs = np.eye(n) - B_next @ J
        gap = np.linalg.norm(lhs - R @ R @ R)
        scale = 1.0 + np.linalg.norm(R) ** 3
        worst = _worst(worst, gap / scale)
    return CheckResult("chebyshev cubing identity", worst, 1e-12)


def check_skew_exactness(trials: int, seed: int) -> CheckResult:
    """alg1_skew_pair output is skew bitwise."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        m, n = _random_shape(rng)
        sigma = separated_sigma(rng, n)
        D = rng.standard_normal((m, n))
        X, Y = alg1_skew_pair(D, sigma)
        if not (np.array_equal(X, -X.T) and np.array_equal(Y, -Y.T)):
            failures += 1
    return CheckResult("skew pair exactness", float(failures), 0.0)


def check_cayley_orthogonality(trials: int, seed: int) -> CheckResult:
    """Cayley transforms preserve orthogonality to 1e-10 times the side."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        side = int(rng.integers(2, 101))
        Q = np.linalg.qr(rng.standard_normal((side, side)))[0]
        G = rng.standard_normal((side, side))
        S = np.triu(G, 1)
        S = S - S.T
        Q_next = cayley_orthogonalize(Q, S)
        res = np.linalg.norm(Q_next.T @ Q_next - np.eye(side)) / side
        worst = _worst(worst, res)
    return CheckResult("cayley orthogonality", worst, 1e-10)


def check_jacobian_finite_difference(trials: int, seed: int) -> CheckResult:
    """J at an exact SVD matches central differences of the sorted
    singular values to 1e-4 relative (gaps kept at 0.1 or more)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    step = 1e-6
    done = 0
    attempt = 0
    while done < trials:
        m, n = _random_shape(rng, max_n=10)
        instance, c_star = generate_instance(m, n, seed * 100003 + attempt)
        attempt += 1
        c = c_star
        factors = full_svd(evaluate_A(instance, c))
        if spectral_gap(factors.sigma) < 0.1:
            continue
        J = approx_jacobian(factors.U, factors.V, instance)
        J_fd = np.empty_like(J)
        for j in range(n):
            cp = c.copy()
            cp[j] += step
            sp = np.linalg.svd(evaluate_A(instance, cp), compute_uv=False)
            cm = c.copy()
            cm[j] -= step
            sm = np.linalg.svd(evaluate_A(instance, cm), compute_uv=False)
            J_fd[:, j] = (sp - sm) / (2.0 * step)
        rel = np.linalg.norm(J_fd - J) / (1.0 + np.linalg.norm(J))
        worst = _worst(worst, rel)
        done += 1
    return CheckResult("jacobian vs finite differences", worst, 1e-4)


def check_residual_affinity(trials: int, seed: int) -> CheckResult:
    """diag(U^T A(c) V) = J c + diag(U^T A_0 V) for every c, to 1e-13 relative.

    This identity is what lets the first coefficient update of both
    two-step methods read the paper's J c + b off the diagonal of the
    iterate's W = U^T A(c) V.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        m, n = _random_shape(rng, max_m=20, max_n=8)
        instance, _ = generate_instance(m, n, seed * 99991 + t)
        U = near_orthogonal(rng, m)
        V = near_orthogonal(rng, n)
        c = rng.uniform(-2.0, 2.0, n)
        lhs = np.diagonal(U.T @ (evaluate_A(instance, c) @ V))
        J = approx_jacobian(U, V, instance)
        rhs = J @ c + np.diagonal(U.T @ (instance.basis[0] @ V))
        rel = np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(lhs))
        worst = _worst(worst, rel)
    return CheckResult("residual affinity J c + b", worst, 1e-13)


def check_svd_factorization(trials: int, seed: int) -> CheckResult:
    """Orthogonality and reconstruction bounds of full_svd."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m, n = _random_shape(rng)
        A = rng.standard_normal((m, n))
        f = full_svd(A)
        res_u = np.linalg.norm(f.U.T @ f.U - np.eye(m)) / (1e-12 * m)
        res_v = np.linalg.norm(f.V.T @ f.V - np.eye(n)) / (1e-12 * n)
        rec = np.linalg.norm(f.U.T @ A @ f.V - diag_embed(f.sigma, m)) / (
            1e-10 * np.linalg.norm(A)
        )
        worst = _worst(worst, res_u, res_v, rec)
    return CheckResult("svd factorization invariants", worst, 1.0)


def check_solver_fixed_points(trials: int, seed: int) -> CheckResult:
    """One outer step from exact-solution data must not move c."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(max(1, trials // 10)):
        m = int(rng.integers(8, 25))
        n = int(rng.integers(3, min(m, 10) + 1))
        instance, c_star = generate_instance(m, n, seed * 7919 + t)
        state = initialize(instance, c_star)
        state.B = np.linalg.inv(state.J)
        next_state = outer_step(state, instance)
        drift = np.linalg.norm(next_state.c - c_star) / (1.0 + np.linalg.norm(c_star))
        worst = _worst(worst, drift)
        report = alg1_solve(instance, c_star)
        worst = _worst(worst, report.records[0].d / (1.0 + np.linalg.norm(instance.sigma_star)))
    return CheckResult("solver fixed points", worst, 1e-10)


ALL_CHECKS: list[Callable[[int, int], CheckResult]] = [
    check_correction_symmetrization,
    check_correction_linear_system,
    check_chebyshev_cubing,
    check_skew_exactness,
    check_cayley_orthogonality,
    check_jacobian_finite_difference,
    check_residual_affinity,
    check_svd_factorization,
    check_solver_fixed_points,
]


def run_all_checks(trials: int = 50, seed: int = 20240601) -> list[CheckResult]:
    if trials < 1:
        raise ValueError("trials must be at least 1")
    return [check(trials, seed) for check in ALL_CHECKS]
