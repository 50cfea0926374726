import ast
import inspect

import numpy as np
import pytest

import isvp
import isvp.cayley_free as cayley_free
from isvp.cayley_free import SolverConfig, SolverState, initialize, outer_step
from isvp.core import residual_d
from isvp.errors import NumericalBreakdown
from isvp.report import SolveStatus

from conftest import near_orthogonal, separated_sigma, solved_start


def loop_correction_pair(U, V, W, sigma):
    """Entrywise re-implementation of the correction formulas, one index
    pair at a time, used as an independent oracle."""
    m = U.shape[0]
    n = V.shape[0]
    left = np.zeros((m, m))
    right = np.zeros((n, n))
    for i in range(m):
        left[i, i] = (U[:, i] @ U[:, i] - 1.0) / 2.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            den = sigma[i] ** 2 - sigma[j] ** 2
            left[i, j] = (
                sigma[i] * W[j, i]
                + sigma[j] * W[i, j]
                - sigma[j] ** 2 * (U[:, i] @ U[:, j])
                - sigma[i] * sigma[j] * (V[:, i] @ V[:, j])
            ) / den
    for i in range(n, m):
        for j in range(n):
            left[i, j] = U[:, i] @ U[:, j] - W[i, j] / sigma[j]
    for i in range(n):
        for j in range(n, m):
            left[i, j] = W[j, i] / sigma[i]
    for i in range(n, m):
        for j in range(n, m):
            if i != j:
                left[i, j] = (U[:, i] @ U[:, j]) / 2.0
    for i in range(n):
        right[i, i] = (V[:, i] @ V[:, i] - 1.0) / 2.0
        for j in range(n):
            if i != j:
                den = sigma[i] ** 2 - sigma[j] ** 2
                right[i, j] = (
                    sigma[i] * W[i, j]
                    + sigma[j] * W[j, i]
                    - sigma[i] * sigma[j] * (U[:, i] @ U[:, j])
                    - sigma[j] ** 2 * (V[:, j] @ V[:, i])
                ) / den
    return left, right


def loop_offset(instance, U, V):
    """Corrected affine offset b_i = u_i^T A_0 v_i - sigma*_i (u_i^T u_i + v_i^T v_i) / 2."""
    sigma = instance.sigma_star
    b = np.empty(instance.n)
    for i in range(instance.n):
        u = U[:, i]
        v = V[:, i]
        b[i] = u @ instance.basis[0] @ v - sigma[i] * (u @ u + v @ v) / 2.0
    return b


def loop_outer_step(instance, state):
    """Straight-line transliteration of one outer iteration, substep by
    substep, with loop-built corrections and per-entry residuals.  The
    first update keeps the paper's form J c + b."""
    sigma = instance.sigma_star
    n = instance.n
    c, U, V, B, J = state.c, state.U, state.V, state.B, state.J
    out = {}
    out["c_bar"] = c - B @ (J @ c + loop_offset(instance, U, V))
    A_bar = isvp.evaluate_A(instance, out["c_bar"])
    out["W"] = U.T @ A_bar @ V
    out["X"], out["Y"] = loop_correction_pair(U, V, out["W"], sigma)
    out["U_bar"] = U - U @ out["X"]
    out["V_bar"] = V - V @ out["Y"]
    rho = np.empty(n)
    for i in range(n):
        u = out["U_bar"][:, i]
        v = out["V_bar"][:, i]
        rho[i] = u @ A_bar @ v - sigma[i] * (u @ u + v @ v) / 2.0
    out["rho"] = rho
    out["c_next"] = out["c_bar"] - B @ rho
    A_next = isvp.evaluate_A(instance, out["c_next"])
    out["W_bar"] = out["U_bar"].T @ A_next @ out["V_bar"]
    out["E"], out["F"] = loop_correction_pair(out["U_bar"], out["V_bar"], out["W_bar"], sigma)
    out["U_next"] = out["U_bar"] - out["U_bar"] @ out["E"]
    out["V_next"] = out["V_bar"] - out["V_bar"] @ out["F"]
    J_next = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            J_next[i, j] = out["U_next"][:, i] @ instance.basis[j + 1] @ out["V_next"][:, i]
    out["J_next"] = J_next
    out["B_next"] = B + B @ (2.0 * np.eye(n) - J_next @ B) @ (np.eye(n) - J_next @ B)
    return out


def assert_close(got, want, rtol=1e-14):
    got = np.asarray(got)
    want = np.asarray(want)
    scale = np.linalg.norm(want)
    assert np.linalg.norm(got - want) <= rtol * (1.0 + scale)


class TestSolverConfig:
    def test_defaults(self):
        config = SolverConfig()
        assert config.tol == 1e-10 and config.max_iter == 50

    @pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"max_iter": 0}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestCorrectionMatrices:
    def test_zero_at_exact_solution(self, small_instance):
        inst, c_star = small_instance
        f = isvp.full_svd(isvp.evaluate_A(inst, c_star))
        W = f.U.T @ isvp.evaluate_A(inst, c_star) @ f.V
        pair = isvp.correction_matrices(f.U, f.V, W, inst.sigma_star)
        assert np.abs(pair.left).max() <= 1e-12
        assert np.abs(pair.right).max() <= 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n, 9))
            sigma = separated_sigma(rng, n)
            U = near_orthogonal(rng, m)
            V = near_orthogonal(rng, n)
            W = isvp.diag_embed(sigma, m) + 0.3 * rng.standard_normal((m, n))
            pair = isvp.correction_matrices(U, V, W, sigma)
            left, right = loop_correction_pair(U, V, W, sigma)
            assert_close(pair.left, left)
            assert_close(pair.right, right)

    def test_trailing_block_exactly_symmetric(self):
        rng = np.random.default_rng(67)
        sigma = separated_sigma(rng, 3)
        U = near_orthogonal(rng, 8)
        V = near_orthogonal(rng, 3)
        W = rng.standard_normal((8, 3))
        pair = isvp.correction_matrices(U, V, W, sigma)
        tail = pair.left[3:, 3:]
        np.testing.assert_array_equal(tail, tail.T)


class TestMultiplicativeRefine:
    def test_zero_correction_is_identity(self):
        M = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(isvp.multiplicative_refine(M, np.zeros((3, 3))), M)

    def test_diagonal_correction(self):
        eps = np.array([0.1, 0.2, 0.3])
        out = isvp.multiplicative_refine(np.eye(3), np.diag(eps))
        np.testing.assert_allclose(out, np.diag(1.0 - eps))

    def test_improves_orthogonality_near_solution(self):
        inst, c_star = isvp.generate_instance(30, 12, 5)
        c0 = isvp.perturb_c_star(c_star, 1e-4, 5)
        _, B0 = solved_start(inst, c0)
        state = initialize(inst, c0)
        state.B = B0
        state = outer_step(state, inst)
        # state.U is now first-order orthogonal; one more correction round
        g = isvp.generalized_residual_vector(
            state.U, state.V, np.diagonal(state.W), inst.sigma_star
        )
        c_bar = state.c - state.B @ g
        A_bar = isvp.evaluate_A(inst, c_bar)
        W = state.U.T @ (A_bar @ state.V)
        pair = isvp.correction_matrices(state.U, state.V, W, inst.sigma_star)
        refined = isvp.multiplicative_refine(state.U, pair.left)
        before = np.linalg.norm(state.U.T @ state.U - np.eye(30))
        after = np.linalg.norm(refined.T @ refined - np.eye(30))
        assert after < before


class TestChebyshevUpdate:
    def test_fixed_point_at_exact_inverse(self):
        rng = np.random.default_rng(71)
        J = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        B = np.linalg.inv(J)
        B_next = isvp.chebyshev_update(B, J)
        np.testing.assert_allclose(B_next, B, atol=1e-12 * np.linalg.norm(B))

    def test_scalar_cubing(self):
        B_next = isvp.chebyshev_update(np.array([[0.5]]), np.array([[1.0]]))
        np.testing.assert_allclose(B_next, [[0.875]])
        assert 1.0 - 0.875 == 0.5**3


class TestOuterStep:
    def test_fixed_point_at_exact_solution(self, small_instance):
        inst, c_star = small_instance
        J0, B0 = solved_start(inst, c_star)
        state = initialize(inst, c_star)
        state.B = B0
        sigma = inst.sigma_star
        assert residual_d(state.W, sigma) <= 1e-12 * np.linalg.norm(sigma)
        s = outer_step(state, inst)
        assert np.linalg.norm(s.c - c_star) <= 1e-10 * (1 + np.linalg.norm(c_star))
        assert residual_d(s.W, sigma) <= 1e-12 * np.linalg.norm(sigma)

    def test_state_carries_the_aligned_product(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        state = initialize(inst, c0)
        state.B = np.linalg.inv(state.J)
        for s in (state, outer_step(state, inst)):
            W = s.U.T @ (isvp.evaluate_A(inst, s.c) @ s.V)
            assert np.linalg.norm(s.W - W) <= 1e-14 * np.linalg.norm(W)

    def test_matches_transliteration_oracle(self):
        inst, c_star = isvp.generate_instance(4, 2, 31)
        c0 = isvp.perturb_c_star(c_star, 1e-2, 31)
        _, B0 = solved_start(inst, c0)
        state = initialize(inst, c0)
        state.B = B0
        oracle = loop_outer_step(inst, state)

        # stage by stage against the public operations
        g = isvp.generalized_residual_vector(
            state.U, state.V, np.diagonal(state.W), inst.sigma_star
        )
        c_bar = state.c - state.B @ g
        assert_close(c_bar, oracle["c_bar"])
        A_bar = isvp.evaluate_A(inst, c_bar)
        W = state.U.T @ (A_bar @ state.V)
        assert_close(W, oracle["W"])
        pair1 = isvp.correction_matrices(state.U, state.V, W, inst.sigma_star)
        assert_close(pair1.left, oracle["X"])
        assert_close(pair1.right, oracle["Y"])
        U_bar = isvp.multiplicative_refine(state.U, pair1.left)
        V_bar = isvp.multiplicative_refine(state.V, pair1.right)
        assert_close(U_bar, oracle["U_bar"])
        assert_close(V_bar, oracle["V_bar"])
        w_bar = np.diagonal(U_bar.T @ (A_bar @ V_bar))
        rho = isvp.generalized_residual_vector(U_bar, V_bar, w_bar, inst.sigma_star)
        assert_close(rho, oracle["rho"])
        c_next = c_bar - state.B @ rho
        assert_close(c_next, oracle["c_next"])
        A_next = isvp.evaluate_A(inst, c_next)
        W_bar = U_bar.T @ (A_next @ V_bar)
        assert_close(W_bar, oracle["W_bar"])
        pair2 = isvp.correction_matrices(U_bar, V_bar, W_bar, inst.sigma_star)
        assert_close(pair2.left, oracle["E"])
        assert_close(pair2.right, oracle["F"])

        # end to end against the production step
        next_state = outer_step(state, inst)
        assert_close(next_state.c, oracle["c_next"])
        assert_close(next_state.U, oracle["U_next"])
        assert_close(next_state.V, oracle["V_next"])
        assert_close(next_state.J, oracle["J_next"])
        assert_close(next_state.B, oracle["B_next"])

    def test_breakdown_on_nonfinite_state(self, small_instance):
        inst, c_star = small_instance
        _, B0 = solved_start(inst, c_star)
        state = initialize(inst, c_star)
        state.B = np.full_like(B0, np.inf)
        with pytest.raises(NumericalBreakdown):
            outer_step(state, inst)


class TestSolve:
    def test_converged_immediately_at_solution(self, small_instance):
        inst, c_star = small_instance
        _, B0 = solved_start(inst, c_star)
        report = isvp.solve(inst, c_star, B0)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations == 0
        assert len(report.records) == 1

    def test_case_a_pattern_medium(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        _, B0 = solved_start(inst, c0)
        report = isvp.solve(inst, c0, B0, c_star=c_star)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations <= 4
        d = report.residuals
        assert d[0] > 1e-3 and d[-1] <= 1e-10
        # residuals decay monotonically once below a tenth of the spectrum norm
        threshold = 0.1 * np.linalg.norm(inst.sigma_star)
        started = False
        for prev, nxt in zip(d, d[1:]):
            if prev < threshold:
                started = True
                assert nxt < prev
        assert started

    def test_cubing_identity_along_solve(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        _, B0 = solved_start(inst, c0)
        state = initialize(inst, c0)
        state.B = B0
        for _ in range(3):
            B_prev = state.B
            state = outer_step(state, inst)
            R = np.eye(inst.n) - B_prev @ state.J
            gap = np.linalg.norm((np.eye(inst.n) - state.B @ state.J) - R @ R @ R)
            assert gap <= 1e-12 * (1 + np.linalg.norm(R) ** 3)

    def test_divergence_reported_not_raised(self):
        inst, c_star = isvp.generate_instance(20, 8, 2)
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        J0, _ = solved_start(inst, c0)
        B0 = 3.0 * np.linalg.inv(J0)  # far from the inverse: cubing blows up
        report = isvp.solve(inst, c0, B0)
        assert report.status is SolveStatus.DIVERGED

    def test_max_iterations_status(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        _, B0 = solved_start(inst, c0)
        report = isvp.solve(inst, c0, B0, SolverConfig(tol=1e-16, max_iter=2))
        assert report.status in (SolveStatus.MAX_ITERATIONS, SolveStatus.CONVERGED)
        if report.status is SolveStatus.MAX_ITERATIONS:
            assert report.iterations == 2

    def test_square_instance_supported(self):
        inst, c_star = isvp.generate_instance(8, 8, 3)
        c0 = isvp.perturb_c_star(c_star, 1e-3, 3)
        _, B0 = solved_start(inst, c0)
        report = isvp.solve(inst, c0, B0, SolverConfig(tol=1e-12))
        assert report.status is SolveStatus.CONVERGED
        assert np.linalg.norm(report.c_final - c_star) <= 1e-8 * (1 + np.linalg.norm(c_star))


class TestStructuralNoSolves:
    FORBIDDEN = {
        "solve",
        "inv",
        "pinv",
        "lstsq",
        "tensorsolve",
        "tensorinv",
        "lu_factor",
        "lu_solve",
        "cho_factor",
        "cho_solve",
        "spsolve",
        "qr",
        "cholesky",
    }

    def test_module_has_no_solve_or_inverse_calls(self):
        tree = ast.parse(inspect.getsource(cayley_free))
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    called.add(func.attr)
                elif isinstance(func, ast.Name):
                    called.add(func.id)
        assert not (called & self.FORBIDDEN)

    def test_no_scipy_dependency(self):
        source = inspect.getsource(cayley_free)
        assert "scipy" not in source
