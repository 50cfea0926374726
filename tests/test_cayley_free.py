import inspect
import time

import numpy as np
import pytest

import isvp
import isvp.cayley_free as cayley_free
from isvp.baselines import _newton_point, _newton_step, alg1_outer_step
from isvp.cayley_free import SolverConfig, multiplicative_refine, outer_step, two_step_start
from isvp.core import ToeplitzBasis, diag_embed, jacobian_inverse
from isvp.errors import InputError, NonFiniteInput, NumericalError
from isvp.harness import Algorithm, run_solver
from isvp.report import SolveStatus
from isvp.verification import near_orthogonal, separated_sigma

from conftest import solve


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


def vectorized_correction_pair(U, V, W, sigma):
    """The correction formulas as whole-array numpy expressions, written
    the plain way (tables from sigma on every call, ``np.triu`` for the
    trailing block, fancy-indexed diagonals); the kernel must match it
    bit for bit."""
    m = U.shape[0]
    n = V.shape[0]
    s = sigma
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
        upper = np.triu(0.5 * Gu[n:, n:], 1)
        trailing = upper + upper.T
        np.fill_diagonal(trailing, 0.5 * (np.diagonal(Gu)[n:] - 1.0))
        left[n:, n:] = trailing
    num_r = s[:, None] * Wn + s[None, :] * Wn.T - ss * Gun - s2[None, :] * Gv
    right = num_r / den
    right[idx, idx] = 0.5 * (Gv[idx, idx] - 1.0)
    return left, right


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_close(got, want, rtol=1e-14):
    got = np.asarray(got)
    want = np.asarray(want)
    scale = np.linalg.norm(want)
    assert np.linalg.norm(got - want) <= rtol * (1.0 + scale)


class TestSolverConfig:
    def test_defaults(self):
        config = SolverConfig()
        assert config.tol == 1e-10 and config.max_iter == 50

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": 0.0}, {"tol": np.inf}, {"max_iter": 0},
         {"max_iter": float("nan")}, {"max_iter": 2.5}, {"max_iter": True},
         {"tol": True}, {"tol": "1e-8"}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_stores_max_iter_as_an_int(self):
        config = SolverConfig(max_iter=np.int64(3))
        assert type(config.max_iter) is int and config.max_iter == 3


class TestCorrectionMatrices:
    def test_zero_at_exact_solution(self, small_instance):
        inst, c_star = small_instance
        f = isvp.full_svd(isvp.evaluate_A(inst, c_star))
        W = f.U.T @ isvp.evaluate_A(inst, c_star) @ f.V
        X, Y = isvp.correction_matrices(f.U, f.V, W, inst.sigma_star)
        assert np.abs(X).max() <= 1e-12
        assert np.abs(Y).max() <= 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n, 9))
            sigma = separated_sigma(rng, n)
            U = near_orthogonal(rng, m)
            V = near_orthogonal(rng, n)
            W = diag_embed(sigma, m) + 0.3 * rng.standard_normal((m, n))
            X, Y = isvp.correction_matrices(U, V, W, sigma)
            left, right = loop_correction_pair(U, V, W, sigma)
            assert_close(X, left)
            assert_close(Y, right)

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "negative-stride"])
    def test_trailing_block_exactly_symmetric(self, layout):
        # at m = 207 numpy forms U^T U of a strided U, copied first, as a
        # general product whose two triangles differ in the last bits
        rng = np.random.default_rng(67)
        m, n = 207, 3
        sigma = separated_sigma(rng, n)
        U = near_orthogonal(rng, m)
        V = near_orthogonal(rng, n)
        W = rng.standard_normal((m, n))
        given = {
            "C": U,
            "F": np.asfortranarray(U),
            "strided": np.repeat(np.repeat(U, 2, axis=0), 2, axis=1)[::2, ::2],
            "negative-stride": U[::-1, ::-1].copy()[::-1, ::-1],
        }[layout]
        assert np.array_equal(given, U)
        X, _ = isvp.correction_matrices(given, V, W, sigma)
        tail = X[n:, n:]
        np.testing.assert_array_equal(tail, tail.T)
        assert_same_bits(X, isvp.correction_matrices(U, V, W, sigma)[0])

    @pytest.mark.parametrize("m, n", [(7, 3), (12, 5), (6, 6), (60, 30)])
    @pytest.mark.parametrize("read_only", [True, False], ids=["read-only", "writeable"])
    def test_matches_the_array_formulas_bit_for_bit(self, m, n, read_only):
        rng = np.random.default_rng(m * 100 + n)
        sigma = separated_sigma(rng, n)
        sigma.flags.writeable = not read_only
        for _ in range(3):
            U = near_orthogonal(rng, m)
            V = near_orthogonal(rng, n)
            W = diag_embed(sigma, m) + 0.3 * rng.standard_normal((m, n))
            X, Y = isvp.correction_matrices(U, V, W, sigma)
            left, right = vectorized_correction_pair(U, V, W, sigma)
            assert_same_bits(X, left)
            assert_same_bits(Y, right)

    def test_target_tables_are_reused_for_equal_values(self):
        rng = np.random.default_rng(5)
        m, n = 9, 4
        sigma = separated_sigma(rng, n)
        U = near_orthogonal(rng, m)
        V = near_orthogonal(rng, n)
        W = diag_embed(sigma, m) + 0.3 * rng.standard_normal((m, n))
        frozen = sigma.copy()
        frozen.flags.writeable = False
        isvp.correction_matrices(U, V, W, sigma)
        before = cayley_free._target_tables.cache_info()
        # writeable, read-only, and a strided view: equal values, whatever the flags
        for same in (sigma, frozen, np.repeat(sigma, 2)[::2]):
            isvp.correction_matrices(U, V, W, same)
        after = cayley_free._target_tables.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)
        tables = cayley_free._target_tables(sigma.tobytes())
        assert not any(table.flags.writeable for table in tables)
        isvp.correction_matrices(U, V, W, 2.0 * sigma)
        assert cayley_free._target_tables.cache_info().misses == after.misses + 1

    def test_a_read_only_view_of_a_changed_array_gives_new_tables(self):
        rng = np.random.default_rng(13)
        m, n = 6, 3
        base = np.array([3.0, 2.0, 1.0])
        view = base.view()
        view.flags.writeable = False
        U = near_orthogonal(rng, m)
        V = near_orthogonal(rng, n)
        W = diag_embed(base, m) + 0.3 * rng.standard_normal((m, n))
        isvp.correction_matrices(U, V, W, view)
        base[:] = [5.0, 4.0, 0.5]
        X, Y = isvp.correction_matrices(U, V, W, view)
        left, right = vectorized_correction_pair(U, V, W, base)
        assert_same_bits(X, left)
        assert_same_bits(Y, right)

    @pytest.mark.parametrize(
        "sigma, error, message",
        [
            ([2.0, 1.0], InputError, r"^sigma_star must have shape \(3,\), got \(2,\)$"),
            ([[3.0, 2.0, 1.0]], InputError, r"^sigma_star must have shape \(3,\), got \(1, 3\)$"),
            ([3.0, np.nan, 1.0], NonFiniteInput, "^sigma_star contains NaN or infinity$"),
        ],
        ids=["short", "row", "nan"],
    )
    def test_rejects_a_bad_sigma_star(self, sigma, error, message):
        # each escaped as numpy's ValueError, or, for NaN, gave a NaN left
        with pytest.raises(error, match=message):
            isvp.correction_matrices(np.eye(5), np.eye(3), np.zeros((5, 3)), np.array(sigma))

    @pytest.mark.parametrize(
        "m, U, V, W",
        [(5, np.eye(4), np.eye(3), np.zeros((5, 3))), (5, np.eye(5), np.eye(3), np.zeros((3, 5))),
         (2, np.eye(2), np.eye(3), np.zeros((2, 3)))],
        ids=["short-U", "transposed-W", "wide"],
    )
    def test_rejects_mismatched_shapes(self, m, U, V, W):
        # the wide case, m < n, passed the shape check and met numpy's broadcast ValueError
        with pytest.raises(InputError, match="^correction_matrices expects U m x m, V n x n"):
            isvp.correction_matrices(U, V, W, np.array([3.0, 2.0, 1.0]))

    def test_a_writeable_sigma_changed_in_place_gives_new_tables(self):
        rng = np.random.default_rng(11)
        m, n = 9, 4
        sigma = separated_sigma(rng, n)
        U = near_orthogonal(rng, m)
        V = near_orthogonal(rng, n)
        W = diag_embed(sigma, m) + 0.3 * rng.standard_normal((m, n))
        _, Y = isvp.correction_matrices(U, V, W, sigma)
        sigma *= 1.5
        X_new, Y_new = isvp.correction_matrices(U, V, W, sigma)
        left, right = vectorized_correction_pair(U, V, W, sigma)
        assert_same_bits(X_new, left)
        assert_same_bits(Y_new, right)
        assert not np.array_equal(Y, Y_new)


class TestMultiplicativeRefine:
    def test_zero_correction_is_identity(self):
        M = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(multiplicative_refine(M, np.zeros((3, 3))), M)

    def test_diagonal_correction(self):
        eps = np.array([0.1, 0.2, 0.3])
        out = multiplicative_refine(np.eye(3), np.diag(eps))
        np.testing.assert_allclose(out, np.diag(1.0 - eps))

    def test_improves_orthogonality_near_solution(self):
        inst, c_star = isvp.generate_instance(30, 12, 5)
        c0 = isvp.perturb_c_star(c_star, 1e-4, 5)
        state = outer_step(two_step_start(inst, c0), inst)
        # state.U is now first-order orthogonal; one more correction round
        g = isvp.generalized_residual_vector(
            state.U, state.V, np.diagonal(state.W), inst.sigma_star
        )
        c_bar = state.c - state.B @ g
        A_bar = isvp.evaluate_A(inst, c_bar)
        W = state.U.T @ (A_bar @ state.V)
        X, _ = isvp.correction_matrices(state.U, state.V, W, inst.sigma_star)
        refined = multiplicative_refine(state.U, X)
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

    @pytest.mark.parametrize("n", [1, 4, 30])
    @pytest.mark.parametrize("diagonal", [False, True], ids=["dense", "diagonal"])
    def test_matches_the_identity_formula_bit_for_bit(self, n, diagonal):
        # diagonal J and B leave exact zeros off the diagonal of J B, where
        # I - J B holds +0 and a plain negation would hold -0
        rng = np.random.default_rng(n)
        J = rng.standard_normal((n, n)) + n * np.eye(n)
        B = np.linalg.inv(J) + 1e-3 * rng.standard_normal((n, n))
        if diagonal:
            J, B = np.diag(np.diag(J)), np.diag(np.diag(B))
        I = np.eye(n)
        R = I - J @ B
        assert_same_bits(isvp.chebyshev_update(B, J), B + B @ ((I + R) @ R))

    def test_scalar_cubing(self):
        B_next = isvp.chebyshev_update(np.array([[0.5]]), np.array([[1.0]]))
        np.testing.assert_allclose(B_next, [[0.875]])
        assert 1.0 - 0.875 == 0.5**3

    @pytest.mark.parametrize(
        "B_shape, J_shape", [((3, 2), (2, 3)), ((3, 2), (3, 2)), ((3, 3), (4, 4)), ((3,), (3,))]
    )
    def test_rejects_B_and_J_that_are_not_square_with_one_side(self, B_shape, J_shape):
        # a 3 x 2 B against a 2 x 3 J returned a 3 x 2 matrix; a 3 x 3 B
        # against a 4 x 4 J escaped as numpy's own ValueError
        with pytest.raises(InputError, match="^chebyshev_update expects B and J' square with the same side$"):
            isvp.chebyshev_update(np.ones(B_shape), np.ones(J_shape))


class TestOuterStep:
    def test_state_carries_the_aligned_product(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        state = two_step_start(inst, c0)
        for s in (state, outer_step(state, inst)):
            W = s.U.T @ (isvp.evaluate_A(inst, s.c) @ s.V)
            assert np.linalg.norm(s.W - W) <= 1e-14 * np.linalg.norm(W)

    def test_matches_transliteration_oracle(self):
        inst, c_star = isvp.generate_instance(4, 2, 31)
        c0 = isvp.perturb_c_star(c_star, 1e-2, 31)
        state = two_step_start(inst, c0)
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
        X, Y = isvp.correction_matrices(state.U, state.V, W, inst.sigma_star)
        assert_close(X, oracle["X"])
        assert_close(Y, oracle["Y"])
        U_bar = multiplicative_refine(state.U, X)
        V_bar = multiplicative_refine(state.V, Y)
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
        E, F = isvp.correction_matrices(U_bar, V_bar, W_bar, inst.sigma_star)
        assert_close(E, oracle["E"])
        assert_close(F, oracle["F"])

        # end to end against the production step
        next_state = outer_step(state, inst)
        assert_close(next_state.c, oracle["c_next"])
        assert_close(next_state.U, oracle["U_next"])
        assert_close(next_state.V, oracle["V_next"])
        # J_1 and B_1 are formed by the step that starts from the new iterate
        outer_step(next_state, inst)
        assert_close(next_state.J, oracle["J_next"])
        assert_close(next_state.B, oracle["B_next"])

    def test_breakdown_on_nonfinite_state(self, small_instance):
        inst, c_star = small_instance
        state = two_step_start(inst, c_star)
        state.B = np.full_like(state.B, np.inf)
        with pytest.raises(NumericalError, match="^first coefficient update is non-finite$"):
            outer_step(state, inst)


@pytest.mark.parametrize("step", [outer_step, alg1_outer_step], ids=["outer_step", "alg1_outer_step"])
def test_a_step_uses_the_jacobian_it_finds_on_its_iterate(step, medium_instance, monkeypatch):
    # the hook a safeguarded step builds on: a J_k and B_k written onto an
    # iterate are the ones the step from it reads, and it forms neither again
    inst, c_star = medium_instance
    c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
    state = step(two_step_start(inst, c0), inst)
    assert state.k == 1 and state.J is None
    state.J = isvp.approx_jacobian(state.U, state.V, inst)
    state.B = B = jacobian_inverse(state.J)  # not the Chebyshev update of B_0
    called = []

    def spy(name, real):
        def call(*args):
            called.append(name)
            return real(*args)
        return call

    for name in ("approx_jacobian", "chebyshev_update"):
        monkeypatch.setattr(cayley_free, name, spy(name, getattr(cayley_free, name)))
    next_state = step(state, inst)
    assert called == []
    assert next_state.B is B


class TestSolve:
    def test_case_a_pattern_medium(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        B0 = two_step_start(inst, c0).B
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
        states = [two_step_start(inst, c0)]
        for _ in range(4):
            states.append(outer_step(states[-1], inst))
        # the step from each of the first four iterates has formed its J and B
        for prev, state in zip(states, states[1:4]):
            R = np.eye(inst.n) - prev.B @ state.J
            gap = np.linalg.norm((np.eye(inst.n) - state.B @ state.J) - R @ R @ R)
            assert gap <= 1e-12 * (1 + np.linalg.norm(R) ** 3)

    @pytest.mark.parametrize(
        "generate, m, n, beta, seed",
        [(isvp.generate_instance, 60, 30, 1e-3, seed) for seed in (1, 2, 3)]
        + [(isvp.generate_toeplitz_instance, 240, 160, 1e-5, seed) for seed in (1, 2)],
        ids=["dense-1", "dense-2", "dense-3", "toeplitz-1", "toeplitz-2"],
    )
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_equals_the_harness_path_bit_for_bit(self, algorithm, generate, m, n, beta, seed):
        # the entry points the benchmark times are the harness's rows: the
        # direct Cayley-free solve forms no J_0 and runs no Chebyshev update
        # at k = 0, so its record 0 holds no J_0; no last record holds a J_k
        inst, c_star = generate(m, n, seed)
        c0 = isvp.perturb_c_star(c_star, beta, seed)
        direct = {
            Algorithm.CAYLEY_FREE: lambda: isvp.solve(inst, c0, two_step_start(inst, c0).B),
            Algorithm.ALG1: lambda: isvp.alg1_solve(inst, c0),
            Algorithm.NEWTON: lambda: isvp.newton_exact_solve(inst, c0),
        }[algorithm]()
        harness, _ = run_solver(algorithm, inst, c0, SolverConfig(), 0.0, seed)

        def trace(report):
            return (
                [rec.d.hex() for rec in report.records],
                [None if rec.cond_j is None else rec.cond_j.hex() for rec in report.records],
                [float(x).hex() for x in report.c_final],
            )

        assert len(direct.records) >= 2
        want = trace(harness)
        assert want[1][0] is not None and want[1][-1] is None
        if algorithm is Algorithm.CAYLEY_FREE:
            want[1][0] = None
        assert trace(direct) == want

    def test_divergence_reported_not_raised(self):
        inst, c_star = isvp.generate_instance(20, 8, 2)
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        B0 = 3.0 * two_step_start(inst, c0).B  # far from the inverse: cubing blows up
        report = isvp.solve(inst, c0, B0)
        assert report.status is SolveStatus.DIVERGED

    def test_rejects_a_bad_B0(self, small_instance):
        inst, c_star = small_instance
        with pytest.raises(InputError, match="^B0 must be 5 x 5$"):
            isvp.solve(inst, c_star, np.eye(4))
        B0 = np.eye(5)
        B0[1, 2] = np.nan
        with pytest.raises(NonFiniteInput, match="^B0 contains NaN or infinity$"):
            isvp.solve(inst, c_star, B0)

    def test_square_instance_supported(self):
        inst, c_star = isvp.generate_instance(8, 8, 3)
        c0 = isvp.perturb_c_star(c_star, 1e-3, 3)
        B0 = two_step_start(inst, c0).B
        report = isvp.solve(inst, c0, B0, SolverConfig(tol=1e-12))
        assert report.status is SolveStatus.CONVERGED
        assert np.linalg.norm(report.c_final - c_star) <= 1e-8 * (1 + np.linalg.norm(c_star))


def iterates_of(step, instance, c0):
    """Every iterate of a two-step solve from ``two_step_start`` at c0."""
    seen = [two_step_start(instance, c0)]

    def recording(state, instance):
        seen.append(step(state, instance))
        return seen[-1]

    cayley_free._iterate(recording, seen[0], instance, None, None, time.perf_counter())
    return seen


TWO_STEP = {Algorithm.CAYLEY_FREE: outer_step, Algorithm.ALG1: alg1_outer_step}


class TestTiedPath:
    """On a symmetric family a start with U = V S, S = diag(signs), keeps
    that tie in every two-step iterate, and each step updates V alone."""

    @pytest.mark.parametrize("algorithm", list(TWO_STEP), ids=lambda a: a.value)
    def test_every_iterate_of_a_toeplitz_solve_is_tied_bit_for_bit(self, algorithm):
        inst, c_star = isvp.generate_toeplitz_instance(240, 160, 1)
        states = iterates_of(TWO_STEP[algorithm], inst, isvp.perturb_c_star(c_star, 1e-5, 1))
        signs = states[0].signs
        assert signs is not None and signs.min() == -1.0 and signs.max() == 1.0
        assert len(states) >= 3
        for state in states:
            assert state.signs is signs
            assert_same_bits(state.U, state.V * signs)

    def test_untied_starts_and_iterates_carry_no_signs(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        for step in TWO_STEP.values():
            assert all(state.signs is None for state in iterates_of(step, inst, c0))
        # Newton's iterates, even on a Toeplitz family
        toeplitz, t_star = isvp.generate_toeplitz_instance(40, 24, 1)
        state = _newton_point(toeplitz, isvp.perturb_c_star(t_star, 1e-5, 1))
        assert state.signs is None and _newton_step(state, toeplitz).signs is None
        # an odd-n Toeplitz start takes LAPACK's SVD, whose U is not V S bit for bit
        odd, o_star = isvp.generate_toeplitz_instance(40, 21, 1)
        assert two_step_start(odd, isvp.perturb_c_star(o_star, 1e-5, 1)).signs is None
        # a square dense twin factors by eigh too, but its basis declares no symmetry
        twin = isvp.build_instance(toeplitz.basis[:, :24], toeplitz.sigma_star)
        start = two_step_start(twin, isvp.perturb_c_star(t_star, 1e-5, 1))
        signs = np.where(np.einsum("ij,ij->j", start.U, start.V) < 0.0, -1.0, 1.0)
        assert_same_bits(start.U, start.V * signs)
        assert start.signs is None

    def test_the_left_correction_is_the_right_one_conjugated_by_the_signs(self):
        # so U (I - left) = V (I - right) S: the tied step builds only the right one
        rng = np.random.default_rng(5)
        n = 12
        sigma = separated_sigma(rng, n)
        signs = rng.choice([-1.0, 1.0], n)
        V = near_orthogonal(rng, n)
        H = rng.standard_normal((n, n))
        W = signs[:, None] * (np.diag(sigma) + 1e-2 * (H + H.T))
        W += 1e-14 * rng.standard_normal((n, n))  # the asymmetry of a computed product
        W_sym = cayley_free._tied_input(W, signs)
        left, right = isvp.correction_matrices(V * signs, V, W_sym, sigma)
        assert_close(left, signs[:, None] * right * signs)
        assert_close(cayley_free._tied_correction(V, W, signs, sigma), right)

    @pytest.mark.parametrize("algorithm", list(TWO_STEP), ids=lambda a: a.value)
    def test_converges_in_as_many_steps_as_the_untied_path(self, algorithm, monkeypatch):
        # a tied correction from the raw W, not its symmetric part, leaves d_k
        # above 1e-12 on half of these solves until max_iterations
        config = SolverConfig(tol=1e-12)
        outcomes = {}
        for tied in (True, False):
            monkeypatch.setattr(ToeplitzBasis, "symmetric", tied)
            for seed in range(1, 7):
                inst, c_star = isvp.generate_toeplitz_instance(240, 160, seed)
                c0 = isvp.perturb_c_star(c_star, 1e-5, seed)
                assert (two_step_start(inst, c0).signs is not None) is tied
                report = solve(algorithm, inst, c0, config)
                outcomes[tied, seed] = (report.status, report.iterations)
        for seed in range(1, 7):
            assert outcomes[True, seed] == outcomes[False, seed]
            assert outcomes[True, seed][0] is SolveStatus.CONVERGED


class TestStructuralNoSolves:
    def test_no_scipy_dependency(self):
        source = inspect.getsource(cayley_free)
        assert "scipy" not in source
