from dataclasses import replace

import numpy as np
import pytest

import isvp
import isvp.baselines as baselines
import isvp.cayley_free as cayley_free
from isvp.baselines import alg1_outer_step, Alg1State
from isvp.cayley_free import SolverConfig, initialize
from isvp.core import residual_d
from isvp.errors import (
    DegenerateShift,
    NumericalBreakdown,
    SingularJacobian,
    SingularValueCollision,
)
from isvp.harness import Algorithm, run_solver
from isvp.report import SolveStatus

from conftest import solved_start


def loop_skew_pair(D, s):
    """Entrywise oracle for the skew construction."""
    m, n = D.shape
    X = np.zeros((m, m))
    Y = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            X[i, j] = (s[i] * D[j, i] + s[j] * D[i, j]) / (s[j] ** 2 - s[i] ** 2)
            Y[i, j] = (s[i] * D[i, j] + s[j] * D[j, i]) / (s[j] ** 2 - s[i] ** 2)
    for i in range(n, m):
        for j in range(n):
            X[i, j] = D[i, j] / s[j]
            X[j, i] = -X[i, j]
    return X, Y


class TestSkewPair:
    def test_diagonal_input_gives_zero(self):
        s = np.array([3.0, 1.5])
        D = isvp.diag_embed(s, 5)
        X, Y = isvp.alg1_skew_pair(D, s)
        np.testing.assert_array_equal(X, np.zeros((5, 5)))
        np.testing.assert_array_equal(Y, np.zeros((2, 2)))

    def test_hand_computed_entries(self):
        # worked example: m=3, n=2, D=[[0,1],[2,0],[3,4]], s=(2,1)
        D = np.array([[0.0, 1.0], [2.0, 0.0], [3.0, 4.0]])
        s = np.array([2.0, 1.0])
        X, Y = isvp.alg1_skew_pair(D, s)
        np.testing.assert_allclose(X[0, 1], -5.0 / 3.0)
        np.testing.assert_allclose(X[2, 0], 3.0 / 2.0)
        np.testing.assert_allclose(X[2, 1], 4.0 / 1.0)
        np.testing.assert_allclose(Y[0, 1], -4.0 / 3.0)
        assert X[2, 2] == 0.0  # trailing off-diagonal block stays zero

    def test_exact_skewness(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(n, 20))
            s = np.sort(rng.uniform(0.5, 9.0, n))[::-1]
            if np.diff(-s).min() < 1e-3:
                continue
            D = rng.standard_normal((m, n))
            X, Y = isvp.alg1_skew_pair(D, s)
            np.testing.assert_array_equal(X, -X.T)
            np.testing.assert_array_equal(Y, -Y.T)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(47)
        D = rng.standard_normal((6, 3))
        s = np.array([4.0, 2.5, 1.0])
        X, Y = isvp.alg1_skew_pair(D, s)
        X_ref, Y_ref = loop_skew_pair(D, s)
        np.testing.assert_allclose(X, X_ref, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(Y, Y_ref, rtol=1e-14, atol=1e-15)

    def test_degenerate_shifts_rejected(self):
        D = np.ones((4, 3))
        with pytest.raises(DegenerateShift):
            isvp.alg1_skew_pair(D, np.array([2.0, 1.0, 1.0 + 1e-13]))
        with pytest.raises(DegenerateShift):
            isvp.alg1_skew_pair(D, np.array([2.0, 1e-14, 0.5]))
        with pytest.raises(DegenerateShift):
            isvp.alg1_skew_pair(D, np.array([2.0, 1.0, -1.0 + 1e-13]))


class TestCayleyOrthogonalize:
    def test_zero_skew_is_identity_map(self):
        rng = np.random.default_rng(3)
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        np.testing.assert_allclose(isvp.cayley_orthogonalize(Q, np.zeros((5, 5))), Q)

    def test_rotation_by_ninety_degrees(self):
        S = np.array([[0.0, 2.0], [-2.0, 0.0]])
        Q_next = isvp.cayley_orthogonalize(np.eye(2), S)
        np.testing.assert_allclose(Q_next.T, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


class TestAlg1OuterStep:
    def _exact_state(self, instance, c_star):
        A_star = isvp.evaluate_A(instance, c_star)
        f = isvp.full_svd(A_star)
        J = isvp.approx_jacobian(f.U, f.V, instance)
        return Alg1State(
            k=0,
            c=c_star.copy(),
            W=f.U.T @ (A_star @ f.V),
            U=f.U,
            V=f.V,
            B=np.linalg.inv(J),
            J=J,
            s=instance.sigma_star.copy(),
        )

    def test_fixed_point_at_exact_solution(self, small_instance):
        inst, c_star = small_instance
        state = self._exact_state(inst, c_star)
        s = alg1_outer_step(state, inst)
        assert np.linalg.norm(s.c - c_star) <= 1e-10 * (1 + np.linalg.norm(c_star))
        sigma = inst.sigma_star
        assert residual_d(s.W, sigma) <= 1e-12 * np.linalg.norm(sigma)

    def test_matches_transliteration_oracle(self):
        inst, c_star = isvp.generate_instance(4, 2, 31)
        c0 = isvp.perturb_c_star(c_star, 1e-2, 31)
        A0 = isvp.evaluate_A(inst, c0)
        f = isvp.full_svd(A0)
        J = isvp.approx_jacobian(f.U, f.V, inst)
        B = np.linalg.inv(J)
        sigma = inst.sigma_star
        W = f.U.T @ (A0 @ f.V)
        state = Alg1State(k=0, c=c0.copy(), W=W, U=f.U, V=f.V, B=B, J=J, s=sigma.copy())

        # straight-line re-implementation with loop-built pieces, keeping
        # the paper's first update from J c + b
        n = inst.n
        b = np.array([f.U[:, i] @ inst.basis[0] @ f.V[:, i] for i in range(n)])
        y = c0 - B @ (J @ c0 + b - sigma)
        A_y = isvp.evaluate_A(inst, y)
        D = f.U.T @ A_y @ f.V
        X, Y = loop_skew_pair(D, sigma)
        eye_m = np.eye(inst.m)
        eye_n = np.eye(n)
        Z = (np.linalg.inv(eye_m + X / 2) @ (eye_m - X / 2) @ f.U.T).T
        N = (np.linalg.inv(eye_n + Y / 2) @ (eye_n - Y / 2) @ f.V.T).T
        sigma_bar = np.array([Z[:, i] @ A_y @ N[:, i] for i in range(n)])
        c1 = y - B @ (sigma_bar - sigma)
        s_bar = sigma + (eye_n - J @ B) @ (sigma_bar - sigma)
        A1 = isvp.evaluate_A(inst, c1)
        D_bar = f.U.T @ A1 @ f.V - f.U.T @ A_y @ f.V + Z.T @ A_y @ N
        Xb, Yb = loop_skew_pair(D_bar, s_bar)
        U1 = (np.linalg.inv(eye_m + Xb / 2) @ (eye_m - Xb / 2) @ Z.T).T
        V1 = (np.linalg.inv(eye_n + Yb / 2) @ (eye_n - Yb / 2) @ N.T).T
        sigma1 = np.array([U1[:, i] @ A1 @ V1[:, i] for i in range(n)])
        J1 = np.array(
            [
                [U1[:, i] @ inst.basis[j + 1] @ V1[:, i] for j in range(n)]
                for i in range(n)
            ]
        )
        B1 = B + B @ (2 * eye_n - J1 @ B) @ (eye_n - J1 @ B)
        s1 = sigma + (eye_n - J1 @ B1) @ (sigma1 - sigma)

        next_state = alg1_outer_step(state, inst)
        for got, want in [
            (next_state.c, c1),
            (next_state.U, U1),
            (next_state.V, V1),
            (next_state.J, J1),
            (next_state.B, B1),
            (next_state.s, s1),
        ]:
            assert np.linalg.norm(got - want) <= 1e-13 * (1 + np.linalg.norm(want))


class TestAlg1Solve:
    def test_converged_immediately_at_solution(self, small_instance):
        inst, c_star = small_instance
        report = isvp.alg1_solve(inst, c_star)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations == 0

    def test_medium_fixture_converges(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        report = isvp.alg1_solve(inst, c0, c_star=c_star)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations <= 4

    def test_orthogonality_maintained_throughout(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        A0 = isvp.evaluate_A(inst, c0)
        f = isvp.full_svd(A0)
        J = isvp.approx_jacobian(f.U, f.V, inst)
        state = Alg1State(
            k=0,
            c=c0.copy(),
            W=f.U.T @ (A0 @ f.V),
            U=f.U,
            V=f.V,
            B=np.linalg.inv(J),
            J=J,
            s=inst.sigma_star.copy(),
        )
        for _ in range(3):
            state = alg1_outer_step(state, inst)
            assert np.linalg.norm(state.U.T @ state.U - np.eye(inst.m)) <= 1e-10 * inst.m
            assert np.linalg.norm(state.V.T @ state.V - np.eye(inst.n)) <= 1e-10 * inst.n

    def test_singular_initial_jacobian(self):
        # duplicated coefficient matrices make J0 exactly rank deficient
        rng = np.random.default_rng(5)
        A1 = rng.random((4, 2))
        basis = [rng.random((4, 2)), A1, A1]
        inst = isvp.build_instance(basis, [3.0, 1.0])
        with pytest.raises(SingularJacobian):
            isvp.alg1_solve(inst, np.array([0.3, 0.4]))

    def test_agrees_with_cayley_free(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        config = SolverConfig(tol=1e-12)
        _, B0 = solved_start(inst, c0)
        rep_free = isvp.solve(inst, c0, B0, config)
        rep_base = isvp.alg1_solve(inst, c0, config)
        assert rep_free.status is SolveStatus.CONVERGED
        assert rep_base.status is SolveStatus.CONVERGED
        gap = np.linalg.norm(rep_free.c_final - rep_base.c_final)
        assert gap <= 1e-8 * (1 + np.linalg.norm(rep_base.c_final))


class TestNewtonOracle:
    def test_converged_immediately_at_solution(self, small_instance):
        inst, c_star = small_instance
        report = isvp.newton_exact_solve(inst, c_star)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations == 0

    def test_recovers_generating_vector(self):
        inst, c_star = isvp.generate_instance(10, 5, 3)
        c0 = isvp.perturb_c_star(c_star, 1e-3, 3)
        report = isvp.newton_exact_solve(inst, c0, c_star=c_star)
        assert report.status is SolveStatus.CONVERGED
        err = np.linalg.norm(report.c_final - c_star)
        assert err <= 1e-10 * (1 + np.linalg.norm(c_star))

    def test_final_singular_values_hit_targets(self):
        inst, c_star = isvp.generate_instance(10, 5, 11)
        c0 = isvp.perturb_c_star(c_star, 1e-3, 11)
        report = isvp.newton_exact_solve(inst, c0)
        sigma_final = np.linalg.svd(
            isvp.evaluate_A(inst, report.c_final), compute_uv=False
        )
        assert np.abs(sigma_final - inst.sigma_star).max() <= 1e-10

    def test_quadratic_convergence_smoke(self):
        inst, c_star = isvp.generate_instance(20, 8, 2)
        c0 = isvp.perturb_c_star(c_star, 3e-2, 2)
        report = isvp.newton_exact_solve(inst, c0, SolverConfig(tol=1e-13))
        d = report.residuals
        fitted = [
            nxt / prev**2
            for prev, nxt in zip(d, d[1:])
            if 1e-13 < prev < 1e-2 and nxt > 0
        ]
        assert fitted and all(np.isfinite(fitted))

    def test_singular_value_collision_detected(self):
        # A(0) has two nearly equal singular values closer than MIN_GAP
        base = isvp.diag_embed(np.array([2.0, 2.0 + 1e-12, 1.0]), 4)
        rng = np.random.default_rng(9)
        basis = [base] + [1e-3 * rng.random((4, 3)) for _ in range(3)]
        inst = isvp.build_instance(basis, [3.0, 2.0, 1.0])
        with pytest.raises(SingularValueCollision):
            isvp.newton_exact_solve(inst, np.zeros(3))


class TestCrossSolverAgreement:
    def test_three_way_agreement_small(self):
        inst, c_star = isvp.generate_instance(12, 6, 102)
        c0 = isvp.perturb_c_star(c_star, 1e-3, 102)
        config = SolverConfig(tol=1e-12)
        _, B0 = solved_start(inst, c0)
        finals = [
            isvp.solve(inst, c0, B0, config).c_final,
            isvp.alg1_solve(inst, c0, config).c_final,
            isvp.newton_exact_solve(inst, c0, config).c_final,
        ]
        for a in finals:
            for b in finals:
                assert np.linalg.norm(a - b) <= 1e-8 * (1 + np.linalg.norm(b))


def _k0_state(method, inst, c0):
    """The k = 0 state each two-step solver starts from (B_0 = inv(J_0))."""
    if method == "cayley-free":
        state = initialize(inst, c0)
        state.B = np.linalg.inv(state.J)
        return state
    A = isvp.evaluate_A(inst, c0)
    f = isvp.full_svd(A)
    J = isvp.approx_jacobian(f.U, f.V, inst)
    return Alg1State(
        k=0, c=c0.copy(), W=f.U.T @ (A @ f.V), U=f.U, V=f.V, B=np.linalg.inv(J), J=J,
        s=inst.sigma_star.copy(),
    )


@pytest.mark.parametrize("method", ["cayley-free", "alg1"])
def test_two_step_methods_ignore_the_tail_basis_of_U(method):
    # full_svd may complete u_1..u_n with any orthonormal basis of the
    # complement; rotating that tail must not change the iterates
    step = isvp.outer_step if method == "cayley-free" else alg1_outer_step
    inst, c_star = isvp.generate_instance(60, 30, 4)
    c0 = isvp.perturb_c_star(c_star, 1e-3, 4)
    state = _k0_state(method, inst, c0)
    Q = np.linalg.qr(np.random.default_rng(11).standard_normal((30, 30)))[0]
    U = state.U.copy()
    U[:, 30:] = U[:, 30:] @ Q
    rotated = replace(state, U=U, W=U.T @ (isvp.evaluate_A(inst, c0) @ state.V))
    for _ in range(3):
        state = step(state, inst)
        rotated = step(rotated, inst)
        scale = np.linalg.norm(state.c)
        assert np.linalg.norm(rotated.c - state.c) <= 1e-12 * scale
        d = residual_d(state.W, inst.sigma_star)
        d_rot = residual_d(rotated.W, inst.sigma_star)
        if d > 1e-8:
            assert d_rot == pytest.approx(d, rel=1e-6)


_STEPS = {
    "cayley-free": (cayley_free, "outer_step"),
    "alg1": (baselines, "alg1_outer_step"),
    "newton": (baselines, "_newton_step"),
}


@pytest.mark.parametrize("method", sorted(_STEPS))
def test_every_iterate_carries_W_and_its_record_reads_d_off_it(method, monkeypatch):
    inst, c_star = isvp.generate_instance(40, 20, 2)
    c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
    module, step = _STEPS[method]
    states = []
    original = getattr(module, step)

    def spy(state, instance):
        if not states:
            states.append(state)
        states.append(original(state, instance))
        return states[-1]

    monkeypatch.setattr(module, step, spy)
    report, _ = run_solver(Algorithm(method), inst, c0, SolverConfig(), 0.0, 2)
    assert report.iterations >= 2 and len(states) == len(report.records)
    for state, record in zip(states, report.records):
        W = state.U.T @ (isvp.evaluate_A(inst, state.c) @ state.V)
        assert np.linalg.norm(state.W - W) <= 1e-14 * np.linalg.norm(W)
        assert record.d == residual_d(state.W, inst.sigma_star)
