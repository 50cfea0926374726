from dataclasses import replace

import numpy as np
import pytest

import isvp
from isvp import baselines, cayley_free
from isvp.baselines import alg1_outer_step
from isvp.cayley_free import SolverConfig, two_step_start
from isvp.core import MIN_GAP, diag_embed, residual_d
from isvp.errors import InputError, NumericalError
from isvp.harness import SOLVERS, Algorithm, build_B0
from isvp.report import SolveStatus
from isvp.verification import separated_sigma

from conftest import solve


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


def pairwise_shift_rejects(s):
    # reference rule: an entry within MIN_GAP of zero, or two entries that
    # collide or cancel within it, each found over all n x n pairs
    if np.any(np.abs(s) <= MIN_GAP):
        return True
    diff = np.abs(s[:, None] - s[None, :])
    np.fill_diagonal(diff, np.inf)
    return diff.min() <= MIN_GAP or np.abs(s[:, None] + s[None, :]).min() <= MIN_GAP


class TestSkewPair:
    def test_diagonal_input_gives_zero(self):
        s = np.array([3.0, 1.5])
        D = diag_embed(s, 5)
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

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(47)
        D = rng.standard_normal((6, 3))
        s = np.array([4.0, 2.5, 1.0])
        X, Y = isvp.alg1_skew_pair(D, s)
        X_ref, Y_ref = loop_skew_pair(D, s)
        np.testing.assert_allclose(X, X_ref, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(Y, Y_ref, rtol=1e-14, atol=1e-15)

    def test_degenerate_shifts_rejected(self):
        # two that collide, one near zero, two that cancel: one message
        D = np.ones((4, 3))
        for s, gap in [([2.0, 1.0, 1.0 + 1e-13], "9.992e-14"), ([2.0, 1e-14, 0.5], "1.000e-14"),
                       ([2.0, 1.0, -1.0 + 1e-13], "1.000e-13")]:
            message = rf"^shift entries collide, cancel or vanish \(gap {gap}\)$"
            with pytest.raises(NumericalError, match=message):
                isvp.alg1_skew_pair(D, np.array(s))

    def test_shift_rule_matches_the_pairwise_tests(self):
        # the sorted-magnitude gap decides as the three pairwise tests do, on
        # ties, +- pairs, near collisions, near cancellations and near-zero
        # entries, at n = 1..7 and magnitudes 1e-12..1e2
        rng = np.random.default_rng(2024)
        vectors = [np.array([MIN_GAP, 2.0]), np.array([-MIN_GAP])]
        for _ in range(10_000):
            n = int(rng.integers(1, 8))
            s = 10.0 ** rng.uniform(-12.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
            i, j = rng.integers(0, n, 2)
            near = rng.uniform(0.5, 1.5) * MIN_GAP * rng.choice([-1.0, 1.0])
            kind = rng.integers(0, 6)
            if kind in (1, 2):
                s[j] = s[i] if kind == 1 else -s[i]
            elif kind in (3, 4):
                s[j] = (s[i] if kind == 3 else -s[i]) + near
            elif kind == 5:
                s[i] = near
            vectors.append(s)
        rejected = 0
        for s in vectors:
            try:
                baselines._check_shift(s)
                new = False
            except NumericalError:
                new = True
            assert new == pairwise_shift_rejects(s), s
            rejected += new
        assert 0 < rejected < len(vectors)

    def test_accepts_lists(self):
        D = np.arange(12.0).reshape(4, 3)
        s = [3.0, 2.0, 1.0]
        pairs = zip(isvp.alg1_skew_pair(D.tolist(), s), isvp.alg1_skew_pair(D, np.array(s)))
        assert all(np.array_equal(got, want) for got, want in pairs)

    @pytest.mark.parametrize(
        "D, s",
        [(np.ones(3), [3.0, 2.0, 1.0]), (np.ones((4, 3)), [2.0, 1.0]),
         (np.ones((2, 3)), [3.0, 2.0, 1.0])],
        ids=["vector-D", "short-s", "wide-D"],
    )
    def test_rejects_mismatched_shapes(self, D, s):
        # a wide D passed the other checks and met numpy's broadcast ValueError
        with pytest.raises(InputError, match="^alg1_skew_pair expects D m x n and shifts s"):
            isvp.alg1_skew_pair(D, s)

    @pytest.mark.parametrize("m, n", [(12, 1), (7, 3), (8, 5), (30, 30), (60, 30), (400, 200)])
    def test_is_the_negated_correction_pair_at_identity(self, m, n):
        # with U = I and V = I every Gram term subtracts an exact zero, which
        # the skew pair skips, so both solve one alignment system to the bit,
        # signed zeros included, also where D holds zeros of either sign
        rng = np.random.default_rng(100 * m + n)
        for case in range(6):
            D = rng.standard_normal((m, n))
            if case == 5:
                D[rng.random((m, n)) < 0.3] = 0.0
                D[rng.random((m, n)) < 0.1] = -0.0
            s = separated_sigma(rng, n)
            X, Y = isvp.alg1_skew_pair(D, s)
            left, right = isvp.correction_matrices(np.eye(m), np.eye(n), D, s)
            assert X.tobytes() == (-left).tobytes()
            assert Y.tobytes() == (-right).tobytes()


class TestCayleyOrthogonalize:
    def test_zero_skew_is_identity_map(self):
        rng = np.random.default_rng(3)
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        np.testing.assert_allclose(isvp.cayley_orthogonalize(Q, np.zeros((5, 5))), Q)

    def test_rotation_by_ninety_degrees(self):
        S = np.array([[0.0, 2.0], [-2.0, 0.0]])
        Q_next = isvp.cayley_orthogonalize(np.eye(2), S)
        np.testing.assert_allclose(Q_next.T, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)

    @pytest.mark.parametrize("norm", [1e-8, 1e-4, 1e-2, 1.0, 1e1, 1e2])
    @pytest.mark.parametrize("side", [2, 7, 40])
    def test_matches_the_two_sided_solve(self, side, norm):
        # one solve with I + S/2 and no product with I - S/2 is the same map
        rng = np.random.default_rng(side)
        Q = np.linalg.qr(rng.standard_normal((side, side)))[0]
        S = np.triu(rng.standard_normal((side, side)), 1)
        S = S - S.T
        S *= norm / np.linalg.norm(S, 2)
        eye = np.eye(side)
        expected = np.linalg.solve(eye + S / 2, (eye - S / 2) @ Q.T).T
        Q_next = isvp.cayley_orthogonalize(Q, S)
        assert np.abs(Q_next - expected).max() <= 1e-14 * (1.0 + norm)
        assert np.linalg.norm(Q_next.T @ Q_next - eye) <= 1e-13


class TestAlg1OuterStep:
    def test_matches_transliteration_oracle(self, monkeypatch):
        inst, c_star = isvp.generate_instance(4, 2, 31)
        c0 = isvp.perturb_c_star(c_star, 1e-2, 31)
        state = two_step_start(inst, c0)
        # a B_0 off inv(J_0) keeps I - J_k B_k well above roundoff, so the
        # shifts s_k differ from sigma* and the oracle checks their formula
        state.B = build_B0(state.J, 0.5, 31)
        U, V, J, B = state.U, state.V, state.J, state.B
        sigma = inst.sigma_star

        # straight-line re-implementation with loop-built pieces, keeping
        # the paper's first update from J c + b
        n = inst.n
        b = np.array([U[:, i] @ inst.basis[0] @ V[:, i] for i in range(n)])
        y = c0 - B @ (J @ c0 + b - sigma)
        A_y = isvp.evaluate_A(inst, y)
        D = U.T @ A_y @ V
        X, Y = loop_skew_pair(D, sigma)
        eye_m = np.eye(inst.m)
        eye_n = np.eye(n)
        Z = (np.linalg.inv(eye_m + X / 2) @ (eye_m - X / 2) @ U.T).T
        N = (np.linalg.inv(eye_n + Y / 2) @ (eye_n - Y / 2) @ V.T).T
        sigma_bar = np.array([Z[:, i] @ A_y @ N[:, i] for i in range(n)])
        c1 = y - B @ (sigma_bar - sigma)
        s_bar = sigma + (eye_n - J @ B) @ (sigma_bar - sigma)
        A1 = isvp.evaluate_A(inst, c1)
        D_bar = U.T @ A1 @ V - U.T @ A_y @ V + Z.T @ A_y @ N
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
        # J_1, B_1 and s_1 are formed by the step that starts from the new
        # iterate; s_1 is a value of that step, read off its first skew pair
        shifts = []

        def spy(D, s):
            shifts.append(s)
            return isvp.alg1_skew_pair(D, s)

        monkeypatch.setattr(baselines, "alg1_skew_pair", spy)
        alg1_outer_step(next_state, inst)
        for got, want in [
            (next_state.c, c1),
            (next_state.U, U1),
            (next_state.V, V1),
            (next_state.J, J1),
            (next_state.B, B1),
            (shifts[0], s1),
        ]:
            assert np.linalg.norm(got - want) <= 1e-13 * (1 + np.linalg.norm(want))


class TestAlg1Solve:
    def test_medium_fixture_converges(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        report = isvp.alg1_solve(inst, c0, c_star=c_star)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations <= 4

    def test_orthogonality_maintained_throughout(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        state = two_step_start(inst, c0)
        for _ in range(3):
            state = alg1_outer_step(state, inst)
            assert np.linalg.norm(state.U.T @ state.U - np.eye(inst.m)) <= 1e-10 * inst.m
            assert np.linalg.norm(state.V.T @ state.V - np.eye(inst.n)) <= 1e-10 * inst.n

    def test_agrees_with_cayley_free(self, medium_instance):
        inst, c_star = medium_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
        config = SolverConfig(tol=1e-12)
        rep_free = solve(Algorithm.CAYLEY_FREE, inst, c0, config)
        rep_base = solve(Algorithm.ALG1, inst, c0, config)
        assert rep_free.status is SolveStatus.CONVERGED
        assert rep_base.status is SolveStatus.CONVERGED
        gap = np.linalg.norm(rep_free.c_final - rep_base.c_final)
        assert gap <= 1e-8 * (1 + np.linalg.norm(rep_base.c_final))


class TestNewtonOracle:
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
        base = diag_embed(np.array([2.0, 2.0 + 1e-12, 1.0]), 4)
        rng = np.random.default_rng(9)
        basis = [base] + [1e-3 * rng.random((4, 3)) for _ in range(3)]
        inst = isvp.build_instance(basis, [3.0, 2.0, 1.0])
        with pytest.raises(NumericalError, match=r"^singular values too close along the path \(gap "):
            isvp.newton_exact_solve(inst, np.zeros(3))


@pytest.mark.parametrize("step", [isvp.outer_step, alg1_outer_step], ids=["cayley-free", "alg1"])
def test_two_step_methods_ignore_the_tail_basis_of_U(step):
    # full_svd may complete u_1..u_n with any orthonormal basis of the
    # complement; rotating that tail must not change the iterates
    inst, c_star = isvp.generate_instance(60, 30, 4)
    c0 = isvp.perturb_c_star(c_star, 1e-3, 4)
    state = two_step_start(inst, c0)
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


@pytest.mark.parametrize("method", ["cayley-free", "alg1"])
def test_singular_initial_jacobian(method):
    # duplicated coefficient matrices make J0 exactly rank deficient
    rng = np.random.default_rng(5)
    A1 = rng.random((4, 2))
    basis = [rng.random((4, 2)), A1, A1]
    inst = isvp.build_instance(basis, [3.0, 1.0])
    with pytest.raises(NumericalError, match="^J0 is singular: "):
        solve(Algorithm(method), inst, np.array([0.3, 0.4]))


@pytest.mark.parametrize("algorithm", sorted(SOLVERS))
def test_every_iterate_carries_W_and_its_record_reads_d_off_it(algorithm, monkeypatch):
    inst, c_star = isvp.generate_instance(40, 20, 2)
    c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
    _, (module, step) = SOLVERS[algorithm]
    states = []
    original = getattr(module, step)

    def spy(state, instance):
        if not states:
            states.append(state)
        states.append(original(state, instance))
        return states[-1]

    monkeypatch.setattr(module, step, spy)
    report = solve(algorithm, inst, c0)
    assert report.iterations >= 2 and len(states) == len(report.records)
    for state, record in zip(states, report.records):
        A_c = isvp.evaluate_A(inst, state.c)
        W = state.U.T @ (A_c @ state.V)
        assert np.linalg.norm(state.W - W) <= 1e-14 * np.linalg.norm(W)
        assert record.d == residual_d(state.W, inst.sigma_star)
        # an exact point (every k = 0 state, every Newton iterate) is its SVD: W = Sigma,
        # r x n at a two-step start and n x n on Newton's thin factor, whose
        # sigma is the full factor's bit for bit
        if state.k == 0 or algorithm is Algorithm.NEWTON:
            sigma = isvp.full_svd(A_c).sigma
            rows = inst.n if algorithm is Algorithm.NEWTON else inst.r
            assert np.array_equal(state.W, diag_embed(sigma, rows))


def test_alg1_leaves_the_target_tables_cached():
    # alg1's shifts change at every step; were they keyed into the one-entry
    # cache, the next Cayley-free solve would rebuild sigma*'s tables
    inst, c_star = isvp.generate_instance(60, 30, 3)
    c0 = isvp.perturb_c_star(c_star, 1e-3, 3)
    solve(Algorithm.CAYLEY_FREE, inst, c0)
    misses = cayley_free._target_tables.cache_info().misses
    assert solve(Algorithm.ALG1, inst, c0).iterations >= 2
    solve(Algorithm.CAYLEY_FREE, inst, c0)
    assert cayley_free._target_tables.cache_info().misses == misses
