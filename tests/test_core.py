import numpy as np
import pytest

import isvp
from isvp.errors import (
    ArityMismatch,
    DimensionMismatch,
    DuplicateSigma,
    IoFailure,
    NonFiniteInput,
    NonpositiveSigma,
)


class TestBuildInstance:
    def test_valid_basis(self):
        basis = [np.ones((3, 2)), np.eye(3, 2), np.flipud(np.eye(3, 2))]
        inst = isvp.build_instance(basis, [3.0, 1.0])
        assert inst.m == 3 and inst.n == 2
        assert np.array_equal(inst.sigma_star, [3.0, 1.0])

    def test_duplicate_sigma(self):
        basis = [np.ones((4, 3))] * 4
        with pytest.raises(DuplicateSigma):
            isvp.build_instance(basis, [2.0, 2.0, 1.0])

    def test_nonpositive_sigma(self):
        basis = [np.ones((4, 3))] * 4
        with pytest.raises(NonpositiveSigma):
            isvp.build_instance(basis, [3.0, 2.0, 0.0])

    def test_arity_mismatch(self):
        basis = [np.ones((4, 3))] * 4
        with pytest.raises(ArityMismatch):
            isvp.build_instance(basis, [3.0, 2.0])

    def test_ragged_basis(self):
        with pytest.raises(DimensionMismatch):
            isvp.build_instance([np.ones((3, 2)), np.ones((2, 2)), np.ones((3, 2))], [2.0, 1.0])

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionMismatch):
            isvp.build_instance([np.ones((2, 3))] * 4, [3.0, 2.0, 1.0])

    def test_min_gap_to_zero_enforced(self):
        # smallest target must clear min_gap above zero
        basis = [np.ones((3, 2))] * 3
        with pytest.raises(DuplicateSigma):
            isvp.build_instance(basis, [1.0, 1e-12])

    def test_basis_is_immutable(self):
        basis = [np.ones((3, 2)), np.eye(3, 2), np.flipud(np.eye(3, 2))]
        inst = isvp.build_instance(basis, [3.0, 1.0])
        with pytest.raises(ValueError):
            inst.basis[0][0, 0] = 5.0


class TestEvaluateA:
    def _tiny(self):
        return isvp.build_instance(
            [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])], [1.0]
        )

    def test_offset_only(self):
        inst = self._tiny()
        np.testing.assert_array_equal(isvp.evaluate_A(inst, [0.0]), [[1.0], [0.0]])

    def test_single_term(self):
        inst = self._tiny()
        np.testing.assert_array_equal(isvp.evaluate_A(inst, [2.0]), [[1.0], [2.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        basis = [rng.random((3, 2)) for _ in range(3)]
        inst = isvp.build_instance(basis, [2.0, 1.0])
        c = rng.random(2)
        got = isvp.evaluate_A(inst, c)
        expected = np.zeros((3, 2))
        for r in range(3):
            for col in range(2):
                acc = basis[0][r, col]
                for i in range(2):
                    acc = acc + c[i] * basis[i + 1][r, col]
                expected[r, col] = acc
        # A(c) is one GEMV over the stack, whose summation order need not
        # be this loop's, so the two agree to roundoff rather than exactly
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)

    def test_nonfinite_rejected(self):
        inst = self._tiny()
        with pytest.raises(NonFiniteInput):
            isvp.evaluate_A(inst, [np.nan])

    def test_affine_in_c(self):
        rng = np.random.default_rng(3)
        inst, _ = isvp.generate_instance(6, 3, 3)
        for _ in range(20):
            c1 = rng.uniform(-2, 2, 3)
            c2 = rng.uniform(-2, 2, 3)
            lhs = (
                isvp.evaluate_A(inst, c1 + c2)
                - isvp.evaluate_A(inst, c1)
                - isvp.evaluate_A(inst, c2)
                + inst.basis[0]
            )
            scale = np.abs(isvp.evaluate_A(inst, c1 + c2)).max()
            assert np.abs(lhs).max() <= 1e-13 * max(scale, 1.0)


class TestFullSvd:
    def test_already_diagonal(self):
        f = isvp.full_svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(f.U, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(f.V, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(f.sigma, [3.0, 1.0])

    def test_permuted_diagonal(self):
        A = np.array([[0.0, 2.0], [1.0, 0.0], [0.0, 0.0]])
        f = isvp.full_svd(A)
        np.testing.assert_allclose(f.sigma, [2.0, 1.0])
        # signed permutations: A e_2 = 2 e_1 and A e_1 = 1 e_2
        np.testing.assert_allclose(np.abs(f.V), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(np.abs(f.U), np.eye(3), atol=1e-15)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 4))
        f = isvp.full_svd(A)
        res = np.linalg.norm(f.U.T @ A @ f.V - isvp.diag_embed(f.sigma, 6))
        assert res <= 1e-10 * np.linalg.norm(A)

    def test_invariants_hundred_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 31))
            m = int(rng.integers(n, 51))
            A = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0)
            f = isvp.full_svd(A)
            assert np.linalg.norm(f.U.T @ f.U - np.eye(m)) <= 1e-12 * m
            assert np.linalg.norm(f.V.T @ f.V - np.eye(n)) <= 1e-12 * n
            assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)
            res = np.linalg.norm(f.U.T @ A @ f.V - isvp.diag_embed(f.sigma, m))
            assert res <= 1e-10 * np.linalg.norm(A)

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((7, 4))
        f1 = isvp.full_svd(A)
        f2 = isvp.full_svd(A.copy())
        np.testing.assert_array_equal(f1.U, f2.U)
        np.testing.assert_array_equal(f1.V, f2.V)
        for i in range(4):
            pivot = np.argmax(np.abs(f1.V[:, i]))
            assert f1.V[pivot, i] > 0
        # the completion columns of U follow the same rule on their own
        for j in range(4, 7):
            pivot = np.argmax(np.abs(f1.U[:, j]))
            assert f1.U[pivot, j] > 0

    def test_wide_rejected(self):
        with pytest.raises(DimensionMismatch):
            isvp.full_svd(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            isvp.full_svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestApproxJacobian:
    def test_coordinate_basis_gives_identity(self):
        e1 = np.zeros((2, 2))
        e1[0, 0] = 1.0
        e2 = np.zeros((2, 2))
        e2[1, 1] = 1.0
        inst = isvp.build_instance([np.zeros((2, 2)), e1, e2], [2.0, 1.0])
        J = isvp.approx_jacobian(np.eye(2), np.eye(2), inst)
        np.testing.assert_allclose(J, np.eye(2), atol=1e-15)

    def test_matches_finite_differences_at_exact_svd(self, small_instance):
        inst, c_star = small_instance
        f = isvp.full_svd(isvp.evaluate_A(inst, c_star))
        assert np.diff(-f.sigma).min() > 0.1  # gaps healthy for differencing
        J = isvp.approx_jacobian(f.U, f.V, inst)
        step = 1e-6
        J_fd = np.empty_like(J)
        for j in range(inst.n):
            cp = c_star.copy()
            cp[j] += step
            sp = np.linalg.svd(isvp.evaluate_A(inst, cp), compute_uv=False)
            cm = c_star.copy()
            cm[j] -= step
            sm = np.linalg.svd(isvp.evaluate_A(inst, cm), compute_uv=False)
            J_fd[:, j] = (sp - sm) / (2 * step)
        assert np.linalg.norm(J_fd - J) <= 1e-4 * (1 + np.linalg.norm(J))

    def test_zero_basis_matrix_zeroes_column(self):
        rng = np.random.default_rng(2)
        basis = [rng.random((5, 3)), rng.random((5, 3)), np.zeros((5, 3)), rng.random((5, 3))]
        inst = isvp.build_instance(basis, [3.0, 2.0, 1.0])
        f = isvp.full_svd(isvp.evaluate_A(inst, rng.random(3)))
        J = isvp.approx_jacobian(f.U, f.V, inst)
        np.testing.assert_array_equal(J[:, 1], np.zeros(3))


class TestGeneralizedResidualVector:
    def test_zero_at_embedded_targets(self):
        sigma = np.array([3.0, 2.0, 1.0])
        g = isvp.generalized_residual_vector(
            np.eye(5), np.eye(3), isvp.diag_embed(sigma, 5), sigma
        )
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_zero_at_exact_solution(self, small_instance):
        inst, c_star = small_instance
        A_star = isvp.evaluate_A(inst, c_star)
        f = isvp.full_svd(A_star)
        g = isvp.generalized_residual_vector(f.U, f.V, A_star, inst.sigma_star)
        assert np.linalg.norm(g) <= 1e-12 * np.linalg.norm(inst.sigma_star)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        m, n = 7, 4
        U = rng.random((m, m))
        V = rng.random((n, n))
        M = rng.random((m, n))
        sigma = np.array([4.0, 3.0, 2.0, 1.0])
        got = isvp.generalized_residual_vector(U, V, M, sigma)
        expected = np.empty(n)
        for i in range(n):
            u = U[:, i]
            v = V[:, i]
            expected[i] = u @ M @ v - sigma[i] * (u @ u + v @ v) / 2
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-15)


class TestResidualD:
    def test_zero_at_exact_solution(self, small_instance):
        inst, c_star = small_instance
        A_star = isvp.evaluate_A(inst, c_star)
        f = isvp.full_svd(A_star)
        d = isvp.residual_d(f.U, f.V, A_star, inst.sigma_star)
        assert d <= 1e-12 * np.linalg.norm(inst.sigma_star)

    def test_collapses_to_perturbation_norm(self):
        rng = np.random.default_rng(29)
        sigma = np.array([3.0, 1.5])
        E = rng.standard_normal((4, 2))
        A = isvp.diag_embed(sigma, 4) + E
        d = isvp.residual_d(np.eye(4), np.eye(2), A, sigma)
        np.testing.assert_allclose(d, np.linalg.norm(E), rtol=1e-14)

    def test_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(31)
        m, n = 6, 3
        U = rng.random((m, m))
        V = rng.random((n, n))
        A = rng.random((m, n))
        sigma = np.array([3.0, 2.0, 1.0])
        got = isvp.residual_d(U, V, A, sigma)
        R = U.T @ A @ V - isvp.diag_embed(sigma, m)
        expected = np.sqrt(sum(R[i, j] ** 2 for i in range(m) for j in range(n)))
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_invariant_under_paired_sign_flips(self):
        rng = np.random.default_rng(37)
        m, n = 6, 3
        U = rng.standard_normal((m, m))
        V = rng.standard_normal((n, n))
        A = rng.standard_normal((m, n))
        sigma = np.array([3.0, 2.0, 1.0])
        d1 = isvp.residual_d(U, V, A, sigma)
        flips = np.array([-1.0, 1.0, -1.0])
        U2 = U.copy()
        V2 = V.copy()
        U2[:, :n] *= flips
        V2 *= flips
        d2 = isvp.residual_d(U2, V2, A, sigma)
        np.testing.assert_allclose(d2, d1, rtol=1e-14)


class TestResidualAffinity:
    def test_g_equals_jc_plus_b(self):
        rng = np.random.default_rng(41)
        inst, _ = isvp.generate_instance(8, 4, 19)
        U = np.linalg.qr(rng.standard_normal((8, 8)))[0] + 0.05 * rng.standard_normal((8, 8))
        V = np.linalg.qr(rng.standard_normal((4, 4)))[0] + 0.05 * rng.standard_normal((4, 4))
        J = isvp.approx_jacobian(U, V, inst)
        b = isvp.generalized_residual_vector(U, V, inst.basis[0], inst.sigma_star)
        for _ in range(20):
            c = rng.uniform(-2, 2, 4)
            lhs = isvp.generalized_residual_vector(
                U, V, isvp.evaluate_A(inst, c), inst.sigma_star
            )
            rhs = J @ c + b
            assert np.linalg.norm(lhs - rhs) <= 1e-13 * (1 + np.linalg.norm(lhs))


class TestInstanceFile:
    def test_round_trip_exact(self, tmp_path, small_instance):
        inst, _ = small_instance
        path = tmp_path / "instance.txt"
        isvp.save_instance(inst, path)
        back = isvp.load_instance(path)
        assert back.m == inst.m and back.n == inst.n
        for a, b in zip(inst.basis, back.basis):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(inst.sigma_star, back.sigma_star)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n1.0 2.0\n")
        with pytest.raises(IoFailure):
            isvp.load_instance(path)

    def test_ragged_row(self, tmp_path, small_instance):
        inst, _ = small_instance
        path = tmp_path / "instance.txt"
        isvp.save_instance(inst, path)
        lines = path.read_text().splitlines()
        lines[3] += " 0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IoFailure):
            isvp.load_instance(path)

    def test_missing_sigma_line(self, tmp_path, small_instance):
        inst, _ = small_instance
        path = tmp_path / "instance.txt"
        isvp.save_instance(inst, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(IoFailure):
            isvp.load_instance(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            isvp.load_instance(tmp_path / "nope.txt")
