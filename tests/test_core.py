import numpy as np
import pytest

import isvp
from isvp.core import ToeplitzBasis, diag_embed
from isvp.errors import InputError, NonFiniteInput, NumericalError


class TestBuildInstance:
    def test_valid_basis(self):
        basis = [np.ones((3, 2)), np.eye(3, 2), np.flipud(np.eye(3, 2))]
        inst = isvp.build_instance(basis, [3.0, 1.0])
        assert inst.m == 3 and inst.n == 2
        assert np.array_equal(inst.sigma_star, [3.0, 1.0])

    def test_duplicate_sigma(self):
        basis = [np.ones((4, 3))] * 4
        with pytest.raises(InputError, match=r"^minimum target gap 0\.000e\+00 is not above 1e-10$"):
            isvp.build_instance(basis, [2.0, 2.0, 1.0])

    def test_nonpositive_sigma(self):
        basis = [np.ones((4, 3))] * 4
        with pytest.raises(InputError, match="^target singular values must be strictly positive$"):
            isvp.build_instance(basis, [3.0, 2.0, 0.0])

    def test_arity_mismatch(self):
        basis = [np.ones((4, 3))] * 4
        with pytest.raises(InputError, match="^sigma_star must have n=3 entries, got 2$"):
            isvp.build_instance(basis, [3.0, 2.0])

    def test_ragged_basis(self):
        with pytest.raises(InputError, match=r"^basis\[1\] has shape \(2, 2\), expected \(3, 2\)$"):
            isvp.build_instance([np.ones((3, 2)), np.ones((2, 2)), np.ones((3, 2))], [2.0, 1.0])

    def test_wide_matrix_rejected(self):
        with pytest.raises(InputError, match="^require m >= n >= 1, got m=2, n=3$"):
            isvp.build_instance([np.ones((2, 3))] * 4, [3.0, 2.0, 1.0])

    def test_gap_to_zero_enforced(self):
        # smallest target must clear MIN_GAP above zero
        basis = [np.ones((3, 2))] * 3
        with pytest.raises(InputError, match=r"^minimum target gap 1\.000e-12 is not above 1e-10$"):
            isvp.build_instance(basis, [1.0, 1e-12])

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
            res = np.linalg.norm(f.U.T @ A @ f.V - diag_embed(f.sigma, m))
            assert res <= 1e-10 * np.linalg.norm(A)

    def test_determinism(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((7, 4))
        f1 = isvp.full_svd(A)
        f2 = isvp.full_svd(A.copy())
        np.testing.assert_array_equal(f1.U, f2.U)
        np.testing.assert_array_equal(f1.V, f2.V)

    def test_wide_rejected(self):
        with pytest.raises(InputError, match=r"^require m >= n, got \(2, 3\)$"):
            isvp.full_svd(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            isvp.full_svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def _random_symmetric(n, seed):
    X = np.random.default_rng(seed).standard_normal((n, n))
    return X + X.T


# centrosymmetric matrices with exact eigenvalues: a negative definite one
# (lambda = -4, -2), a singular one (lambda = 2, 0) and one with the pair
# lambda = 2, -2
SYMMETRIC_CASES = {
    "negative": np.array([[-3.0, -1.0], [-1.0, -3.0]]),
    "singular": np.array([[1.0, 1.0], [1.0, 1.0]]),
    "pair": np.array([[0.0, 2.0], [2.0, 0.0]]),
}


def assert_symmetric_svd(A, f):
    """``f`` is an SVD of the symmetric A from its eigendecomposition."""
    n = A.shape[0]
    reference = np.linalg.svd(A, compute_uv=False)
    assert np.abs(f.sigma - reference).max() <= 1e-14 * reference[0]
    assert np.all(np.diff(f.sigma) <= 0)
    # the bounds of verification.check_svd_factorization
    assert np.linalg.norm(f.U.T @ f.U - np.eye(n)) <= 1e-12 * n
    assert np.linalg.norm(f.V.T @ f.V - np.eye(n)) <= 1e-12 * n
    assert np.linalg.norm((f.U * f.sigma) @ f.V.T - A) <= 1e-13 * n * np.linalg.norm(A)
    # u_i = sign(lambda_i) v_i exactly, with +1 at lambda_i = 0
    rayleigh = np.einsum("ji,ji->i", f.V, A @ f.V)
    signs = np.where(rayleigh < 0.0, -1.0, 1.0)
    signs[f.sigma == 0.0] = 1.0
    np.testing.assert_array_equal(f.U, f.V * signs)


def recording_eigh_sides(monkeypatch):
    """Patch ``np.linalg.eigh`` to log the side of every matrix it factors."""
    sides = []
    eigh = np.linalg.eigh

    def recorded(A):
        sides.append(A.shape[0])
        return eigh(A)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return sides


class TestFullSvdEighPath:
    """full_svd of a matrix equal to its transpose and its reversal, from
    ``eigh``."""

    @pytest.mark.parametrize("A", SYMMETRIC_CASES.values(), ids=list(SYMMETRIC_CASES))
    def test_is_an_svd_with_the_sign_convention(self, A):
        assert_symmetric_svd(A, isvp.full_svd(A))

    def test_exact_zero_and_pair(self):
        singular = isvp.full_svd(SYMMETRIC_CASES["singular"])
        np.testing.assert_array_equal(singular.sigma, [2.0, 0.0])
        np.testing.assert_array_equal(singular.U[:, 1], singular.V[:, 1])
        # the stable sort keeps the even pair (lambda = 2, v = [1, 1] / sqrt 2)
        # before the odd one (lambda = -2, v = [1, -1] / sqrt 2)
        pair = isvp.full_svd(SYMMETRIC_CASES["pair"])
        s = np.sqrt(0.5)
        np.testing.assert_array_equal(pair.sigma, [2.0, 2.0])
        np.testing.assert_array_equal(pair.V, [[s, s], [s, -s]])
        np.testing.assert_array_equal(pair.U, [[s, -s], [s, s]])

    def test_rejects_what_it_cannot_factor(self, monkeypatch):
        with pytest.raises(NonFiniteInput, match="^A contains NaN or infinity$"):
            isvp.full_svd(np.array([[1.0, np.nan], [np.nan, 0.0]]))

        # a tall matrix, and one off its transpose by 1e-15, take LAPACK's SVD
        def fail(A):
            raise AssertionError("eigh ran on a matrix that is not symmetric")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        for A in (np.ones((3, 2)), np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]])):
            f = isvp.full_svd(A)
            assert f.U.shape == (A.shape[0], A.shape[0])
            np.testing.assert_array_equal(f.sigma, np.linalg.svd(A, compute_uv=False))

    def test_a_failed_eigendecomposition_is_a_numerical_error(self, monkeypatch):
        def fail(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="^eigendecomposition did not converge: "):
            isvp.full_svd(np.eye(2))


def _random_centrosymmetric(n, seed):
    S = _random_symmetric(n, seed)
    return S + S[::-1, ::-1]


def _random_symmetric_toeplitz(n, seed):
    return ToeplitzBasis(n, n).evaluate(np.random.default_rng(seed).standard_normal(n))


CENTROSYMMETRIC_FORMS = {
    "toeplitz": _random_symmetric_toeplitz,
    "centro": _random_centrosymmetric,
}

# even sides, the 2 x 2 edge included, and both forms: a symmetric Toeplitz
# matrix and a centrosymmetric one that is not Toeplitz
CENTROSYMMETRIC_CASES = {
    f"{form}-{n}": build(n, 50 + n)
    for n in (2, 4, 6, 30)
    for form, build in CENTROSYMMETRIC_FORMS.items()
}


def _nudged_centrosymmetric(n, seed):
    A = _random_centrosymmetric(n, seed)
    # symmetric still, but A[0, 1] no longer equals A[n - 1, n - 2]
    A[0, 1] = A[1, 0] = A[0, 1] * (1.0 + 1e-15)
    return A


# square symmetric matrices the split does not take: random indefinite ones,
# centrosymmetric ones nudged off their reversal in one pair, and
# centrosymmetric ones of odd side, the 1 x 1 edge included, in both forms
UNSPLIT_SYMMETRIC_CASES = {
    **{f"random-{n}": _random_symmetric(n, seed) for n, seed in ((2, 41), (30, 43), (160, 47))},
    **{f"nudged-{n}": _nudged_centrosymmetric(n, 61) for n in (7, 30)},
    **{
        f"{form}-{n}": build(n, 50 + n)
        for n in (1, 3, 5, 7, 31)
        for form, build in CENTROSYMMETRIC_FORMS.items()
    },
}


class TestFullSvdCentrosymmetricPath:
    """full_svd of a symmetric matrix of even side equal to its reversal,
    from two half-size ``eigh`` problems."""

    @pytest.mark.parametrize(
        "A", CENTROSYMMETRIC_CASES.values(), ids=list(CENTROSYMMETRIC_CASES)
    )
    def test_two_half_size_eighs_give_an_svd_with_the_sign_convention(self, A, monkeypatch):
        n = A.shape[0]
        np.testing.assert_array_equal(A, A[::-1, ::-1])
        sides = recording_eigh_sides(monkeypatch)
        f = isvp.full_svd(A)
        assert sides == [n // 2, n // 2]
        assert_symmetric_svd(A, f)

    @pytest.mark.parametrize(
        "A", UNSPLIT_SYMMETRIC_CASES.values(), ids=list(UNSPLIT_SYMMETRIC_CASES)
    )
    def test_a_symmetric_block_the_split_does_not_take_gets_lapacks_svd(self, A, monkeypatch):
        # off its reversal, or of odd side
        np.testing.assert_array_equal(A, A.T)
        assert A.shape[0] % 2 == 1 or not np.array_equal(A, A[::-1, ::-1])
        U, sigma, Vt = np.linalg.svd(A)

        def fail(A):
            raise AssertionError("eigh ran on a block the split does not take")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        f = isvp.full_svd(A)
        np.testing.assert_array_equal(f.U, U)
        np.testing.assert_array_equal(f.sigma, sigma)
        np.testing.assert_array_equal(f.V, Vt.T)


def _zero_padded(block, m):
    out = np.zeros((m, block.shape[1]))
    out[: block.shape[0]] = block
    return out


# tall matrices whose last row is zero: a symmetric Toeplitz block (which
# alone would take eigh), a general block taller than n, one shorter than n,
# and all zeros
ZERO_ROW_CASES = {
    "toeplitz": _zero_padded(_random_symmetric_toeplitz(20, 71), 30),
    "tall-block": _zero_padded(np.random.default_rng(72).standard_normal((24, 20)), 30),
    "short-block": _zero_padded(np.random.default_rng(73).standard_normal((12, 20)), 30),
    "all-zero": np.zeros((5, 3)),
}


class TestFullSvdZeroRows:
    """full_svd factors every row it is given: which rows of A(c) are zero
    for every c is the basis's to say (its ``r``), not full_svd's to scan."""

    @pytest.mark.parametrize("full_matrices", [True, False], ids=["full", "thin"])
    @pytest.mark.parametrize("case", ZERO_ROW_CASES)
    def test_zero_trailing_rows_take_lapacks_svd(self, case, full_matrices):
        A = ZERO_ROW_CASES[case]
        f = isvp.full_svd(A, full_matrices=full_matrices)
        U, sigma, Vt = np.linalg.svd(A, full_matrices=full_matrices)
        np.testing.assert_array_equal(f.U, U)
        np.testing.assert_array_equal(f.sigma, sigma)
        np.testing.assert_array_equal(f.V, Vt.T)

    def test_zero_rows_above_a_nonzero_last_row_stay(self):
        A = np.random.default_rng(74).standard_normal((30, 20))
        A[10:29] = 0.0
        f = isvp.full_svd(A)
        U, sigma, Vt = np.linalg.svd(A)
        np.testing.assert_array_equal(f.U, U)
        np.testing.assert_array_equal(f.sigma, sigma)
        np.testing.assert_array_equal(f.V, Vt.T)


class TestApproxJacobian:
    def test_coordinate_basis_gives_identity(self):
        e1 = np.zeros((2, 2))
        e1[0, 0] = 1.0
        e2 = np.zeros((2, 2))
        e2[1, 1] = 1.0
        inst = isvp.build_instance([np.zeros((2, 2)), e1, e2], [2.0, 1.0])
        J = isvp.approx_jacobian(np.eye(2), np.eye(2), inst)
        np.testing.assert_allclose(J, np.eye(2), atol=1e-15)

    def test_zero_basis_matrix_zeroes_column(self):
        rng = np.random.default_rng(2)
        basis = [rng.random((5, 3)), rng.random((5, 3)), np.zeros((5, 3)), rng.random((5, 3))]
        inst = isvp.build_instance(basis, [3.0, 2.0, 1.0])
        f = isvp.full_svd(isvp.evaluate_A(inst, rng.random(3)))
        J = isvp.approx_jacobian(f.U, f.V, inst)
        np.testing.assert_array_equal(J[:, 1], np.zeros(3))

    @pytest.mark.parametrize(
        "generate", [isvp.generate_instance, isvp.generate_toeplitz_instance],
        ids=["dense", "toeplitz"],
    )
    def test_a_short_U_or_V_is_an_input_error(self, generate):
        # 8 x 5: r is 8 on the dense basis and 5 on the Toeplitz one, whose
        # FFT would zero-pad a short U into a wrong J; no A_j has a row past m
        inst, _ = generate(8, 5, 1)
        r = inst.r
        assert isvp.approx_jacobian(np.eye(8)[:r], np.eye(5), inst).shape == (5, 5)
        assert isvp.approx_jacobian(np.eye(8), np.eye(5), inst).shape == (5, 5)
        for U in (np.eye(8)[: r - 1], np.eye(9)):
            with pytest.raises(InputError, match=rf"^U must have {r} to 8 rows and at least 5 columns"):
                isvp.approx_jacobian(U, np.eye(5), inst)
        with pytest.raises(InputError, match="^V must have 5 rows and at least 5 columns"):
            isvp.approx_jacobian(np.eye(8), np.eye(5)[:4], inst)


class TestGeneralizedResidualVector:
    def test_zero_at_embedded_targets(self):
        sigma = np.array([3.0, 2.0, 1.0])
        w = np.diagonal(diag_embed(sigma, 5))
        g = isvp.generalized_residual_vector(np.eye(5), np.eye(3), w, sigma)
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_zero_at_exact_solution(self, small_instance):
        inst, c_star = small_instance
        A_star = isvp.evaluate_A(inst, c_star)
        f = isvp.full_svd(A_star)
        w = np.diagonal(f.U.T @ A_star @ f.V)
        g = isvp.generalized_residual_vector(f.U, f.V, w, inst.sigma_star)
        assert np.linalg.norm(g) <= 1e-12 * np.linalg.norm(inst.sigma_star)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        m, n = 7, 4
        U = rng.random((m, m))
        V = rng.random((n, n))
        M = rng.random((m, n))
        sigma = np.array([4.0, 3.0, 2.0, 1.0])
        got = isvp.generalized_residual_vector(U, V, np.diagonal(U.T @ M @ V), sigma)
        expected = np.empty(n)
        for i in range(n):
            u = U[:, i]
            v = V[:, i]
            expected[i] = u @ M @ v - sigma[i] * (u @ u + v @ v) / 2
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-15)

    def test_rejects_the_matrix_in_place_of_its_diagonal(self):
        sigma = np.array([3.0, 2.0, 1.0])
        # an m x n matrix would broadcast against the length-n terms into a wrong result
        for w in (diag_embed(sigma, 3), diag_embed(sigma, 5), sigma[:2]):
            with pytest.raises(InputError, match=r"^w must have shape \(3,\), got \("):
                isvp.generalized_residual_vector(np.eye(5), np.eye(3), w, sigma)

    def test_converts_lists_and_rejects_a_sigma_star_that_is_not_a_vector(self):
        # a list w or sigma_star escaped as an AttributeError
        sigma = np.array([3.0, 2.0, 1.0])
        want = isvp.generalized_residual_vector(np.eye(5), np.eye(3), sigma - 1.0, sigma)
        w = [2.0, 1.0, 0.0]
        got = isvp.generalized_residual_vector(np.eye(5), np.eye(3), w, sigma.tolist())
        assert got.tobytes() == want.tobytes()
        with pytest.raises(InputError, match=r"^sigma_star must be a vector, got shape \(1, 3\)$"):
            isvp.generalized_residual_vector(np.eye(5), np.eye(3), sigma, sigma[None])

    @pytest.mark.parametrize(
        "U, V, name, got",
        [(np.eye(5)[:, :2], np.eye(3), "U", r"\(5, 2\)"), (np.ones(5), np.eye(3), "U", r"\(5,\)"),
         (np.eye(5).tolist(), np.eye(3), "U", "list"), (np.eye(5), np.eye(3)[:, :2], "V", r"\(3, 2\)")],
        ids=["narrow-U", "vector-U", "nested-list-U", "narrow-V"],
    )
    def test_rejects_factors_with_too_few_columns(self, U, V, name, got):
        # each escaped as numpy's broadcast ValueError, an IndexError or a TypeError
        sigma = np.array([3.0, 2.0, 1.0])
        message = rf"^{name} must be a 2-D array with at least 3 columns, got {got}$"
        with pytest.raises(InputError, match=message):
            isvp.generalized_residual_vector(U, V, sigma, sigma)


class TestResidualD:
    def test_collapses_to_perturbation_norm(self):
        rng = np.random.default_rng(29)
        sigma = np.array([3.0, 1.5])
        E = rng.standard_normal((4, 2))
        A = diag_embed(sigma, 4) + E
        d = isvp.residual_d(A, sigma)
        np.testing.assert_allclose(d, np.linalg.norm(E), rtol=1e-14)

    def test_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(31)
        m, n = 6, 3
        U = rng.random((m, m))
        V = rng.random((n, n))
        A = rng.random((m, n))
        sigma = np.array([3.0, 2.0, 1.0])
        got = isvp.residual_d(U.T @ A @ V, sigma)
        R = U.T @ A @ V - diag_embed(sigma, m)
        expected = np.sqrt(sum(R[i, j] ** 2 for i in range(m) for j in range(n)))
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    @pytest.mark.parametrize(
        "W, got",
        [(np.ones((2, 3)), r"\(2, 3\)"), (np.ones((3, 2)), r"\(3, 2\)"), (np.ones(3), r"\(3,\)"),
         (np.eye(3).tolist(), "list")],
        ids=["short", "narrow", "vector", "nested-list"],
    )
    def test_rejects_a_W_without_an_n_by_n_block(self, W, got):
        # each escaped as an IndexError, or for the list a TypeError
        with pytest.raises(InputError, match=rf"^W must be a 2-D array of at least 3 x 3, got {got}$"):
            isvp.residual_d(W, np.array([3.0, 2.0, 1.0]))

    def test_converts_a_list_and_rejects_a_sigma_star_that_is_not_a_vector(self):
        # a list sigma_star escaped as an AttributeError
        assert isvp.residual_d(np.eye(3), [3.0, 2.0, 1.0]) == isvp.residual_d(
            np.eye(3), np.array([3.0, 2.0, 1.0])
        )
        with pytest.raises(InputError, match=r"^sigma_star must be a vector, got shape \(\)$"):
            isvp.residual_d(np.eye(3), 3.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_nonfinite_W_gives_a_nonfinite_d(self, bad):
        # the solvers read a non-finite d as divergence, so values are not checked
        W = diag_embed(np.array([3.0, 2.0, 1.0]), 5)
        W[4, 0] = bad
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(isvp.residual_d(W, np.array([3.0, 2.0, 1.0])))


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
        with pytest.raises(InputError, match=r"^malformed instance file .*bad\.txt: "):
            isvp.load_instance(path)

    def test_ragged_row(self, tmp_path, small_instance):
        inst, _ = small_instance
        path = tmp_path / "instance.txt"
        isvp.save_instance(inst, path)
        lines = path.read_text().splitlines()
        lines[3] += " 0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=r"^malformed instance file .*instance\.txt: "):
            isvp.load_instance(path)

    def test_rows_one_value_short(self, tmp_path):
        path = tmp_path / "instance.txt"
        isvp.save_instance(isvp.generate_instance(6, 3, 1)[0], path)
        lines = path.read_text().splitlines()
        short = [lines[0]] + [" ".join(line.split()[:-1]) for line in lines[1:]]
        path.write_text("\n".join(short) + "\n")
        with pytest.raises(InputError, match="A_0: expected 6 lines of 3 values, found 6 of 2$"):
            isvp.load_instance(path)

    def test_missing_sigma_line(self, tmp_path, small_instance):
        inst, _ = small_instance
        path = tmp_path / "instance.txt"
        isvp.save_instance(inst, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(InputError, match=r"^malformed instance file .*instance\.txt: "):
            isvp.load_instance(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match=r"^cannot read instance from .*nope\.txt: "):
            isvp.load_instance(tmp_path / "nope.txt")

    # line 1 names the form: an unknown word, a wide or short Toeplitz
    # header, and a Toeplitz file with sigma* missing or lines after it
    @pytest.mark.parametrize(
        "text, message",
        [
            ("circulant 4 3\n3 2 1\n", "^malformed instance file "),
            ("toeplitz 3 4\n4 3 2 1\n", "^require m >= n >= 1, got m=3, n=4$"),
            ("toeplitz 5\n3 2 1\n", "^malformed instance file "),
            ("toeplitz 5 3\n", "^malformed instance file "),
            ("toeplitz 5 3\n3 2 1\n1 1 1\n", r"sigma\*: expected 1 lines of 3 values, found 2 of 3$"),
            ("toeplitz 900 900\n3 2 1\n", "header 900 900 asks for more values than the file holds$"),
        ],
        ids=["unknown-form", "wide", "n-missing", "sigma-missing", "extra-line", "too-short"],
    )
    def test_form_line_errors(self, tmp_path, text, message):
        path = tmp_path / "instance.txt"
        path.write_text(text)
        with pytest.raises(InputError, match=message):
            isvp.load_instance(path)
