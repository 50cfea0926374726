"""The two basis forms: one shared dense buffer, and the O(n) Toeplitz
form checked against a dense oracle built from its own materialized basis."""

import numpy as np
import pytest

import isvp
from isvp.core import DenseBasis, ToeplitzBasis
from isvp.errors import DimensionMismatch
from isvp.report import SolveStatus

from conftest import near_orthogonal, solved_start

# n = 1, m == n and m > n; (11, 7) and (40, 33) pad the FFT past 2n
SHAPES = [(1, 1), (3, 1), (6, 6), (11, 7), (40, 33)]


def dense_twin(instance):
    return isvp.build_instance(instance.basis, instance.sigma_star)


def assert_one_buffer(instance):
    """A_0 and A_n are views of one (n+1) m n array, not separate copies
    (np.shares_memory is False for disjoint slices, so compare owners)."""

    def owner(a):
        while a.base is not None:
            a = a.base
        return a

    first, last = owner(instance.basis[0]), owner(instance.basis[-1])
    assert first is last
    assert first.nbytes == (instance.n + 1) * instance.m * instance.n * 8


class TestToeplitzForm:
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_evaluate_matches_dense_sum(self, m, n):
        inst, c_star = isvp.generate_toeplitz_instance(m, n, 4)
        assert isinstance(inst.operator, ToeplitzBasis)
        twin = dense_twin(inst)
        rng = np.random.default_rng(m * 100 + n)
        for c in [c_star] + [rng.uniform(-2.0, 2.0, n) for _ in range(4)]:
            np.testing.assert_array_equal(
                isvp.evaluate_A(inst, c), isvp.evaluate_A(twin, c)
            )

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_jacobian_matches_dense_kernel(self, m, n):
        inst, _ = isvp.generate_toeplitz_instance(m, n, 4)
        twin = dense_twin(inst)
        rng = np.random.default_rng(m * 100 + n)
        for _ in range(3):
            U = near_orthogonal(rng, m)
            V = near_orthogonal(rng, n)
            J = isvp.approx_jacobian(U, V, inst)
            J_ref = isvp.approx_jacobian(U, V, twin)
            assert J.shape == (n, n)
            assert np.linalg.norm(J - J_ref) <= 1e-13 * np.linalg.norm(J_ref)

    def test_offset_is_read_only_zero(self):
        inst, _ = isvp.generate_toeplitz_instance(5, 3, 1)
        np.testing.assert_array_equal(inst.A0, np.zeros((5, 3)))
        with pytest.raises(ValueError):
            inst.A0[0, 0] = 1.0

    def test_rejects_wide_shape(self):
        with pytest.raises(DimensionMismatch):
            isvp.generate_toeplitz_instance(3, 4, 1)

    @pytest.mark.parametrize("algorithm", ["cf", "alg1", "newton"])
    def test_solvers_take_the_steps_of_the_dense_twin(self, algorithm):
        inst, c_star = isvp.generate_toeplitz_instance(30, 20, 3)
        c0 = isvp.perturb_c_star(c_star, 1e-5, 3)
        reports = []
        for instance in (inst, dense_twin(inst)):
            if algorithm == "cf":
                _, B0 = solved_start(instance, c0, seed=3)
                reports.append(isvp.solve(instance, c0, B0))
            elif algorithm == "alg1":
                reports.append(isvp.alg1_solve(instance, c0))
            else:
                reports.append(isvp.newton_exact_solve(instance, c0))
        structured, dense = reports
        assert structured.status is SolveStatus.CONVERGED
        assert dense.status is SolveStatus.CONVERGED
        assert structured.iterations == dense.iterations


class TestDenseStorage:
    def test_generated_basis_is_one_read_only_buffer(self):
        inst, _ = isvp.generate_instance(6, 3, 1)
        assert isinstance(inst.operator, DenseBasis)
        assert_one_buffer(inst)
        with pytest.raises(ValueError):
            inst.basis[-1][0, 0] = 1.0

    def test_built_basis_is_one_private_buffer(self):
        rng = np.random.default_rng(0)
        basis = [rng.random((4, 2)) for _ in range(3)]
        inst = isvp.build_instance(basis, [3.0, 1.0])
        assert_one_buffer(inst)
        assert not any(np.shares_memory(a, inst.basis) for a in basis)
        with pytest.raises(ValueError):
            inst.basis[-1][0, 0] = 1.0


class TestToeplitzRoundTrip:
    def test_reads_back_as_dense_with_same_A_of_c(self, tmp_path):
        inst, c_star = isvp.generate_toeplitz_instance(9, 5, 2)
        path = tmp_path / "toeplitz.txt"
        isvp.save_instance(inst, path)
        back = isvp.load_instance(path)
        assert isinstance(back.operator, DenseBasis)
        assert (back.m, back.n) == (inst.m, inst.n)
        np.testing.assert_array_equal(back.sigma_star, inst.sigma_star)
        rng = np.random.default_rng(5)
        for c in [c_star] + [rng.uniform(-2.0, 2.0, 5) for _ in range(3)]:
            np.testing.assert_array_equal(isvp.evaluate_A(back, c), isvp.evaluate_A(inst, c))
