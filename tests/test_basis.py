"""The two basis forms: one shared dense buffer with its blocked kernels,
and the O(n) Toeplitz form checked against a dense oracle built from its
own materialized basis."""

import io
import tracemalloc

import numpy as np
import pytest

import isvp
from isvp.core import _JACOBIAN_BLOCK_BYTES, DenseBasis, ToeplitzBasis
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
        np.testing.assert_array_equal(inst.basis[0], np.zeros((5, 3)))
        with pytest.raises(ValueError):
            inst.basis[0][0, 0] = 1.0

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

    def test_rows_are_the_row_major_layout_of_the_basis(self, tmp_path):
        generated, _ = isvp.generate_instance(7, 3, 2)
        isvp.save_instance(generated, tmp_path / "instance.txt")
        loaded = isvp.load_instance(tmp_path / "instance.txt")
        for inst in (generated, dense_twin(generated), loaded):
            rows = inst.operator.rows
            assert rows.shape == (7, 4, 3) and rows.flags.c_contiguous
            assert inst.basis.base is rows
            for r in range(7):
                for k in range(4):
                    np.testing.assert_array_equal(rows[r, k], generated.basis[k][r])

    def test_load_holds_one_basis_sized_array(self, tmp_path):
        m, n = 200, 100
        block = io.StringIO()
        np.savetxt(block, np.random.default_rng(3).random((m, n)), fmt="%.17g")
        targets = " ".join(str(k) for k in range(n, 0, -1))
        path = tmp_path / "instance.txt"
        # one random matrix written n + 1 times: real line lengths, quick to write
        path.write_text(f"{m} {n}\n" + block.getvalue() * (n + 1) + targets + "\n")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            inst = isvp.load_instance(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # parsing the whole file and then transposing it would hold two bases
        assert peak <= 1.5 * inst.basis.nbytes

    def test_save_holds_no_basis_sized_text(self, tmp_path):
        inst, _ = isvp.generate_instance(100, 50, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            isvp.save_instance(inst, tmp_path / "instance.txt")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the text of the whole file is several times the basis bytes
        assert peak <= 0.5 * inst.basis.nbytes


class TestDenseKernels:
    # (120, 100) and (100, 100) split into several blocks with a shorter
    # last one (26, 26, 26, 22 matrices); (60, 30) is one block; then
    # n = 1 and m == n
    @pytest.mark.parametrize("m,n,blocks", [
        (120, 100, 4), (100, 100, 4), (60, 30, 1), (4, 1, 1), (6, 6, 1),
    ])
    def test_jacobian_matches_per_entry_oracle(self, m, n, blocks):
        per_block = max(1, _JACOBIAN_BLOCK_BYTES // (n * n * 8))
        assert -(-n // per_block) == blocks
        inst, _ = isvp.generate_instance(m, n, 5)
        rng = np.random.default_rng(m * 1000 + n)
        U = near_orthogonal(rng, m)
        V = near_orthogonal(rng, n)
        J = isvp.approx_jacobian(U, V, inst)
        oracle = np.empty((n, n))
        for j in range(n):
            AV = inst.basis[j + 1] @ V
            oracle[:, j] = [U[:, i] @ AV[:, i] for i in range(n)]
        assert J.shape == (n, n)
        assert np.linalg.norm(J - oracle) <= 1e-13 * np.linalg.norm(oracle)

    def test_jacobian_working_memory_is_a_fraction_of_the_basis(self):
        inst, _ = isvp.generate_instance(200, 100, 1)
        rng = np.random.default_rng(7)
        U = near_orthogonal(rng, 200)
        V = near_orthogonal(rng, 100)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            isvp.approx_jacobian(U, V, inst)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # a products array for the whole stack alone is n m n * 8 bytes,
        # about the size of the basis
        assert peak < 0.5 * inst.basis.nbytes
        # one block of products at a time, plus J itself
        assert peak <= 1.25 * _JACOBIAN_BLOCK_BYTES + 100 * 100 * 8

    def test_repeated_evaluations_are_bitwise_equal(self):
        inst, c_star = isvp.generate_instance(40, 25, 3)
        rng = np.random.default_rng(9)
        for c in [c_star] + [rng.uniform(-2.0, 2.0, 25) for _ in range(3)]:
            first = isvp.evaluate_A(inst, c)
            for _ in range(3):
                np.testing.assert_array_equal(isvp.evaluate_A(inst, c), first)


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
