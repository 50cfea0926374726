"""The two basis forms: one shared dense buffer with its blocked kernels,
and the O(n) Toeplitz form checked against a dense oracle built from its
own materialized basis."""

import io
import tracemalloc

import numpy as np
import pytest

import isvp
from isvp import cayley_free, core
from isvp.core import DenseBasis, ToeplitzBasis, _fft_length
from isvp.errors import InputError
from isvp.harness import SOLVERS, Algorithm
from isvp.report import SolveStatus
from isvp.verification import near_orthogonal

from conftest import solve

# n = 1, m == n and m > n; the Jacobian's FFT length is 2n - 1 = 15 at
# (9, 8), the shortest with no wrap-around, 24 after the prime 2n - 1 = 23
# at (20, 12), and 15 and 72 at (11, 7) and (40, 33)
SHAPES = [(1, 1), (3, 1), (6, 6), (9, 8), (11, 7), (20, 12), (40, 33)]


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


def square_twin():
    inst, c_star = isvp.generate_toeplitz_instance(6, 6, 4)
    return dense_twin(inst), c_star


# the routine full_svd runs on every exact point of a solve: two half-size
# eigh on a block of even side equal to its transpose and to its reversal
# (every such Toeplitz block, whatever its basis form), and svd on a tall
# dense one
SELECTION_CASES = {
    "toeplitz": (lambda: isvp.generate_toeplitz_instance(30, 20, 4), "eigh"),
    "tall-dense": (lambda: isvp.generate_instance(30, 20, 4), "svd"),
    "square-twin": (square_twin, "eigh"),
}


class TestToeplitzForm:
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_evaluate_matches_dense_sum(self, m, n):
        # the twin's A(c) keeps all m rows: the leading n are the block, the rest zero
        inst, c_star = isvp.generate_toeplitz_instance(m, n, 4)
        assert isinstance(inst.operator, ToeplitzBasis)
        twin = dense_twin(inst)
        rng = np.random.default_rng(m * 100 + n)
        for c in [c_star] + [rng.uniform(-2.0, 2.0, n) for _ in range(4)]:
            dense = isvp.evaluate_A(twin, c)
            np.testing.assert_array_equal(isvp.evaluate_A(inst, c), dense[:n])
            assert not dense[n:].any()

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_evaluate_A_is_r_by_n_and_the_basis_keeps_m_rows(self, m, n):
        inst, c_star = isvp.generate_toeplitz_instance(m, n, 4)
        assert (inst.m, inst.n, inst.r) == (m, n, n)
        assert inst.basis.shape == (n + 1, m, n)
        assert not inst.basis[:, inst.r :].any()
        rng = np.random.default_rng(m * 100 + n)
        for c in [c_star] + [rng.uniform(-2.0, 2.0, n) for _ in range(3)]:
            A = isvp.evaluate_A(inst, c)
            assert A.shape == (n, n) and A.flags.c_contiguous

    # at 30 x 20 a Toeplitz basis has r = n and a dense one r = m
    @pytest.mark.parametrize(
        "generate,r",
        [(isvp.generate_toeplitz_instance, 20), (isvp.generate_instance, 30)],
        ids=["toeplitz", "dense"],
    )
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_solver_states_carry_an_r_by_r_U(self, algorithm, generate, r, monkeypatch):
        inst, c_star = generate(30, 20, 3)
        assert inst.r == r
        _, (module, step) = SOLVERS[algorithm]
        original = getattr(module, step)
        states = []

        def spy(state, instance):
            states.extend([state, original(state, instance)])
            return states[-1]

        monkeypatch.setattr(module, step, spy)
        assert solve(algorithm, inst, isvp.perturb_c_star(c_star, 1e-5, 3)).iterations >= 1
        # a Newton iterate carries the thin factor: r x n U, n x n W (r = n on Toeplitz)
        cols = 20 if algorithm is Algorithm.NEWTON else r
        for state in states:
            assert state.U.shape == (r, cols)
            assert state.W.shape == (cols, 20)
            if algorithm is Algorithm.NEWTON:
                assert np.linalg.norm(state.U.T @ state.U - np.eye(cols)) <= 1e-13

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_leading_block_is_exactly_symmetric(self, m, n):
        # full_svd splits an even-side block only for A == A^T ==
        # A[::-1, ::-1] bit for bit; a block that lost either would fall
        # back to LAPACK's slower SVD without an error
        inst, c_star = isvp.generate_toeplitz_instance(m, n, 4)
        rng = np.random.default_rng(m * 100 + n)
        draws = [rng.uniform(-2.0, 2.0, n), -rng.random(n), 1e12 * rng.standard_normal(n)]
        for c in [c_star] + draws:
            block = isvp.evaluate_A(inst, c)
            np.testing.assert_array_equal(block, block.T)
            np.testing.assert_array_equal(block, block[::-1, ::-1])

    @pytest.mark.parametrize("case", SELECTION_CASES)
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_full_svd_picks_its_routine_from_the_block(self, algorithm, case, monkeypatch):
        build, routine = SELECTION_CASES[case]
        inst, c_star = build()
        c0 = isvp.perturb_c_star(c_star, 1e-5, 3)
        calls = dict.fromkeys(["exact points", "eigh", "svd"], 0)
        full_matrices = []  # the factor each svd call asks for
        eigh_sides = []  # the side of each block eigh factors

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                if name == "svd":
                    full_matrices.append(kwargs.get("full_matrices", True))
                if name == "eigh":
                    eigh_sides.append(args[0].shape[0])
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(cayley_free, "full_svd", counting("exact points", isvp.full_svd))
        for name in ("eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        solve(algorithm, inst, c0)
        other = "svd" if routine == "eigh" else "eigh"
        assert calls["exact points"] > 0
        assert calls[other] == 0
        if routine == "eigh":
            # the even and odd halves of each centrosymmetric block
            assert eigh_sides == [inst.n // 2] * 2 * calls["exact points"]
        else:
            assert calls["svd"] == calls["exact points"]
            # Newton reads only U[:, :n]; a two-step start updates the trailing columns too
            if algorithm is Algorithm.NEWTON:
                assert full_matrices == [False] * calls["svd"]
            else:
                assert full_matrices == [True]

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

    def test_fft_length_is_the_smallest_5_smooth_one_from_2n_minus_1(self):
        def smooth(size):
            for p in (2, 3, 5):
                while size % p == 0:
                    size //= p
            return size == 1

        for n in range(1, 301):
            size = _fft_length(n)
            assert size >= 2 * n - 1 and smooth(size)
            assert not any(smooth(s) for s in range(2 * n - 1, size))
            assert size <= 1 << (2 * n - 1).bit_length()
        assert [_fft_length(n) for n in (8, 12, 160)] == [15, 24, 320]

    def test_offset_is_read_only_zero(self):
        inst, _ = isvp.generate_toeplitz_instance(5, 3, 1)
        np.testing.assert_array_equal(inst.basis[0], np.zeros((5, 3)))
        with pytest.raises(ValueError):
            inst.basis[0][0, 0] = 1.0

    def test_rejects_wide_shape(self):
        with pytest.raises(InputError, match="^require m >= n >= 1, got m=3, n=4$"):
            isvp.generate_toeplitz_instance(3, 4, 1)

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_solvers_take_the_steps_of_the_dense_twin(self, algorithm):
        # a dense basis has r = m over zero rows too, so the twin runs the
        # uncompressed m x m path, the oracle for the r x r one
        for m, n in [(30, 20), (40, 20), (11, 7), (240, 160)]:
            inst, c_star = isvp.generate_toeplitz_instance(m, n, 3)
            twin = dense_twin(inst)
            assert (inst.r, twin.r) == (n, m)
            c0 = isvp.perturb_c_star(c_star, 1e-5, 3)
            structured = solve(algorithm, inst, c0)
            dense = solve(algorithm, twin, c0)
            assert structured.status is SolveStatus.CONVERGED
            assert dense.status is SolveStatus.CONVERGED
            assert structured.iterations == dense.iterations
            d = np.array([rec.d for rec in structured.records])
            d_twin = np.array([rec.d for rec in dense.records])
            assert np.abs(d - d_twin).max() <= 1e-12 * np.linalg.norm(inst.sigma_star)
            c_change = np.linalg.norm(structured.c_final - dense.c_final)
            assert c_change <= 1e-10 * (1.0 + np.linalg.norm(c_star))


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


# the dense Jacobian's panel cap before it was widened, which still splits
# the 100-column shapes below into several panels
TWO_MIB = 2 << 20


def panel_products(m, n, monkeypatch):
    """Bytes of products each GEMM of ``DenseBasis.jacobian`` writes on an
    all-zero m x n basis at the current cap: one entry per panel."""
    written = []
    matmul = np.matmul

    def spy(a, b, *args, out=None, **kwargs):
        if a.ndim == 2:  # U_n^T times a panel; the batched GEMVs pass 3-d products
            written.append(out.nbytes)
        return matmul(a, b, *args, out=out, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul", spy)
        DenseBasis(np.zeros((m, n + 1, n))).jacobian(np.zeros((m, n)), np.zeros((n, n)))
    return written


def per_entry_oracle(inst, U, V):
    n = inst.n
    oracle = np.empty((n, n))
    for j in range(n):
        AV = inst.basis[j + 1] @ V
        oracle[:, j] = [U[:, i] @ AV[:, i] for i in range(n)]
    return oracle


class TestDenseKernels:
    # at 2 MiB, (120, 100) and (100, 100) split into several panels with a
    # shorter last one (26, 26, 26, 22 matrices); (60, 30) is one panel;
    # then n = 1 and m == n
    @pytest.mark.parametrize("m,n,blocks", [
        (120, 100, 4), (100, 100, 4), (60, 30, 1), (4, 1, 1), (6, 6, 1),
    ])
    def test_jacobian_matches_per_entry_oracle(self, m, n, blocks, monkeypatch):
        monkeypatch.setattr(core, "_JACOBIAN_BLOCK_BYTES", TWO_MIB)
        assert len(panel_products(m, n, monkeypatch)) == blocks
        inst, _ = isvp.generate_instance(m, n, 5)
        rng = np.random.default_rng(m * 1000 + n)
        U = near_orthogonal(rng, m)
        V = near_orthogonal(rng, n)
        J = isvp.approx_jacobian(U, V, inst)
        oracle = per_entry_oracle(inst, U, V)
        assert J.shape == (n, n)
        assert np.linalg.norm(J - oracle) <= 1e-13 * np.linalg.norm(oracle)

    def test_jacobian_working_memory_is_a_fraction_of_the_basis(self, monkeypatch):
        monkeypatch.setattr(core, "_JACOBIAN_BLOCK_BYTES", TWO_MIB)
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
        # one panel of products at a time, plus J itself
        assert peak <= 1.25 * core._JACOBIAN_BLOCK_BYTES + 100 * 100 * 8

    def test_shipped_cap_splits_only_large_bases(self, monkeypatch):
        large = panel_products(400, 200, monkeypatch)
        assert 2 <= len(large) <= 8
        assert max(large) <= core._JACOBIAN_BLOCK_BYTES
        # the 60 x 30 grid and the benchmark's --tiny shapes are one panel, so
        # their J sums run in one order whatever the cap was when the
        # fingerprint was recorded
        for m, n in [(60, 30), (16, 8), (10, 5), (12, 8)]:
            assert len(panel_products(m, n, monkeypatch)) == 1

    def test_every_panel_split_matches_the_oracle_repeatably(self, monkeypatch):
        inst, _ = isvp.generate_instance(120, 100, 5)
        rng = np.random.default_rng(120 * 1000 + 100)
        U = near_orthogonal(rng, 120)
        V = near_orthogonal(rng, 100)
        oracle = per_entry_oracle(inst, U, V)
        splits = []
        for cap in (64 << 10, TWO_MIB, core._JACOBIAN_BLOCK_BYTES):
            monkeypatch.setattr(core, "_JACOBIAN_BLOCK_BYTES", cap)
            splits.append(len(panel_products(120, 100, monkeypatch)))
            J = isvp.approx_jacobian(U, V, inst)
            assert np.linalg.norm(J - oracle) <= 1e-13 * np.linalg.norm(oracle)
            for _ in range(2):
                np.testing.assert_array_equal(isvp.approx_jacobian(U, V, inst), J)
        assert splits == [100, 4, 1]

    @pytest.mark.parametrize("algorithm", [Algorithm.CAYLEY_FREE, Algorithm.NEWTON])
    def test_solves_do_not_hang_on_the_panel_split(self, algorithm, monkeypatch):
        inst, c_star = isvp.generate_instance(120, 100, 5)
        c0 = isvp.perturb_c_star(c_star, 1e-3, 5)
        assert len(panel_products(120, 100, monkeypatch)) == 1
        one_panel = solve(algorithm, inst, c0)
        monkeypatch.setattr(core, "_JACOBIAN_BLOCK_BYTES", TWO_MIB)
        multi_panel = solve(algorithm, inst, c0)
        assert one_panel.status is multi_panel.status is SolveStatus.CONVERGED
        assert one_panel.iterations == multi_panel.iterations
        # near convergence d_k is known only to roundoff in U^T A V, whose
        # entries reach sigma_1, so the 1e-8 relative bound gets that floor
        np.testing.assert_allclose(
            multi_panel.residuals, one_panel.residuals,
            rtol=1e-8, atol=1e-14 * np.linalg.norm(inst.sigma_star),
        )

    def test_repeated_evaluations_are_bitwise_equal(self):
        inst, c_star = isvp.generate_instance(40, 25, 3)
        rng = np.random.default_rng(9)
        for c in [c_star] + [rng.uniform(-2.0, 2.0, 25) for _ in range(3)]:
            first = isvp.evaluate_A(inst, c)
            for _ in range(3):
                np.testing.assert_array_equal(isvp.evaluate_A(inst, c), first)


class TestToeplitzRoundTrip:
    def test_reads_back_as_toeplitz(self, tmp_path):
        inst, _ = isvp.generate_toeplitz_instance(9, 5, 2)
        path = tmp_path / "toeplitz.txt"
        isvp.save_instance(inst, path)
        back = isvp.load_instance(path)
        assert isinstance(back.operator, ToeplitzBasis)
        assert (back.m, back.n, back.r) == (9, 5, 5)
        np.testing.assert_array_equal(back.sigma_star, inst.sigma_star)
        # the form line and sigma*, not the (n+1) m n values of the dense basis
        lines = path.read_text().splitlines()
        assert lines[0] == "toeplitz 9 5" and len(lines) == 2

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_a_loaded_instance_solves_as_the_generated_one(self, algorithm, tmp_path):
        inst, c_star = isvp.generate_toeplitz_instance(30, 20, 4)
        path = tmp_path / "toeplitz.txt"
        isvp.save_instance(inst, path)
        c0 = isvp.perturb_c_star(c_star, 1e-5, 3)
        generated = solve(algorithm, inst, c0)
        loaded = solve(algorithm, isvp.load_instance(path), c0)
        assert loaded.status is generated.status is SolveStatus.CONVERGED
        assert loaded.iterations == generated.iterations
        assert [rec.d for rec in loaded.records] == [rec.d for rec in generated.records]
        np.testing.assert_array_equal(loaded.c_final, generated.c_final)
