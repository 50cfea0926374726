"""Property-based checks of the algebraic invariants.

The identities that ``isvp verify`` checks run here through those same
checks, on seeds that hypothesis draws; the properties below have no
verify check of their own."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isvp
from isvp import cayley_free
from isvp.core import DenseBasis, SvdFactorization, make_instance
from isvp.harness import Algorithm, run_solver
from isvp.verification import (
    check_chebyshev_cubing,
    check_correction_symmetrization,
    check_skew_exactness,
    separated_sigma,
)


@st.composite
def seeded_shape(draw, max_m, max_n):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=n, max_value=max_m))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return m, n, np.random.default_rng(seed)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_identity_checks_hold_on_any_seed(seed):
    # one trial of each shipped check, at the shapes and bound of ``isvp verify``
    for check in (check_chebyshev_cubing, check_correction_symmetrization, check_skew_exactness):
        result = check(1, seed)
        assert result.passed, result.line()


@given(seeded_shape(max_m=12, max_n=5))
@settings(max_examples=30, deadline=None)
def test_evaluate_is_affine(params):
    m, n, rng = params
    inst, _ = isvp.generate_instance(m, n, int(rng.integers(0, 1000)))
    c1 = rng.uniform(-2.0, 2.0, n)
    c2 = rng.uniform(-2.0, 2.0, n)
    gap = (
        isvp.evaluate_A(inst, c1 + c2)
        - isvp.evaluate_A(inst, c1)
        - isvp.evaluate_A(inst, c2)
        + inst.basis[0]
    )
    scale = max(1.0, np.abs(isvp.evaluate_A(inst, c1 + c2)).max())
    assert np.abs(gap).max() <= 1e-13 * scale


@given(seeded_shape(max_m=10, max_n=4))
@settings(max_examples=30, deadline=None)
def test_residual_d_sign_flip_invariance(params):
    m, n, rng = params
    U = rng.standard_normal((m, m))
    V = rng.standard_normal((n, n))
    A = rng.standard_normal((m, n))
    sigma = separated_sigma(rng, n)
    flips = rng.choice([-1.0, 1.0], n)
    U2 = U.copy()
    U2[:, :n] *= flips
    V2 = V * flips
    d1 = isvp.residual_d(U.T @ A @ V, sigma)
    d2 = isvp.residual_d(U2.T @ A @ V2, sigma)
    assert abs(d1 - d2) <= 1e-14 * (1.0 + d1)


def _flipping_pairs(svd, rng):
    """``svd`` with each pair (u_i, v_i) flipped by one seeded sign and
    each completion column of U by another, drawn anew on every call."""

    def flipped(A, full_matrices=True):
        f = svd(A, full_matrices=full_matrices)
        n, q = f.V.shape[1], f.U.shape[1]
        pairs = rng.choice([-1.0, 1.0], n)
        flips = np.concatenate([pairs, rng.choice([-1.0, 1.0], q - n)])
        # broadcast products keep each factor's memory layout
        return SvdFactorization(U=f.U * flips, V=f.V * pairs, sigma=f.sigma)

    return flipped


def _trace(report):
    # hex floats, so that inf and NaN compare too
    return (
        report.status,
        report.iterations,
        [rec.d.hex() for rec in report.records],
        [None if rec.cond_j is None else rec.cond_j.hex() for rec in report.records],
        [float(x).hex() for x in report.c_final],
    )


# (generator, m, n, beta); the 60 x 30 seeds 1 and 2 at beta 1e-2 include
# diverging cf and alg1 solves
FLIP_CASES = {
    "dense-30x12": (isvp.generate_instance, 30, 12, 1e-3),
    "dense-60x30": (isvp.generate_instance, 60, 30, 1e-2),
    "toeplitz-40x30": (isvp.generate_toeplitz_instance, 40, 30, 1e-3),
}


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=[a.value for a in Algorithm])
@pytest.mark.parametrize("case", FLIP_CASES.values(), ids=list(FLIP_CASES))
def test_solves_ignore_the_signs_of_singular_vector_pairs(algorithm, case, monkeypatch):
    # every solve reads U and V only through quantities that a paired flip
    # leaves unchanged, so flipping them changes no bit of its trace
    generate, m, n, beta = case
    for seed in range(1, 5):
        instance, c_star = generate(m, n, seed)
        c0 = isvp.perturb_c_star(c_star, beta, seed)

        def solve():
            report, _ = run_solver(algorithm, instance, c0, isvp.SolverConfig(), 0.0, seed)
            return _trace(report)

        reference = solve()
        with monkeypatch.context() as patch:
            rng = np.random.default_rng(seed)
            patch.setattr(cayley_free, "full_svd", _flipping_pairs(cayley_free.full_svd, rng))
            assert solve() == reference


def _signed_trace(algorithm, instance, c0, seed, signs):
    # c_final is multiplied by ``signs``, which maps a flipped solve's back exactly
    report, _ = run_solver(algorithm, instance, c0, isvp.SolverConfig(), 0.0, seed)
    return (
        report.status,
        report.iterations,
        [rec.d.hex() for rec in report.records],
        [float(x).hex() for x in signs * report.c_final],
    )


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=[a.value for a in Algorithm])
def test_solves_map_under_basis_sign_flips(algorithm):
    # negating A_k and c_k leaves A(c) unchanged and negates column k of
    # every Jacobian exactly, so a solve keeps its trace and its c_final
    # changes only in the flipped entries' signs
    for seed in range(1, 41):
        instance, c_star = isvp.generate_instance(60, 30, seed)
        c0 = isvp.perturb_c_star(c_star, 1e-2, seed)
        signs = np.where(np.random.default_rng(seed).random(instance.n) < 0.5, -1.0, 1.0)
        rows = instance.operator.rows.copy()
        rows[:, 1:] *= signs[:, None]
        flipped = make_instance(DenseBasis(rows), instance.sigma_star)
        reference = _signed_trace(algorithm, instance, c0, seed, np.ones(instance.n))
        assert _signed_trace(algorithm, flipped, signs * c0, seed, signs) == reference, seed


@given(
    st.integers(min_value=2, max_value=3),
    st.floats(min_value=0.05, max_value=0.45),
)
@settings(max_examples=40, deadline=None)
def test_root_rate_recovers_order(order, base):
    d = [base ** (float(order) ** k) for k in range(5)]
    rate = isvp.estimate_root_rate(d)
    assert abs(rate - order) <= 0.01
