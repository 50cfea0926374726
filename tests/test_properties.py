"""Property-based checks of the algebraic invariants.

The identities that ``isvp verify`` checks run here through those same
checks, on seeds that hypothesis draws; the properties below have no
verify check of their own."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import isvp
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


@given(
    st.integers(min_value=2, max_value=3),
    st.floats(min_value=0.05, max_value=0.45),
)
@settings(max_examples=40, deadline=None)
def test_root_rate_recovers_order(order, base):
    d = [base ** (float(order) ** k) for k in range(5)]
    rate = isvp.estimate_root_rate(d)
    assert abs(rate - order) <= 0.01
