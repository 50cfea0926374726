"""Property-based checks of the algebraic invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import isvp
from isvp.verification import near_orthogonal, separated_sigma


@st.composite
def seeded_shape(draw, max_m=30, max_n=12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=n, max_value=max_m))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return m, n, np.random.default_rng(seed)


@given(seeded_shape())
@settings(max_examples=60, deadline=None)
def test_chebyshev_cubing_identity(params):
    _, n, rng = params
    B = rng.uniform(-1.0, 1.0, (n, n))
    J = rng.uniform(-1.0, 1.0, (n, n))
    B_next = isvp.chebyshev_update(B, J)
    R = np.eye(n) - B @ J
    gap = np.linalg.norm((np.eye(n) - B_next @ J) - R @ R @ R)
    assert gap <= 1e-12 * (1.0 + np.linalg.norm(R) ** 3)


@given(seeded_shape())
@settings(max_examples=60, deadline=None)
def test_correction_symmetrization(params):
    m, n, rng = params
    sigma = separated_sigma(rng, n)
    U = near_orthogonal(rng, m)
    V = near_orthogonal(rng, n)
    W = isvp.diag_embed(sigma, m) + 0.3 * rng.standard_normal((m, n))
    pair = isvp.correction_matrices(U, V, W, sigma)
    assert np.linalg.norm(pair.left + pair.left.T - (U.T @ U - np.eye(m))) <= 1e-12 * m
    assert np.linalg.norm(pair.right + pair.right.T - (V.T @ V - np.eye(n))) <= 1e-12 * m


@given(seeded_shape())
@settings(max_examples=60, deadline=None)
def test_skew_pair_is_bitwise_skew(params):
    m, n, rng = params
    sigma = separated_sigma(rng, n)
    D = rng.standard_normal((m, n))
    X, Y = isvp.alg1_skew_pair(D, sigma)
    assert np.array_equal(X, -X.T)
    assert np.array_equal(Y, -Y.T)


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
