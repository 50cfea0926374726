import pytest

import isvp

# the draw helpers of the `isvp verify` checks, shared with the test modules
from isvp.verification import near_orthogonal, separated_sigma  # noqa: F401


def solved_start(instance, c0, mu=0.0, seed=0):
    """J0 at c0 plus the matching B0, the way the harness initializes."""
    factors = isvp.full_svd(isvp.evaluate_A(instance, c0))
    J0 = isvp.approx_jacobian(factors.U, factors.V, instance)
    return J0, isvp.build_B0(J0, mu, seed)


@pytest.fixture(scope="session")
def small_instance():
    """m=12, n=5 instance with known generator, solvable by everything."""
    instance, c_star = isvp.generate_instance(12, 5, 7)
    return instance, c_star


@pytest.fixture(scope="session")
def medium_instance():
    """m=40, n=20 instance; converges in two outer iterations."""
    instance, c_star = isvp.generate_instance(40, 20, 2)
    return instance, c_star
