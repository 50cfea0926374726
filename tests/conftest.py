import pytest

import isvp
from isvp.cayley_free import SolverConfig
from isvp.harness import run_solver


def solve(algorithm, instance, c0, config=None, c_star=None):
    """Any ``Algorithm`` from c0, run the way the harness runs it, through
    its ``harness.SOLVERS`` row at mu = 0, so a two-step B_0 = inv(J_0)."""
    report, _ = run_solver(
        algorithm, instance, c0, config or SolverConfig(), 0.0, 0, c_star=c_star
    )
    return report


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
