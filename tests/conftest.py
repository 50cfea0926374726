import pytest

import isvp
from isvp import baselines, cayley_free
from isvp.cayley_free import SolverConfig
from isvp.harness import Algorithm, run_solver

# each solver's step, as the module and name where its solve looks it up
STEPS = {
    Algorithm.CAYLEY_FREE: (cayley_free, "outer_step"),
    Algorithm.ALG1: (baselines, "alg1_outer_step"),
    Algorithm.NEWTON: (baselines, "_newton_step"),
}


def solve(algorithm, instance, c0, config=None, c_star=None):
    """The one solver table of the tests: any ``Algorithm`` from c0, run
    the way the harness runs it; the Cayley-free method starts from
    ``cayley_free_start`` at mu = 0, so B_0 = inv(J_0)."""
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
