"""The stopping rule and failure contract that all three solvers share."""

import warnings

import numpy as np
import pytest

import isvp
from isvp.cayley_free import SolverConfig
from isvp.harness import Algorithm, ExperimentConfig, run_trial
from isvp.report import SolveStatus

from conftest import solved_start


def cayley_free(instance, c0, config=None, c_star=None):
    _, B0 = solved_start(instance, c0)
    return isvp.solve(instance, c0, B0, config, c_star=c_star)


SOLVERS = {
    "cayley-free": cayley_free,
    "alg1": isvp.alg1_solve,
    "newton": isvp.newton_exact_solve,
}


@pytest.fixture(scope="module")
def poor_start():
    inst, c_star = isvp.generate_instance(20, 8, 2)
    return inst, c_star, isvp.perturb_c_star(c_star, 1e-2, 2)


@pytest.mark.parametrize("name", SOLVERS)
def test_one_iteration_budget(name, poor_start):
    inst, c_star, c0 = poor_start
    report = SOLVERS[name](inst, c0, SolverConfig(max_iter=1), c_star=c_star)
    assert report.status in (SolveStatus.MAX_ITERATIONS, SolveStatus.DIVERGED)
    if report.status is SolveStatus.MAX_ITERATIONS:
        assert report.iterations == 1
    assert len(report.records) == report.iterations + 1
    assert [rec.k for rec in report.records] == list(range(report.iterations + 1))


@pytest.mark.parametrize("name", SOLVERS)
def test_start_at_solution_converges_at_k0(name, small_instance):
    inst, c_star = small_instance
    report = SOLVERS[name](inst, c_star)
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 0
    assert len(report.records) == 1


@pytest.mark.parametrize("name", SOLVERS)
def test_err_c_on_every_record(name, poor_start):
    inst, c_star, c0 = poor_start
    report = SOLVERS[name](inst, c0, c_star=c_star)
    assert len(report.records) >= 2
    assert report.records[0].err_c == float(np.linalg.norm(c0 - c_star))
    assert all(rec.err_c is not None for rec in report.records)
    assert report.records[-1].err_c == float(np.linalg.norm(report.c_final - c_star))
    assert all(rec.err_c is None for rec in SOLVERS[name](inst, c0).records)


@pytest.mark.parametrize(
    "column",
    [0.0, 1e-320],
    ids=["singular", "nonfinite-update"],
)
def test_newton_failure_after_k0_is_diverged(column, monkeypatch):
    # From k = 1 on, the first column of J is replaced: zeros give LU an
    # exactly zero pivot; a subnormal column makes the Newton update overflow.
    inst, c_star = isvp.generate_instance(20, 8, 2)
    c0 = isvp.perturb_c_star(c_star, 1e-2, 2)
    exact = inst.operator.jacobian
    calls = []

    def degrade_after_first(Un, Vn):
        J = exact(Un, Vn)
        if calls:
            J[:, 0] = column
        calls.append(1)
        return J

    monkeypatch.setattr(inst.operator, "jacobian", degrade_after_first)
    report = isvp.newton_exact_solve(inst, c0, c_star=c_star)
    assert report.status is SolveStatus.DIVERGED
    assert report.iterations == 1
    assert len(report.records) == 2
    assert report.records[-1].err_c == float(np.linalg.norm(report.c_final - c_star))


@pytest.mark.parametrize("name", SOLVERS)
def test_nonfinite_A_inside_a_step_is_diverged(name, monkeypatch):
    # A(c) is exact at c0, so the k = 0 state builds, and all-inf anywhere
    # else, so the first step meets a non-finite matrix
    inst, c_star = isvp.generate_instance(20, 8, 2)
    c0 = isvp.perturb_c_star(c_star, 1e-2, 2)
    exact = inst.operator.evaluate

    def overflow_away_from_c0(c):
        A = exact(c)
        return A if np.array_equal(c, c0) else np.full_like(A, np.inf)

    monkeypatch.setattr(inst.operator, "evaluate", overflow_away_from_c0)
    report = SOLVERS[name](inst, c0, c_star=c_star)
    assert report.status is SolveStatus.DIVERGED
    assert report.iterations == 0
    assert len(report.records) == 1
    assert report.records[-1].err_c == float(np.linalg.norm(report.c_final - c_star))


def test_overflowing_residual_is_diverged_without_a_warning():
    # this run blows up until U^T A(c) V has entries near 1e154, where the
    # Frobenius norm of the record's residual overflows to inf
    config = ExperimentConfig(
        m=60, n=30, beta=1e-2, mu=0.3, seeds=(9,), algorithm=Algorithm.CAYLEY_FREE
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trial = run_trial(config, 9)
    assert trial.status == SolveStatus.DIVERGED.value
    assert trial.report.records[-1].d == np.inf
