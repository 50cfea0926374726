"""The stopping rule and failure contract that all three solvers share."""

import warnings
import weakref

import numpy as np
import pytest

import isvp
from isvp import baselines, cayley_free, core
from isvp.cayley_free import SolverConfig, two_step_start
from isvp.harness import SOLVERS, Algorithm, ExperimentConfig, run_trial
from isvp.report import IterationRecord, SolveStatus

from conftest import solve


@pytest.fixture(scope="module")
def poor_start():
    inst, c_star = isvp.generate_instance(20, 8, 2)
    return inst, c_star, isvp.perturb_c_star(c_star, 1e-2, 2)


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_one_iteration_budget(algorithm, poor_start):
    inst, c_star, c0 = poor_start
    report = solve(algorithm, inst, c0, SolverConfig(max_iter=1), c_star=c_star)
    assert report.status is SolveStatus.MAX_ITERATIONS
    assert report.iterations == 1
    assert [rec.k for rec in report.records] == [0, 1]


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_err_c_on_every_record(algorithm, poor_start):
    inst, c_star, c0 = poor_start
    report = solve(algorithm, inst, c0, c_star=c_star)
    assert len(report.records) >= 2
    assert report.records[0].err_c == float(np.linalg.norm(c0 - c_star))
    assert all(rec.err_c is not None for rec in report.records)
    assert report.records[-1].err_c == float(np.linalg.norm(report.c_final - c_star))
    assert all(rec.err_c is None for rec in solve(algorithm, inst, c0).records)


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


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_nonfinite_A_inside_a_step_is_diverged(algorithm, monkeypatch):
    # A(c) is exact at c0, so the k = 0 state builds, and all-inf anywhere
    # else, so the first step meets a non-finite matrix
    inst, c_star = isvp.generate_instance(20, 8, 2)
    c0 = isvp.perturb_c_star(c_star, 1e-2, 2)
    exact = inst.operator.evaluate

    def overflow_away_from_c0(c):
        A = exact(c)
        return A if np.array_equal(c, c0) else np.full_like(A, np.inf)

    monkeypatch.setattr(inst.operator, "evaluate", overflow_away_from_c0)
    report = solve(algorithm, inst, c0, c_star=c_star)
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


@pytest.mark.parametrize("path", [*Algorithm, "solve"])
def test_a_solve_forms_only_the_jacobians_its_steps_use(path, medium_instance, monkeypatch):
    # K steps form J_0 .. J_{K-1}, and the last iterate's J_K is never formed.
    # ``isvp.solve`` is handed B_0, so its steps form J_1 .. J_{K-1} only.
    # Reading every cond_j forms no Jacobian and runs one cond per J_k formed
    inst, c_star = medium_instance
    c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
    B0 = two_step_start(inst, c0).B
    jacobians, conds = [], []
    approx_jacobian, cond = core.approx_jacobian, np.linalg.cond

    def counting_jacobian(*args):
        jacobians.append(args)
        return approx_jacobian(*args)

    def counting_cond(*args):
        conds.append(args)
        return cond(*args)

    for module in (core, cayley_free, baselines):
        monkeypatch.setattr(module, "approx_jacobian", counting_jacobian)
    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    report = isvp.solve(inst, c0, B0) if path == "solve" else solve(path, inst, c0)
    assert report.status is SolveStatus.CONVERGED
    K = report.iterations
    assert K >= 2
    formed = K - (path == "solve")
    assert (len(jacobians), len(conds)) == (formed, 0)
    for _ in range(2):  # the second read is cached
        carried = [rec.cond_j is not None for rec in report.records]
    assert carried == [path != "solve"] + [True] * (K - 1) + [False]
    assert (len(jacobians), len(conds)) == (formed, formed)


def test_a_direct_solve_frees_every_state_it_makes(medium_instance, monkeypatch):
    # records hold a J_k or nothing, never an iterate or the factors of one;
    # record 0 and the last record of a direct solve hold nothing
    inst, c_star = medium_instance
    c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
    B0 = two_step_start(inst, c0).B
    states = []

    def spying(fn):
        def spy(*args):
            state = fn(*args)
            states.append(weakref.ref(state))
            return state

        return spy

    for name in ("initialize", "outer_step"):
        monkeypatch.setattr(cayley_free, name, spying(getattr(cayley_free, name)))
    report = isvp.solve(inst, c0, B0)
    assert report.status is SolveStatus.CONVERGED
    assert inst.r > inst.n and len(states) == report.iterations + 1
    assert [ref() for ref in states] == [None] * len(states)
    ends = report.records[0], report.records[-1]
    assert [(rec.jacobian, rec.cond_j) for rec in ends] == [(None, None)] * 2


@pytest.mark.parametrize(
    "generate", [isvp.generate_instance, isvp.generate_toeplitz_instance], ids=["dense", "toeplitz"]
)
@pytest.mark.parametrize("algorithm", sorted(SOLVERS))
def test_each_record_reads_cond_of_its_iterates_jacobian(algorithm, generate, monkeypatch):
    inst, c_star = generate(40, 20, 2)
    c0 = isvp.perturb_c_star(c_star, 1e-3, 2)
    _, (module, step) = SOLVERS[algorithm]
    original = getattr(module, step)
    starts = []

    def spy(state, instance):
        starts.append(state)
        return original(state, instance)

    monkeypatch.setattr(module, step, spy)
    report = solve(algorithm, inst, c0)
    assert report.status is SolveStatus.CONVERGED
    assert len(starts) == report.iterations == len(report.records) - 1
    # step by hand from the solve's k = 0 state; each step forms the J_k of
    # the iterate it starts from, and the last iterate takes no step
    state = starts[0]
    for record in report.records[:-1]:
        next_state = original(state, inst)
        assert record.k == state.k
        assert np.array_equal(record.jacobian, state.J)
        assert record.cond_j == float(np.linalg.cond(state.J, 2))
        state = next_state
    assert report.records[-1].k == state.k
    assert (report.records[-1].jacobian, report.records[-1].cond_j) == (None, None)


@pytest.mark.parametrize("algorithm", sorted(SOLVERS))
def test_every_record_holds_an_n_by_n_jacobian_or_none(algorithm):
    # 60 x 30 seeds 1..6 at beta 1e-2 include diverging cf and alg1 solves
    statuses = set()
    for seed in range(1, 7):
        inst, c_star = isvp.generate_instance(60, 30, seed)
        report = solve(algorithm, inst, isvp.perturb_c_star(c_star, 1e-2, seed))
        statuses.add(report.status)
        for rec in report.records[:-1]:
            assert type(rec.jacobian) is np.ndarray and rec.jacobian.shape == (30, 30)
        last = report.records[-1].jacobian
        assert last is None or (type(last) is np.ndarray and last.shape == (30, 30))
    assert SolveStatus.CONVERGED in statuses


@pytest.mark.parametrize(
    "J",
    [np.full((3, 3), np.inf), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, np.nan], [0.0, 0.0, 1.0]])],
    ids=["all-inf", "nan-entry"],
)
def test_cond_j_of_a_nonfinite_jacobian_is_inf(J, monkeypatch):
    # np.linalg.cond prints a LAPACK parameter error for the first and
    # raises LinAlgError for the second; neither may reach it
    def lapack(*args):
        raise AssertionError("a non-finite J reached np.linalg.cond")

    monkeypatch.setattr(np.linalg, "cond", lapack)
    record = IterationRecord(k=1, d=np.inf, wall_ms=0.0, jacobian=J)
    assert record.cond_j == np.inf
    assert record.jacobian is J


@pytest.mark.parametrize("algorithm", [Algorithm.CAYLEY_FREE, Algorithm.ALG1])
def test_a_step_that_forms_a_nonfinite_jacobian_records_it(algorithm, monkeypatch):
    # J_1 overflows: the step writes it onto iterate 1 before its check
    # raises, so the solve diverges and record 1 reads cond_J = inf
    inst, c_star = isvp.generate_instance(20, 8, 2)
    c0 = isvp.perturb_c_star(c_star, 1e-2, 2)
    exact = inst.operator.jacobian
    calls = []

    def overflow_after_first(Un, Vn):
        calls.append(1)
        return exact(Un, Vn) if len(calls) == 1 else np.full((8, 8), np.inf)

    monkeypatch.setattr(inst.operator, "jacobian", overflow_after_first)
    report = solve(algorithm, inst, c0)
    assert report.status is SolveStatus.DIVERGED
    assert [rec.k for rec in report.records] == [0, 1]
    assert report.records[0].cond_j >= 1.0
    assert report.records[1].cond_j == np.inf
