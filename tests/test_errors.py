"""Each error belongs to one family, and the driver and the CLI act on the family."""

import inspect

import numpy as np
import pytest

import isvp
import isvp.cayley_free as cayley_free
from isvp import cli, errors
from isvp.cli import EXIT_NONCONVERGED, EXIT_USAGE
from isvp.errors import InputError, IsvpError, NonFiniteInput, NumericalError, NumericalFailure
from isvp.harness import Algorithm
from isvp.report import SolveStatus

from conftest import solve

FAMILIES = {
    InputError: {
        "DimensionMismatch",
        "ArityMismatch",
        "NonpositiveSigma",
        "DuplicateSigma",
        "NonFiniteInput",
        "IoFailure",
    },
    NumericalError: {
        "NumericalFailure",
        "NumericalBreakdown",
        "DegenerateShift",
        "SingularSystem",
        "SingularJacobian",
        "SingularValueCollision",
    },
    None: {"DegenerateDraw", "InsufficientData"},
}

LEAVES = {
    name: cls
    for name, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, IsvpError) and cls not in (IsvpError, InputError, NumericalError)
}


def test_every_leaf_is_in_exactly_its_family():
    assert set(LEAVES) == set().union(*FAMILIES.values())
    for family, names in FAMILIES.items():
        for name in names:
            cls = LEAVES[name]
            assert issubclass(cls, InputError) == (family is InputError), name
            assert issubclass(cls, NumericalError) == (family is NumericalError), name


@pytest.mark.parametrize("exc_type", [*LEAVES.values(), ValueError], ids=lambda t: t.__name__)
def test_cli_exit_code_follows_the_family(exc_type, monkeypatch, capsys):
    def raise_it(args):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "_cmd_verify", raise_it)
    expected = EXIT_USAGE if issubclass(exc_type, (InputError, ValueError)) else EXIT_NONCONVERGED
    assert cli.main(["verify"]) == expected
    assert capsys.readouterr().err == "error: boom\n"


STEP_FAILURES = [LEAVES[name] for name in sorted(FAMILIES[NumericalError])]
STEP_FAILURES.append(LEAVES["NonFiniteInput"])


def _raise_away_from_c0(monkeypatch, exc_type):
    # A(c) is exact at c0, so the k = 0 state builds; the first step raises
    inst, c_star = isvp.generate_instance(12, 5, 7)
    c0 = isvp.perturb_c_star(c_star, 1e-2, 2)
    exact = inst.operator.evaluate

    def evaluate(c):
        if not np.array_equal(c, c0):
            raise exc_type("raised inside a step")
        return exact(c)

    monkeypatch.setattr(inst.operator, "evaluate", evaluate)
    return inst, c_star, c0


@pytest.mark.parametrize("exc_type", STEP_FAILURES, ids=lambda t: t.__name__)
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_step_failure_is_diverged(algorithm, exc_type, monkeypatch):
    inst, c_star, c0 = _raise_away_from_c0(monkeypatch, exc_type)
    report = solve(algorithm, inst, c0, c_star=c_star)
    assert report.status is SolveStatus.DIVERGED
    assert report.iterations == 0
    assert len(report.records) == 1


@pytest.mark.parametrize(
    "exc_type", [LEAVES["DimensionMismatch"], LEAVES["DegenerateDraw"]], ids=lambda t: t.__name__
)
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_other_errors_in_a_step_propagate(algorithm, exc_type, monkeypatch):
    inst, c_star, c0 = _raise_away_from_c0(monkeypatch, exc_type)
    with pytest.raises(exc_type, match="raised inside a step"):
        solve(algorithm, inst, c0, c_star=c_star)


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_failures_while_building_k0_raise(algorithm, monkeypatch):
    # every solver builds its k = 0 state through the exact SVD of A(c0)
    inst, c_star = isvp.generate_instance(12, 5, 7)
    c0 = isvp.perturb_c_star(c_star, 1e-2, 2)
    c_nan = c0.copy()
    c_nan[0] = np.nan
    with pytest.raises(NonFiniteInput):
        solve(algorithm, inst, c_nan)

    def fail(A):
        raise NumericalFailure("SVD did not converge")

    monkeypatch.setattr(cayley_free, "full_svd", fail)
    with pytest.raises(NumericalFailure, match="SVD did not converge"):
        solve(algorithm, inst, c0, c_star=c_star)
