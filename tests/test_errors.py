"""Each error belongs to one family, and the driver and the CLI act on the family."""

import inspect
import re

import numpy as np
import pytest

import isvp
from isvp import cayley_free, cli, errors
from isvp.core import make_instance
from isvp.cli import EXIT_NONCONVERGED, EXIT_USAGE
from isvp.errors import DegenerateDraw, InputError, IsvpError, NonFiniteInput, NumericalError
from isvp.harness import Algorithm
from isvp.report import SolveStatus

from conftest import solve

# each class and its family; a leaf has a class of its own only where a
# caller tells it apart from its family
FAMILY = {
    "IsvpError": None,
    "InputError": InputError,
    "NumericalError": NumericalError,
    "NonFiniteInput": InputError,
    "DegenerateDraw": None,
}

CLASSES = {
    name: cls
    for name, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, IsvpError)
}


def test_every_leaf_is_in_exactly_its_family():
    assert set(CLASSES) == set(FAMILY)
    for name, family in FAMILY.items():
        cls = CLASSES[name]
        assert issubclass(cls, InputError) == (family is InputError), name
        assert issubclass(cls, NumericalError) == (family is NumericalError), name


# the failure situations that share a family class, each under its own
# name, with its family and a message the package raises for it
SITUATIONS = {
    "DimensionMismatch": (InputError, "require m >= n >= 1, got m=2, n=3"),
    "ArityMismatch": (InputError, "sigma_star must have n=3 entries, got 2"),
    "NonpositiveSigma": (InputError, "target singular values must be strictly positive"),
    "DuplicateSigma": (InputError, "minimum target gap 0.000e+00 is not above 1e-10"),
    "IoFailure": (InputError, "cannot read start vector c0.txt: no such file"),
    "NumericalFailure": (NumericalError, "SVD did not converge: SVD did not converge"),
    "NumericalBreakdown": (NumericalError, "first coefficient update is non-finite"),
    "DegenerateShift": (NumericalError, "shift entries collide, cancel or vanish (gap 9.992e-14)"),
    "SingularSystem": (NumericalError, "Cayley system is singular: singular matrix"),
    "SingularJacobian": (NumericalError, "J0 is singular: singular matrix"),
    "SingularValueCollision": (
        NumericalError,
        "singular values too close along the path (gap 1.000e-14)",
    ),
}

CLI_CASES = {
    **{name: (cls, "boom") for name, cls in CLASSES.items()},
    **SITUATIONS,
    "ValueError": (ValueError, "boom"),
}


@pytest.mark.parametrize("exc_type, message", CLI_CASES.values(), ids=list(CLI_CASES))
def test_cli_exit_code_follows_the_family(exc_type, message, monkeypatch, capsys):
    def raise_it(args):
        raise exc_type(message)

    monkeypatch.setattr(cli, "_cmd_verify", raise_it)
    expected = EXIT_USAGE if issubclass(exc_type, (InputError, ValueError)) else EXIT_NONCONVERGED
    assert cli.main(["verify"]) == expected
    assert capsys.readouterr().err == f"error: {message}\n"


def _raise_away_from_c0(monkeypatch, exc_type, message="raised inside a step"):
    # A(c) is exact at c0, so the k = 0 state builds; the first step raises
    inst, c_star = isvp.generate_instance(12, 5, 7)
    c0 = isvp.perturb_c_star(c_star, 1e-2, 2)
    exact = inst.operator.evaluate

    def evaluate(c):
        if not np.array_equal(c, c0):
            raise exc_type(message)
        return exact(c)

    monkeypatch.setattr(inst.operator, "evaluate", evaluate)
    return inst, c_star, c0


STEP_FAILURES = {
    name: situation for name, situation in SITUATIONS.items() if situation[0] is NumericalError
}
STEP_FAILURES["NonFiniteInput"] = (NonFiniteInput, "U contains NaN or infinity")


@pytest.mark.parametrize("exc_type, message", STEP_FAILURES.values(), ids=list(STEP_FAILURES))
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_step_failure_is_diverged(algorithm, exc_type, message, monkeypatch):
    inst, c_star, c0 = _raise_away_from_c0(monkeypatch, exc_type, message)
    report = solve(algorithm, inst, c0, c_star=c_star)
    assert report.status is SolveStatus.DIVERGED
    assert report.iterations == 0
    assert len(report.records) == 1


@pytest.mark.parametrize("exc_type", [InputError, DegenerateDraw], ids=lambda t: t.__name__)
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_other_errors_in_a_step_propagate(algorithm, exc_type, monkeypatch):
    inst, c_star, c0 = _raise_away_from_c0(monkeypatch, exc_type)
    with pytest.raises(exc_type, match="raised inside a step"):
        solve(algorithm, inst, c0, c_star=c_star)


# each basis form and the LAPACK routine full_svd runs on its exact points:
# eigh on a symmetric block of even side, svd otherwise; a dense case is
# named by its algorithm alone
K0_CASES = [
    pytest.param(algorithm, generate, routine, id=algorithm.value + suffix)
    for algorithm in Algorithm
    for generate, routine, suffix in [
        (isvp.generate_instance, "svd", ""),
        (isvp.generate_toeplitz_instance, "eigh", "-toeplitz"),
    ]
]


@pytest.mark.parametrize("algorithm, generate, routine", K0_CASES)
def test_failures_while_building_k0_raise(algorithm, generate, routine, monkeypatch):
    # every solver builds its k = 0 state through the exact SVD of A(c0)
    # n is even, so the Toeplitz block takes the split and its eigh
    inst, c_star = generate(12, 6, 7)
    c0 = isvp.perturb_c_star(c_star, 1e-2, 2)
    c_nan = c0.copy()
    c_nan[0] = np.nan
    with pytest.raises(NonFiniteInput, match="^c contains NaN or infinity$"):
        solve(algorithm, inst, c_nan)

    def fail(A, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(NumericalError, match="did not converge: did not converge$"):
        solve(algorithm, inst, c0, c_star=c_star)


# caller arrays that are not real arrays, each built from a real array of
# the same shape, and the start of the error: a dtype that is not integer
# or float, rows nested to different depths that numpy cannot make one
# array of, or an entry that is NaN
NOT_REAL = {
    "complex": (lambda a: a + 3j, "must hold real numbers, not "),
    "nan": (lambda a: np.full(np.shape(a), np.nan), "contains NaN or infinity"),
    "string": (lambda a: np.asarray(a).astype(str), "must hold real numbers, not "),
    "ragged": (lambda a: [a[0], list(a[1:3]), *a[3:]], "must be a rectangular array: "),
}

# every entry point that takes a caller array: the argument's name in the
# error, and a call with that argument made by ``bad``
REAL_INPUT_SITES = {
    "evaluate_A": ("c", lambda inst, c, bad: isvp.evaluate_A(inst, bad(c))),
    "full_svd": ("A", lambda inst, c, bad: isvp.full_svd(bad(isvp.evaluate_A(inst, c)))),
    "build_instance-basis": (
        "basis[1]",
        lambda inst, c, bad: isvp.build_instance(
            [inst.basis[0], bad(inst.basis[1]), *inst.basis[2:]], inst.sigma_star
        ),
    ),
    "build_instance-sigma_star": (
        "sigma_star",
        lambda inst, c, bad: isvp.build_instance(inst.basis, bad(inst.sigma_star)),
    ),
    "make_instance": (
        "sigma_star",
        lambda inst, c, bad: make_instance(inst.operator, bad(inst.sigma_star)),
    ),
    "initialize": ("c", lambda inst, c, bad: cayley_free.initialize(inst, bad(c))),
    "correction_matrices": (
        "sigma_star",
        lambda inst, c, bad: isvp.correction_matrices(
            np.eye(inst.n), np.eye(inst.n), np.zeros((inst.n, inst.n)), bad(inst.sigma_star)
        ),
    ),
    "solve-c0": ("c", lambda inst, c, bad: isvp.solve(inst, bad(c), np.eye(inst.n))),
    "solve-B0": ("B0", lambda inst, c, bad: isvp.solve(inst, c, bad(np.eye(inst.n)))),
    "newton_exact_solve": ("c", lambda inst, c, bad: isvp.newton_exact_solve(inst, bad(c))),
    "perturb_c_star": ("c*", lambda inst, c, bad: isvp.perturb_c_star(bad(c), 1e-3, 1)),
    "alg1_skew_pair-D": (
        "D",
        lambda inst, c, bad: isvp.alg1_skew_pair(bad(np.ones((inst.r, inst.n))), inst.sigma_star),
    ),
    "alg1_skew_pair-s": (
        "s",
        lambda inst, c, bad: isvp.alg1_skew_pair(np.ones((inst.r, inst.n)), bad(inst.sigma_star)),
    ),
    "cayley_orthogonalize-Q": (
        "Q",
        lambda inst, c, bad: isvp.cayley_orthogonalize(bad(np.eye(inst.n)), np.eye(inst.n)),
    ),
    "cayley_orthogonalize-S": (
        "S",
        lambda inst, c, bad: isvp.cayley_orthogonalize(np.eye(inst.n), bad(np.eye(inst.n))),
    ),
}


@pytest.mark.parametrize("bad, error", NOT_REAL.values(), ids=list(NOT_REAL))
@pytest.mark.parametrize("name, call", REAL_INPUT_SITES.values(), ids=list(REAL_INPUT_SITES))
def test_a_caller_array_that_is_not_real_is_an_input_error(name, call, bad, error, small_instance):
    # converting it to float would drop an imaginary part or parse text, and
    # numpy's own ValueError for a ragged one would not name the argument
    inst, c_star = small_instance
    with pytest.raises(InputError, match=f"^{re.escape(name)} {error}"):
        call(inst, c_star, bad)
