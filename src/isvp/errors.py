"""Exception hierarchy for the isvp package.

Most errors belong to one of two families, and callers dispatch on the
family rather than on the leaf class:

- :class:`InputError`: the caller's data, file or path is at fault.  It
  raises, and ``isvp`` exits 2 on it.
- :class:`NumericalError`: the numerics broke down.  Raised inside an
  outer step it ends the solve as ``diverged``; while the k = 0 state is
  built it raises.  Inside a step a ``NonFiniteInput`` counts as one,
  since there it reports an overflowed intermediate.

``DegenerateDraw`` and ``InsufficientData`` belong to neither.
"""


class IsvpError(Exception):
    """Base class for all errors raised by this package."""


class InputError(IsvpError):
    """The caller's data, file or path is at fault."""


class NumericalError(IsvpError):
    """A numerical kernel or iteration broke down."""


class DimensionMismatch(InputError):
    """Matrix dimensions are inconsistent (ragged basis, or m < n)."""


class ArityMismatch(InputError):
    """Number of target singular values does not match the basis count."""


class NonpositiveSigma(InputError):
    """A target singular value is zero or negative."""


class DuplicateSigma(InputError):
    """Two targets, or the smallest target and zero, are within ``MIN_GAP``."""


class NonFiniteInput(InputError):
    """An input vector or matrix contains NaN or infinity."""


class IoFailure(InputError):
    """Reading or writing an artifact file failed."""


class NumericalFailure(NumericalError):
    """A dense linear algebra kernel failed to converge."""


class NumericalBreakdown(NumericalError):
    """An iteration produced a non-finite intermediate quantity."""


class DegenerateShift(NumericalError):
    """Shift entries collide or vanish where a division requires them."""


class SingularSystem(NumericalError):
    """A linear system that should be solvable turned out singular."""


class SingularJacobian(NumericalError):
    """The (approximate) Jacobian cannot be inverted."""


class SingularValueCollision(NumericalError):
    """Singular values along the iteration path are no longer simple."""


class DegenerateDraw(IsvpError):
    """A randomly drawn instance has a degenerate spectrum."""


class InsufficientData(IsvpError):
    """Not enough residual history to estimate a convergence rate."""
