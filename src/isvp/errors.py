"""Exception hierarchy for the isvp package.

Most errors belong to one of two families, and callers dispatch on the
family; the message says what went wrong:

- :class:`InputError`: the caller's data, file or path is at fault.  It
  raises, and ``isvp`` exits 2 on it.
- :class:`NumericalError`: the numerics broke down.  Raised inside an
  outer step it ends the solve as ``diverged``; while the k = 0 state is
  built it raises.

``NonFiniteInput`` is the one input error with a class of its own,
because the driver tells it apart: inside a step it reports an
overflowed intermediate and ends the solve as ``diverged`` too, while
any other input error there propagates.  ``DegenerateDraw`` belongs
to neither family.
"""


class IsvpError(Exception):
    """Base class for all errors raised by this package."""


class InputError(IsvpError):
    """The caller's data, file or path is at fault."""


class NumericalError(IsvpError):
    """A numerical kernel or iteration broke down."""


class NonFiniteInput(InputError):
    """An input vector or matrix contains NaN or infinity."""


class DegenerateDraw(IsvpError):
    """A randomly drawn instance has a degenerate spectrum."""
