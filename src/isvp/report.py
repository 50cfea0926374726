"""Per-iteration diagnostics and terminal solve reports."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    DIVERGED = "diverged"


@dataclass
class IterationRecord:
    """One outer iteration: residual, timing and Jacobian conditioning.

    ``err_c`` is the distance to the generating coefficient vector and is
    only present when the caller knows the ground truth.  ``jacobian``
    returns J_k; :attr:`cond_j` calls it on first read and then drops it,
    so a record holds at most one n x n Jacobian (or the factors to form
    it from) until then, and a float after.
    """

    k: int
    d: float
    wall_ms: float
    err_c: float | None = None
    jacobian: Callable[[], np.ndarray] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def cond_j(self) -> float:
        """2-norm condition number of J_k, computed on first read; ``inf``
        for a non-finite J_k, which never reaches LAPACK."""
        with np.errstate(over="ignore", invalid="ignore"):
            J = self.jacobian()
            self.jacobian = None
            if not np.isfinite(J).all():
                return np.inf
            return float(np.linalg.cond(J, 2))


@dataclass
class SolveReport:
    """Terminal status plus the full iteration trace of one solve."""

    status: SolveStatus
    records: list[IterationRecord] = field(default_factory=list)
    c_final: np.ndarray | None = None
    iterations: int = 0
    total_ms: float = 0.0

    @property
    def residuals(self) -> list[float]:
        return [rec.d for rec in self.records]

