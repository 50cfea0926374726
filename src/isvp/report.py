"""Per-iteration diagnostics and terminal solve reports."""

from __future__ import annotations

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
    only present when the caller knows the ground truth.  ``jacobian`` is
    the n x n J_k that the start or a step formed for iterate k, or
    ``None`` where none was formed: the last iterate, unless a step from
    it formed J_k and then failed, and iterate 0 of a solve handed its B_0.
    """

    k: int
    d: float
    wall_ms: float
    err_c: float | None = None
    jacobian: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def cond_j(self) -> float | None:
        """2-norm condition number of J_k, computed on first read; ``inf``
        for a non-finite J_k, which never reaches LAPACK, and ``None``
        without a J_k."""
        J = self.jacobian
        if J is None:
            return None
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

