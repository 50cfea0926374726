"""Per-iteration diagnostics and terminal solve reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    DIVERGED = "diverged"


@dataclass
class IterationRecord:
    """One outer iteration: residual, Jacobian conditioning, timing.

    ``err_c`` is the distance to the generating coefficient vector and is
    only present when the caller knows the ground truth.
    """

    k: int
    d: float
    cond_j: float
    wall_ms: float
    err_c: float | None = None


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

