"""Machine-speed probe for the isvp benchmark.

The reference machine is a share of a busy host: its speed drifts by
20-40% over seconds to minutes, and the solver timings of a whole run
move with it.  The probe measures that speed from inside the run.  It is
a fixed numpy computation on fixed random data, built from the same kinds
of kernel the solvers spend their time in (a full SVD, one BLAS product
over a stack of basis matrices, an einsum contraction, a Python loop of
axpy updates and a small solve), at the workload's shape but with a
shallower basis, so it is cheap.  It calls nothing in ``isvp``: a change
to the solvers leaves it unchanged, and only the machine moves it.

The benchmark runs one probe sample after every trial and reports times
as on a machine where the probe takes ``reference_ms``.  A trial's time
is scaled by ``reference_ms / median`` of the five samples nearest it,
which follows the drift within a run; set-up and per-layer times, which
are not tied to one trial, by the median of all samples of the run.
"""

from __future__ import annotations

import statistics
import time


class SpeedProbe:
    def __init__(self, np, m: int, n: int, depth: int, reference_ms: float):
        rng = np.random.default_rng(20240601)
        self._np = np
        self._x = rng.standard_normal((m, n))
        self._basis = rng.standard_normal((depth, m, n))
        self._coeffs = rng.standard_normal(depth)
        self._eye = np.eye(n)
        self.reference_ms = reference_ms
        self.samples_ms: list[float] = []

    def _compute(self):
        np = self._np
        depth, m, n = self._basis.shape
        U, s, Vt = np.linalg.svd(self._x)
        products = (self._basis.reshape(depth * m, n) @ Vt.T).reshape(depth, m, n)
        J = np.einsum("ri,jri->ij", U[:, :n], products)
        out = self._x.copy()
        for ck, Bk in zip(self._coeffs, self._basis):
            out += ck * Bk
        return np.linalg.solve(J @ J.T + self._eye, s)

    def sample(self):
        t0 = time.perf_counter()
        self._compute()
        self.samples_ms.append((time.perf_counter() - t0) * 1e3)

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    def factor(self) -> float:
        """Multiply a measured time by this to get it at reference speed."""
        return self.reference_ms / self.median_ms()

    def local_factor(self, index: int, half_width: int = 2) -> float:
        """The factor from the samples nearest sample ``index``: the median
        of up to ``2 * half_width + 1`` of them, centred on it."""
        near = self.samples_ms[max(0, index - half_width) : index + half_width + 1]
        return self.reference_ms / statistics.median(near)
