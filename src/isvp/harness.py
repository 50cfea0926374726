"""Experiment harness: seeded instances, sweeps, rate estimation, reports.

Random instances draw every entry of A_0..A_n and of the generating
vector c* uniformly from [0, 1) and set the targets to the singular
values of A(c*).  The PRNG is numpy's PCG64; each role (generation,
perturbation, B_0 noise) derives an independent stream from the trial
seed via ``SeedSequence(entropy=seed, spawn_key=(role, ...))``, with the
draw order fixed as A_0 row-major, then A_1..A_n, then c*.  Identical
configurations therefore reproduce identical traces apart from wall
times.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__, cayley_free
from .baselines import alg1_solve, newton_exact_solve
from .cayley_free import SolverConfig
from .core import (
    DEFAULT_MIN_GAP,
    DenseBasis,
    IsvpInstance,
    ToeplitzBasis,
    make_instance,
)
from .errors import (
    DegenerateDraw,
    DuplicateSigma,
    InsufficientData,
    IoFailure,
    IsvpError,
    NonpositiveSigma,
    NumericalFailure,
    SingularJacobian,
)
from .report import SolveReport, SolveStatus

_ROLE_GENERATE = 0
_ROLE_PERTURB = 1
_ROLE_B0 = 2
_MAX_DRAWS = 8
# bytes of basis matrices drawn at a time before they are moved into place
_DRAW_BLOCK_BYTES = 2 << 20

_ROUNDOFF_FLOOR_FACTOR = 100.0
_MAX_RATIO_BASE = 0.5


class Algorithm(str, Enum):
    CAYLEY_FREE = "cayley-free"
    ALG1 = "alg1"
    NEWTON = "newton"


@dataclass(frozen=True)
class ExperimentConfig:
    m: int
    n: int
    beta: float
    mu: float
    seeds: tuple[int, ...]
    algorithm: Algorithm = Algorithm.CAYLEY_FREE
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not (self.m >= self.n >= 1):
            raise ValueError("require m >= n >= 1")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        if not (0.0 <= self.mu < 1.0):
            raise ValueError("mu must lie in [0, 1)")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tol=self.tol, max_iter=self.max_iter)


@dataclass
class TrialResult:
    """Outcome of one seed: a solve report, or the error that prevented one."""

    seed: int
    status: str
    iterations: int = 0
    total_ms: float = 0.0
    achieved_mu: float | None = None
    root_rate: float | None = None
    report: SolveReport | None = None
    error: str | None = None


@dataclass
class ExperimentBundle:
    config: ExperimentConfig
    trials: list[TrialResult] = field(default_factory=list)

    def aggregate(self) -> dict:
        completed = [t for t in self.trials if t.report is not None]
        iters = [t.iterations for t in completed]
        rates = [t.root_rate for t in completed if t.root_rate is not None]
        converged = [t for t in completed if t.status == SolveStatus.CONVERGED.value]
        total = len(self.trials)
        return {
            "trials": total,
            "converged_fraction": (len(converged) / total) if total else 0.0,
            "mean_iterations": statistics.fmean(iters) if iters else None,
            "median_iterations": statistics.median(iters) if iters else None,
            "mean_total_ms": (
                statistics.fmean(t.total_ms for t in completed) if completed else None
            ),
            "mean_root_rate": statistics.fmean(rates) if rates else None,
        }


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _draw_instance(draw, seed: int, min_gap: float) -> tuple[IsvpInstance, np.ndarray]:
    """Build an instance from ``draw(rng) -> (operator, c*)``.

    If the spectrum of A(c*) violates the gap requirement the draw is
    retried on a fresh derived stream; for random draws that is
    practically unreachable, and ``DegenerateDraw`` is raised only after
    ``_MAX_DRAWS`` failures.
    """
    for attempt in range(_MAX_DRAWS):
        operator, c_star = draw(_rng(seed, _ROLE_GENERATE, attempt))
        try:
            sigma = np.linalg.svd(operator.evaluate(c_star), compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"SVD did not converge: {exc}") from exc
        try:
            return make_instance(operator, sigma, min_gap=min_gap), c_star
        except (DuplicateSigma, NonpositiveSigma):
            pass
    raise DegenerateDraw(f"no valid spectrum after {_MAX_DRAWS} draws for seed {seed}")


def generate_instance(
    m: int, n: int, seed: int, min_gap: float = DEFAULT_MIN_GAP
) -> tuple[IsvpInstance, np.ndarray]:
    """Draw one random instance and its generating vector c*."""

    def draw(rng):
        # A_0..A_n row-major, a few matrices at a time, then c* from the same stream
        rows = np.empty((m, n + 1, n))
        step = max(1, _DRAW_BLOCK_BYTES // (m * n * 8))
        for k in range(0, n + 1, step):
            chunk = rng.random((min(step, n + 1 - k), m, n))
            rows[:, k : k + len(chunk)] = chunk.transpose(1, 0, 2)
        return DenseBasis(rows), rng.random(n)

    return _draw_instance(draw, seed, min_gap)


def generate_toeplitz_instance(
    m: int, n: int, seed: int, min_gap: float = DEFAULT_MIN_GAP
) -> tuple[IsvpInstance, np.ndarray]:
    """Structured alternative: A_0 = 0 and A_k the k-th symmetric Toeplitz
    shift (A_1 = I), zero-padded to m x n.  Only c* is random.  The
    instance keeps the O(n) Toeplitz form of the basis."""
    operator = ToeplitzBasis(m, n)
    return _draw_instance(lambda rng: (operator, rng.random(n)), seed, min_gap)


def perturb_c_star(c_star: np.ndarray, beta: float, seed: int) -> np.ndarray:
    """Perturb each entry uniformly on [-max_j|c*_j| beta, +max_j|c*_j| beta]."""
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    c_star = np.asarray(c_star, dtype=float)
    radius = float(np.max(np.abs(c_star))) * beta
    rng = _rng(seed, _ROLE_PERTURB)
    return c_star + rng.uniform(-radius, radius, c_star.size)


def build_B0(J0: np.ndarray, mu: float, seed: int) -> np.ndarray:
    """Construct B_0 with ||I - B_0 J_0||_2 equal to mu.

    mu = 0 returns the dense LU inverse of J_0.  For mu > 0 the inverse is
    premultiplied by I + P where P is a seeded Gaussian matrix rescaled so
    its 2-norm is exactly mu, which makes I - B_0 J_0 = -P up to roundoff.
    """
    if not (0.0 <= mu < 1.0):
        raise ValueError("mu must lie in [0, 1)")
    try:
        B_inv = np.linalg.inv(J0)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"J0 is singular: {exc}") from exc
    if mu == 0.0:
        return B_inv
    n = J0.shape[0]
    P = _rng(seed, _ROLE_B0).standard_normal((n, n))
    P *= mu / np.linalg.norm(P, 2)
    return (np.eye(n) + P) @ B_inv


def residual_log_ratios(d) -> list[float]:
    """Valid successive exponent ratios log d_{k+1} / log d_k.

    A ratio is kept only when the base residual d_k is at most 1/2 (so the
    logarithm in the denominator is bounded away from zero) and both
    residuals sit above the roundoff floor of 100 eps times the largest
    residual in the sequence.
    """
    d = np.asarray(d, dtype=float)
    if d.size < 2:
        return []
    floor = _ROUNDOFF_FLOOR_FACTOR * np.finfo(float).eps * float(d.max())
    ratios = []
    for k in range(d.size - 1):
        base, nxt = d[k], d[k + 1]
        if not (floor < base <= _MAX_RATIO_BASE):
            continue
        if not (floor < nxt):
            continue
        ratios.append(float(np.log(nxt) / np.log(base)))
    return ratios


def estimate_root_rate(d) -> float:
    """Mean of the valid successive exponent ratios; near 3 on cubically
    convergent traces.  Raises ``InsufficientData`` when fewer than three
    residuals sit below 1 or no ratio survives the filters."""
    d = np.asarray(d, dtype=float)
    if int(np.count_nonzero(d < 1.0)) < 3:
        raise InsufficientData("need at least 3 residuals below 1")
    ratios = residual_log_ratios(d)
    if not ratios:
        raise InsufficientData("no usable residual pairs above the roundoff floor")
    return float(np.mean(ratios))


def run_solver(
    algorithm: Algorithm,
    instance: IsvpInstance,
    c0,
    config: SolverConfig,
    mu: float,
    seed: int,
    c_star=None,
) -> tuple[SolveReport, float | None]:
    """Solve from c0 with one algorithm; return the report and, for the
    Cayley-free method, the achieved ||I - B_0 J_0||_2.

    The Cayley-free B_0 comes from :func:`build_B0` with ``mu`` and
    ``seed``, applied to the J_0 that initialization computes, and its
    construction counts towards the solve time.
    """
    if algorithm is Algorithm.ALG1:
        return alg1_solve(instance, c0, config, c_star=c_star), None
    if algorithm is Algorithm.NEWTON:
        return newton_exact_solve(instance, c0, config, c_star=c_star), None
    t_start = time.perf_counter()
    state = cayley_free.initialize(instance, c0)
    state.B = build_B0(state.J, mu, seed)
    report = cayley_free._iterate(cayley_free.outer_step, state, instance, config, c_star, t_start)
    achieved_mu = float(np.linalg.norm(np.eye(instance.n) - state.B @ state.J, 2))
    return report, achieved_mu


def run_trial(config: ExperimentConfig, seed: int) -> TrialResult:
    """Generate, perturb, initialize and solve one seed of a sweep."""
    try:
        instance, c_star = generate_instance(config.m, config.n, seed)
        c0 = perturb_c_star(c_star, config.beta, seed)
        report, achieved_mu = run_solver(
            config.algorithm, instance, c0, config.solver_config(), config.mu, seed, c_star
        )
    except IsvpError as exc:
        return TrialResult(
            seed=seed,
            status=f"error:{type(exc).__name__}",
            error=str(exc),
        )
    try:
        root_rate = estimate_root_rate(report.residuals)
    except InsufficientData:
        root_rate = None
    return TrialResult(
        seed=seed,
        status=report.status.value,
        iterations=report.iterations,
        total_ms=report.total_ms,
        achieved_mu=achieved_mu,
        root_rate=root_rate,
        report=report,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentBundle:
    """Run every seed of the sweep; per-seed failures become per-seed
    statuses instead of aborting the batch."""
    bundle = ExperimentBundle(config=config)
    for seed in config.seeds:
        bundle.trials.append(run_trial(config, seed))
    return bundle


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".5e")


def trace_rows(bundle: ExperimentBundle) -> list[list[str]]:
    """Flatten a bundle into trace CSV rows (header excluded)."""
    rows = []
    algorithm = bundle.config.algorithm.value
    for trial in bundle.trials:
        if trial.report is None:
            continue
        for rec in trial.report.records:
            rows.append(
                [
                    str(trial.seed),
                    algorithm,
                    str(rec.k),
                    _fmt(rec.d),
                    _fmt(rec.cond_j),
                    _fmt(rec.err_c),
                    _fmt(rec.wall_ms),
                ]
            )
    return rows


TRACE_HEADER = ["seed", "algorithm", "k", "d_k", "cond_J", "err_c", "wall_ms"]


def summary_dict(bundle: ExperimentBundle) -> dict:
    cfg = bundle.config
    return {
        "schema": "isvp-summary/1",
        "config": {
            "m": cfg.m,
            "n": cfg.n,
            "beta": cfg.beta,
            "mu": cfg.mu,
            "seeds": list(cfg.seeds),
            "algorithm": cfg.algorithm.value,
            "tol": cfg.tol,
            "max_iter": cfg.max_iter,
        },
        "trials": [
            {
                "seed": t.seed,
                "status": t.status,
                "iterations": t.iterations,
                "total_ms": t.total_ms,
                "achieved_mu": t.achieved_mu,
                "root_rate": t.root_rate,
                "error": t.error,
            }
            for t in bundle.trials
        ],
        "aggregate": bundle.aggregate(),
        "library_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def emit_reports(bundle: ExperimentBundle, formats, out_dir) -> list[Path]:
    """Write trace.csv and/or summary.json under ``out_dir``.

    Bytes are deterministic for a fixed configuration apart from the
    wall-time columns and the summary timestamp.
    """
    out_dir = Path(out_dir)
    written: list[Path] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if "csv" in formats:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(TRACE_HEADER)
            writer.writerows(trace_rows(bundle))
            path = out_dir / "trace.csv"
            path.write_text(buf.getvalue())
            written.append(path)
        if "json" in formats:
            path = out_dir / "summary.json"
            path.write_text(json.dumps(summary_dict(bundle), indent=2) + "\n")
            written.append(path)
    except OSError as exc:
        raise IoFailure(f"cannot write reports under {out_dir}: {exc}") from exc
    return written
