"""Experiment harness: seeded instances, sweeps, rate estimation, reports.

Random instances draw every entry of A_0..A_n and of the generating
vector c* uniformly from [0, 1) and set the targets to the singular
values of A(c*).  The PRNG is numpy's PCG64; each role (generation,
perturbation, B_0 noise) derives an independent stream from the trial
seed via ``SeedSequence(entropy=seed, spawn_key=(role, ...))``, with the
draw order fixed as A_0 row-major, then A_1..A_n, then c*.  Each seed is
drawn once: a spectrum with a gap at or below ``core.MIN_GAP`` raises
``DegenerateDraw`` rather than being redrawn.  Identical configurations
therefore reproduce identical traces apart from wall times.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__, baselines, cayley_free
from .cayley_free import SolverConfig, _iterate
from .core import (
    DenseBasis, IsvpInstance, ToeplitzBasis, _check_shape, _is_integer, _is_real, _real_array,
    jacobian_inverse, make_instance,
)
from .errors import DegenerateDraw, InputError, IsvpError, NumericalError
from .report import SolveReport, SolveStatus

_ROLE_GENERATE = 0
_ROLE_PERTURB = 1
_ROLE_B0 = 2

_ROUNDOFF_FLOOR_FACTOR = 100.0
_MAX_RATIO_BASE = 0.5


def _check_beta(beta: float) -> float:
    if not _is_real(beta):
        raise ValueError("beta must be a real number")
    if not (0.0 <= beta < np.inf):
        raise ValueError("beta must be finite and nonnegative")
    return float(beta)


def _check_mu(mu: float) -> float:
    if not _is_real(mu):
        raise ValueError("mu must be a real number")
    if not (0.0 <= mu < 1.0):
        raise ValueError("mu must lie in [0, 1)")
    return float(mu)


def _check_seed(seed: int) -> None:
    if not _is_integer(seed):
        raise ValueError(f"seed {seed!r} is not an integer; seeds must be non-negative integers")
    if seed < 0:
        raise ValueError(f"seed {seed} is negative; seeds must be non-negative integers")


class Algorithm(str, Enum):
    CAYLEY_FREE = "cayley-free"
    ALG1 = "alg1"
    NEWTON = "newton"


# per Algorithm, the (module, name) of start(instance, c0) and step(state, instance),
# looked up when a solve runs, so a function patched into the module is the one that runs
SOLVERS = {
    Algorithm.CAYLEY_FREE: ((cayley_free, "two_step_start"), (cayley_free, "outer_step")),
    Algorithm.ALG1: ((cayley_free, "two_step_start"), (baselines, "alg1_outer_step")),
    Algorithm.NEWTON: ((baselines, "_newton_point"), (baselines, "_newton_step")),
}


def _check_start(algorithm, mu: float) -> Algorithm:
    """The :class:`Algorithm` that ``algorithm`` names, once ``mu`` is
    checked against it: only the Cayley-free start reads a nonzero mu."""
    algorithm = Algorithm(algorithm)
    mu = _check_mu(mu)
    if mu != 0.0 and algorithm is not Algorithm.CAYLEY_FREE:
        raise ValueError(f"{algorithm.value} builds no B_0 from mu; it needs mu = 0")
    return algorithm


@dataclass(frozen=True)
class ExperimentConfig:
    m: int
    n: int
    beta: float
    mu: float
    seeds: tuple[int, ...]
    algorithm: Algorithm = Algorithm.CAYLEY_FREE
    tol: float = SolverConfig.tol
    max_iter: int = SolverConfig.max_iter

    def __post_init__(self):
        seeds = []
        for seed in self.seeds:
            _check_seed(seed)
            if seed in seeds:
                raise ValueError(f"seed {seed} appears more than once")
            seeds.append(int(seed))
        object.__setattr__(self, "seeds", tuple(seeds))
        for name in ("m", "n", "max_iter"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "beta", _check_beta(self.beta))
        object.__setattr__(self, "mu", _check_mu(self.mu))
        if not (self.m >= self.n >= 1):
            raise ValueError("require m >= n >= 1")
        object.__setattr__(self, "algorithm", _check_start(self.algorithm, self.mu))
        # SolverConfig checks tol and max_iter, and stores tol as a float
        object.__setattr__(self, "tol", self.solver_config().tol)

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
    _check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _draw_instance(draw, seed: int) -> tuple[IsvpInstance, np.ndarray]:
    """Build an instance from ``draw(rng) -> (operator, c*)`` on the
    seed's generation stream.

    A spectrum of A(c*) with a gap at or below ``core.MIN_GAP`` raises
    ``DegenerateDraw``; for random draws that is practically unreachable.
    """
    operator, c_star = draw(_rng(seed, _ROLE_GENERATE, 0))
    try:
        sigma = np.linalg.svd(operator.evaluate(c_star), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    try:
        return make_instance(operator, sigma), c_star
    except InputError as exc:
        raise DegenerateDraw(f"degenerate spectrum for seed {seed}: {exc}") from exc


def generate_instance(m: int, n: int, seed: int) -> tuple[IsvpInstance, np.ndarray]:
    """Draw one random instance and its generating vector c*."""
    m, n = _check_shape(m, n)

    def draw(rng):
        # A_0..A_n row-major, one matrix at a time through one buffer, then c*
        # from the same stream
        rows = np.empty((m, n + 1, n))
        buf = np.empty((m, n))
        for k in range(n + 1):
            rows[:, k] = rng.random(out=buf)
        return DenseBasis(rows), rng.random(n)

    return _draw_instance(draw, seed)


def generate_toeplitz_instance(m: int, n: int, seed: int) -> tuple[IsvpInstance, np.ndarray]:
    """Structured alternative: A_0 = 0 and A_k the k-th symmetric Toeplitz
    shift (A_1 = I), zero-padded to m x n.  Only c* is random.  The
    instance keeps the O(n) Toeplitz form of the basis, whose A(c) is its
    n x n block (r = n), and sigma* is the spectrum of that block.
    :func:`core.save_instance` writes it in that form."""
    operator = ToeplitzBasis(m, n)
    return _draw_instance(lambda rng: (operator, rng.random(n)), seed)


def perturb_c_star(c_star: np.ndarray, beta: float, seed: int) -> np.ndarray:
    """Perturb each entry uniformly on [-max_j|c*_j| beta, +max_j|c*_j| beta]."""
    beta = _check_beta(beta)
    c_star = _real_array("c*", c_star)
    radius = float(np.max(np.abs(c_star))) * beta
    if not np.isfinite(2.0 * radius):
        raise ValueError(f"perturbation radius {radius:.3g} is too large")
    rng = _rng(seed, _ROLE_PERTURB)
    return c_star + rng.uniform(-radius, radius, c_star.size)


def _apply_mu(B_inv, mu: float, seed: int):
    """The inverse ``B_inv`` of J_0 premultiplied by I + P, P a seeded Gaussian
    matrix rescaled to 2-norm ``mu``, so that I - B_0 J_0 = -P up to
    roundoff; ``B_inv`` itself at mu = 0."""
    if mu == 0.0:
        return B_inv
    n = B_inv.shape[0]
    P = _rng(seed, _ROLE_B0).standard_normal((n, n))
    P *= mu / np.linalg.norm(P, 2)
    return (np.eye(n) + P) @ B_inv


def build_B0(J0: np.ndarray, mu: float, seed: int) -> np.ndarray:
    """B_0 with ||I - B_0 J_0||_2 equal to mu: :func:`_apply_mu` of the LU
    inverse :func:`core.jacobian_inverse` of J_0, the inverse itself at mu = 0."""
    _check_mu(mu)
    _check_seed(seed)
    return _apply_mu(jacobian_inverse(J0), mu, seed)


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


def estimate_root_rate(d) -> float | None:
    """Mean of the valid successive exponent ratios; near 3 on cubically
    convergent traces.  ``None`` when fewer than three residuals sit
    below 1 or no ratio survives the filters."""
    d = np.asarray(d, dtype=float)
    if int(np.count_nonzero(d < 1.0)) < 3:
        return None
    ratios = residual_log_ratios(d)
    if not ratios:
        return None
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

    ``algorithm`` is an :class:`Algorithm` or its value, and its
    :data:`SOLVERS` row names the start and the step.  ``mu`` must lie in
    [0, 1), and be 0 for alg1 and newton, which build no B_0 from it.
    The start's B_0 gets ``mu`` and ``seed`` through :func:`_apply_mu`
    (at mu = 0 it stays the exact inverse of J_0, and Newton's stays
    ``None``), and the start counts towards the solve time.
    """
    algorithm = _check_start(algorithm, mu)
    _check_seed(seed)
    (start_module, start), (step_module, step) = SOLVERS[algorithm]
    t_start = time.perf_counter()
    state = getattr(start_module, start)(instance, c0)
    state.B = _apply_mu(state.B, mu, seed)
    report = _iterate(getattr(step_module, step), state, instance, config, c_star, t_start)
    if algorithm is not Algorithm.CAYLEY_FREE:
        return report, None
    return report, float(np.linalg.norm(np.eye(instance.n) - state.B @ state.J, 2))


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
    return TrialResult(
        seed=seed,
        status=report.status.value,
        iterations=report.iterations,
        total_ms=report.total_ms,
        achieved_mu=achieved_mu,
        root_rate=estimate_root_rate(report.residuals),
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
    """Flatten a bundle into trace CSV rows (header excluded); cond_J is
    empty for a record without a J_k, and err_c for one without c*."""
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
    return {
        "schema": "isvp-summary/1",
        "config": asdict(bundle.config),
        "trials": [{k: v for k, v in vars(t).items() if k != "report"} for t in bundle.trials],
        "aggregate": bundle.aggregate(),
        "library_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def emit_reports(bundle: ExperimentBundle, out_dir) -> list[Path]:
    """Write trace.csv and summary.json under ``out_dir``.

    Bytes are deterministic for a fixed configuration apart from the
    wall-time columns and the summary timestamp.
    """
    out_dir = Path(out_dir)
    trace, summary = out_dir / "trace.csv", out_dir / "summary.json"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    writer.writerows(trace_rows(bundle))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        trace.write_text(buf.getvalue())
        summary.write_text(json.dumps(summary_dict(bundle), indent=2) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write reports under {out_dir}: {exc}") from exc
    return [trace, summary]
