"""isvp benchmark: time-to-solution, convergence and memory per solver.

Usage (from the repository root):

    python3 benchmarks/run.py --workload dense-large --seed 1 --seconds 30 --trace 0

One run measures one workload in its own process.  For each seed of the
workload it builds the instance and the starts (timed as set-up), then
solves every (start, algorithm) case of that seed in rounds, in an order
shuffled by ``--seed``, and checks every solve that reports convergence
against an independent SVD.  ``--base`` selects the instance seeds
(default 1, the ROADMAP grid; 1001 is the held-out base for checking
later claims).  A speed probe runs after every trial, and every time is
reported at reference speed (see ``probe.py``).  ``--trace 1`` instead
runs alternate untraced and traced rounds and reports per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a
converged solve fails the check.
See ``benchmarks/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from probe import SpeedProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
ALGORITHMS = ("cf", "alg1", "newton")
# enough builds per seed for a median set-up time
MIN_ROUNDS = 3
# A converged solve passes the check when every singular value of A(c)
# matches its target to this relative error (worst seen: about 2e-13).
GATE_RTOL = 1e-9
HELD_OUT_BASE = 1001


@dataclass(frozen=True)
class Workload:
    family: str  # "dense" or "toeplitz"
    m: int
    n: int
    n_seeds: int
    betas: tuple[float, ...]
    blas_threads: int
    probe_depth: int  # basis matrices in the speed probe
    probe_ref_ms: float  # probe time that defines reference speed

    def cases(self):
        """(start index, algorithm) pairs solved on every seed."""
        return [(b, alg) for b in range(len(self.betas)) for alg in ALGORITHMS]


WORKLOADS = {
    "dense-large": Workload("dense", 400, 200, 3, (1e-3,), 2, 16, 36.0),
    "dense-sweep": Workload("dense", 60, 30, 40, (1e-3, 1e-2), 1, 30, 0.8),
    "toeplitz": Workload("toeplitz", 240, 160, 6, (1e-5,), 2, 16, 15.0),
}
# Same structure at a size that runs in about a second, for the smoke test.
TINY = {
    "dense-large": Workload("dense", 16, 8, 2, (1e-3,), 2, 4, 0.1),
    "dense-sweep": Workload("dense", 10, 5, 3, (1e-3, 1e-2), 1, 5, 0.1),
    "toeplitz": Workload("toeplitz", 12, 8, 2, (1e-5,), 2, 4, 0.1),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1, help="shuffles the trial order")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--base", type=int, default=1, help="first instance seed")
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


# ---------------------------------------------------------------- statistics


def weighted_percentile(samples, q):
    """Percentile q of (value, weight) pairs.

    Each sample sits at the midpoint of its cumulative weight and values
    are interpolated linearly between them, so with equal weights p50 is
    the ordinary median.
    """
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    target = total * q / 100.0
    acc = 0.0
    prev = None
    for value, weight in ordered:
        mid = acc + weight / 2.0
        if mid >= target:
            if prev is None:
                return value
            p_mid, p_value = prev
            return p_value + (value - p_value) * (target - p_mid) / (mid - p_mid)
        prev = (mid, value)
        acc += weight
    return ordered[-1][0]


def tail_percentile(count: int) -> int:
    """Highest whole percentile (at most 90) with at least 10 of ``count``
    samples beyond it; 50 when there are too few samples for any tail."""
    if count <= 20:
        return 50
    return min(90, int(100.0 * (1.0 - 10.0 / count)))


# ------------------------------------------------------------------ environment


def _command_output(cmd) -> str | None:
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def environment(np, name: str, wl: Workload) -> dict:
    caches = {}
    for line in (_command_output(["lscpu"]) or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    sha = (_command_output(["git", "rev-parse", "HEAD"]) or "unknown").strip()
    return {
        "workload": name,
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "l2_cache": caches.get("L2 cache", "unknown"),
        "l3_cache": caches.get("L3 cache", "unknown"),
        "blas_threads": wl.blas_threads,
        "m": wl.m,
        "n": wl.n,
        "basis_bytes": (wl.n + 1) * wl.m * wl.n * 8,
        "bytes_note": "bytes moved are computed from array sizes, not measured",
    }


# ---------------------------------------------------------------------- bench


@dataclass
class Trial:
    alg: str
    case: int  # index into the workload's global case list
    traced: bool
    seconds: float
    status: str  # converged | diverged | max_iterations | error
    iterations: int
    verified: bool
    probe: int = -1  # index of the speed-probe sample taken right after it
    speed: float = 1.0  # scales seconds to reference speed (see probe.py)


class Bench:
    def __init__(self, isvp, np, wl: Workload, args):
        self.isvp = isvp
        self.np = np
        self.wl = wl
        self.args = args
        self.rng = random.Random(args.seed)
        self.tracer = None
        if args.trace:
            self.tracer = Tracer(
                {k: getattr(isvp, k) for k in ("core", "cayley_free", "baselines", "harness")}
            )
        self.probe = SpeedProbe(np, wl.m, wl.n, wl.probe_depth, wl.probe_ref_ms)
        self.trials: list[Trial] = []
        self.setup_times: dict[int, list[float]] = {}  # seed -> build seconds
        self.gate_checked = 0
        self.gate_failed = 0
        self.gate_worst = 0.0
        self._traced_count = 0

    # -- set-up
    def _build(self, seed):
        h = self.isvp.harness
        if self.wl.family == "dense":
            instance, c_star = h.generate_instance(self.wl.m, self.wl.n, seed)
        else:
            instance, c_star = h.generate_toeplitz_instance(self.wl.m, self.wl.n, seed)
        starts = [h.perturb_c_star(c_star, beta, seed) for beta in self.wl.betas]
        return instance, c_star, starts

    def setup(self, seed, round_no):
        """Build one seed's instance and starts, timed as set-up."""
        t0 = time.perf_counter()
        if self.tracer is not None:
            with self.tracer.installed(("setup", seed, round_no)):
                built = self._build(seed)
        else:
            built = self._build(seed)
        self.setup_times.setdefault(seed, []).append(time.perf_counter() - t0)
        return built

    # -- one solve
    def _solve(self, alg, instance, c0, c_star, seed):
        isvp = self.isvp
        if alg == "cf":
            core = isvp.core
            factors = core.full_svd(core.evaluate_A(instance, c0))
            J0 = core.approx_jacobian(factors.U, factors.V, instance)
            B0 = isvp.harness.build_B0(J0, mu=0.0, seed=seed)
            return isvp.cayley_free.solve(instance, c0, B0, c_star=c_star)
        if alg == "alg1":
            return isvp.baselines.alg1_solve(instance, c0, c_star=c_star)
        return isvp.baselines.newton_exact_solve(instance, c0, c_star=c_star)

    def _verify(self, instance, c_final) -> bool:
        np = self.np
        sigma = np.linalg.svd(self.isvp.core.evaluate_A(instance, c_final), compute_uv=False)
        star = instance.sigma_star
        rel = float(np.max(np.abs(sigma - star)) / np.max(star))
        self.gate_checked += 1
        self.gate_worst = max(self.gate_worst, rel)
        if not rel <= GATE_RTOL:
            self.gate_failed += 1
            return False
        return True

    def trial(self, case_id, alg, instance, c0, c_star, seed, traced):
        IsvpError = self.isvp.errors.IsvpError
        t0 = time.perf_counter()
        try:
            if traced:
                self._traced_count += 1
                with self.tracer.installed((alg, self._traced_count)):
                    report = self._solve(alg, instance, c0, c_star, seed)
            else:
                report = self._solve(alg, instance, c0, c_star, seed)
        except IsvpError:
            result = Trial(alg, case_id, traced, time.perf_counter() - t0, "error", 0, False)
        else:
            elapsed = time.perf_counter() - t0
            status = report.status.value
            verified = status == "converged" and self._verify(instance, report.c_final)
            result = Trial(alg, case_id, traced, elapsed, status, report.iterations, verified)
        self.probe.sample()
        result.probe = len(self.probe.samples_ms) - 1
        self.trials.append(result)

    # -- the measured loop
    def run(self):
        """Measure rounds until --seconds is used up (at least MIN_ROUNDS).

        A round builds each seed's instance in turn, solves every case of
        that seed once and releases the instance, so one instance is
        alive at a time and each case's repeats spread over the whole
        measuring window.  --seed shuffles the seed and case order.
        """
        wl, args = self.wl, self.args
        seeds = [args.base + i for i in range(wl.n_seeds)]
        cases = wl.cases()
        modes = (False, True) if self.tracer is not None else (False,)
        # one untimed solve per algorithm: BLAS threads, lazy imports and
        # first-touch page faults land here, not in the first trial
        instance, c_star, starts = self._build(seeds[0])
        for alg in ALGORITHMS:
            try:
                self._solve(alg, instance, starts[0], c_star, seeds[0])
            except self.isvp.errors.IsvpError:
                pass
            self.probe.sample()
        self.probe.samples_ms.clear()
        instance = starts = None
        t_start = time.perf_counter()
        self.rounds = 0
        while True:
            seed_order = list(range(len(seeds)))
            self.rng.shuffle(seed_order)
            for s_idx in seed_order:
                seed = seeds[s_idx]
                instance, c_star, starts = self.setup(seed, self.rounds)
                order = list(range(len(cases)))
                self.rng.shuffle(order)
                for traced in modes if self.rounds % 2 == 0 else modes[::-1]:
                    for k in order:
                        start, alg = cases[k]
                        self.trial(
                            s_idx * len(cases) + k, alg, instance,
                            starts[start], c_star, seed, traced,
                        )
                instance = starts = None
            self.rounds += 1
            used = time.perf_counter() - t_start
            if self.rounds >= MIN_ROUNDS and used * (self.rounds + 1) / self.rounds > args.seconds:
                break
        self.measure_seconds = time.perf_counter() - t_start
        for t in self.trials:
            t.speed = self.probe.local_factor(t.probe)
        self.n_cases = len(seeds) * len(cases)


# -------------------------------------------------------------------- metrics


def _case_groups(trials, alg):
    groups = {}
    for t in trials:
        if t.alg == alg:
            groups.setdefault(t.case, []).append(t)
    return groups


def ttsol(trials, alg, scaled=True):
    """Times (ms) of the converged, verified trials of each case, at
    reference speed unless ``scaled`` is false."""
    times = []
    for group in _case_groups(trials, alg).values():
        good = [t.seconds * 1e3 * (t.speed if scaled else 1.0) for t in group if t.verified]
        if good:
            times.append(good)
    return times


def ttsol_p50(times):
    """Median over cases of each case's median time: repeats only remove
    timing noise, and every case counts once."""
    return statistics.median(statistics.median(g) for g in times) if times else None


def ttsol_tail(times, q):
    """Percentile q of all trial times, each case carrying equal weight."""
    samples = [(t, 1.0 / len(g)) for g in times for t in g]
    return weighted_percentile(samples, q) if samples else None


def _p50_and_tail(times, q_tail):
    p50 = ttsol_p50(times)
    return p50, (p50 if q_tail == 50 else ttsol_tail(times, q_tail))


def end_to_end_metrics(bench: Bench):
    """Times are at reference speed (see probe.py); each note also gives
    the time as measured."""
    untraced = [t for t in bench.trials if not t.traced]
    setup = sum(statistics.median(v) for v in bench.setup_times.values())
    out = {
        "setup_s": (
            setup * bench.probe.factor(), "s",
            f"{len(bench.setup_times)} seeds, each the median of {bench.rounds} builds;"
            f" measured {setup:.6g}",
        )
    }
    for alg in ALGORITHMS:
        groups = _case_groups(untraced, alg)
        times = ttsol(untraced, alg)
        count = sum(len(g) for g in times)
        # from the trials every run is sure to have, so a workload's tail
        # percentile does not change with how many rounds fit
        q_tail = tail_percentile(len(times) * MIN_ROUNDS)
        p50, tail = _p50_and_tail(times, q_tail)
        raw_p50, raw_tail = _p50_and_tail(ttsol(untraced, alg, scaled=False), q_tail)
        note = f"{count} converged trials of {len(times)} cases"
        out[f"{alg}.ttsol_ms.p50"] = (
            p50, "ms", f"median of case medians, {note}; measured {raw_p50:.6g}",
        )
        out[f"{alg}.ttsol_ms.p90"] = (
            tail, "ms",
            (f"p50 of {note}: too few for a tail" if q_tail == 50 else f"p{q_tail} of {note}")
            + f"; measured {raw_tail:.6g}",
        )
        fracs = [sum(t.verified for t in g) / len(g) for g in groups.values()]
        out[f"{alg}.converged_frac"] = (
            statistics.fmean(fracs), "fraction",
            f"{sum(fracs):g} of {len(fracs)} cases, {len(untraced) // len(ALGORITHMS)} trials",
        )
        iters = [
            statistics.fmean(t.iterations for t in g if t.verified)
            for g in groups.values() if any(t.verified for t in g)
        ]
        out[f"{alg}.iters_mean"] = (
            statistics.fmean(iters) if iters else None, "steps",
            f"mean over {len(iters)} converged cases",
        )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = (rss_mb, "MB", "ru_maxrss of this process")
    return out


def convergence_by_start(bench: Bench):
    """One line per (start, algorithm): cases converged and verified."""
    cases = bench.wl.cases()
    lines = []
    for b_idx, beta in enumerate(bench.wl.betas):
        counts = []
        for alg in ALGORITHMS:
            groups = _case_groups(bench.trials, alg)
            mine = [g for case, g in groups.items() if cases[case % len(cases)][0] == b_idx]
            ok = sum(all(t.verified for t in g) for g in mine)
            counts.append(f"{alg} {ok}/{len(mine)}")
        lines.append(f"converged at beta={beta:g}: " + ", ".join(counts))
    return lines


SPAN_FUNCTIONS = {
    "cf": [
        "core.evaluate_A", "core.full_svd", "core.approx_jacobian",
        "core.generalized_residual_vector", "core.residual_d", "harness.build_B0",
        "cayley_free.solve", "cayley_free.initialize", "cayley_free.outer_step",
        "cayley_free.correction_matrices", "cayley_free.multiplicative_refine",
        "cayley_free.chebyshev_update",
    ],
    "alg1": [
        "core.evaluate_A", "core.full_svd", "core.approx_jacobian", "core.residual_d",
        "baselines.alg1_solve", "baselines.alg1_outer_step", "baselines.alg1_skew_pair",
        "baselines.cayley_orthogonalize", "baselines.alg1_offset_vector",
        "cayley_free.chebyshev_update",
    ],
    "newton": [
        "core.evaluate_A", "core.full_svd", "core.approx_jacobian", "core.residual_d",
        "baselines.newton_exact_solve",
    ],
    "setup": [
        "harness.generate_instance", "harness.generate_toeplitz_instance",
        "harness.perturb_c_star",
    ],
}


def per_layer_metrics(bench: Bench):
    wl = bench.wl
    m, n = wl.m, wl.n
    totals, trials = bench.tracer.self_times()
    speed = bench.probe.factor()
    out = {}
    for kind, names in SPAN_FUNCTIONS.items():
        if kind == "setup":
            # per pass over the workload's seeds, as setup_s counts it
            per, unit, note = bench.rounds, "pass", f"mean over {bench.rounds} traced passes"
        else:
            per = len(trials[kind])
            unit, note = "trial", f"mean over {per} traced trials"
        for name in names:
            calls, self_s = totals.get((kind, name), (0, 0.0))
            out[f"{kind}.{name}.calls"] = (calls / per, f"calls/{unit}", note)
            out[f"{kind}.{name}.self_ms"] = (
                self_s * 1e3 / per * speed, f"ms/{unit}", f"{note}, at reference speed",
            )
    out["core.approx_jacobian.flop"] = (2 * m * n**3, "flop/call", "computed: 2 m n^3")
    out["core.approx_jacobian.bytes"] = (n * m * n * 8, "B/call", "computed: basis A_1..A_n read once")
    out["core.evaluate_A.bytes"] = ((n + 2) * m * n * 8, "B/call", "computed: A_0..A_n read, A(c) written")
    for alg in ALGORITHMS:
        groups = _case_groups(bench.trials, alg)
        firsts = [g[0] for g in groups.values()]
        useful = sum(t.iterations for t in firsts if t.verified)
        steps = sum(t.iterations for t in firsts)
        out[f"{alg}.steps_useful_frac"] = (
            useful / steps if steps else 0.0, "fraction", f"{useful} of {steps} outer steps",
        )
        for status, name in (("diverged", "diverged"), ("max_iterations", "max_iterations"),
                             ("error", "errors")):
            k = sum(t.status == status for t in firsts)
            out[f"{alg}.{name}"] = (k, "count", f"of {len(firsts)} cases")
    plain = ttsol_p50(ttsol([t for t in bench.trials if not t.traced], "cf"))
    traced = ttsol_p50(ttsol([t for t in bench.trials if t.traced], "cf"))
    frac = (traced - plain) / plain if plain and traced else None
    out["trace_overhead_frac"] = (frac, "fraction", "traced vs untraced cf.ttsol_ms.p50")
    return out


# ----------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = (TINY if args.tiny else WORKLOADS)[args.workload]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(wl.blas_threads)
    if not (ROOT / "src" / "isvp" / "__init__.py").is_file():
        print(f"error: no isvp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np  # after the BLAS thread count is set

    import isvp
    import isvp.baselines
    import isvp.cayley_free
    import isvp.core
    import isvp.errors
    import isvp.harness

    env = environment(np, args.workload, wl)
    bench = Bench(isvp, np, wl, args)
    with np.errstate(all="ignore"):
        bench.run()
    env.update(
        seed=args.seed, base=args.base, held_out_base=HELD_OUT_BASE,
        rounds=bench.rounds, cases=bench.n_cases,
        measure_seconds=round(bench.measure_seconds, 3),
        gate_checked=bench.gate_checked, gate_failed=bench.gate_failed,
        gate_worst_rel_err=bench.gate_worst, gate_rtol=GATE_RTOL,
        probe_samples=len(bench.probe.samples_ms),
        probe_median_ms=round(bench.probe.median_ms(), 4),
        probe_reference_ms=bench.probe.reference_ms,
        speed_factor=round(bench.probe.factor(), 4),
    )
    print("env " + json.dumps(env, sort_keys=True))
    metrics = per_layer_metrics(bench) if args.trace else end_to_end_metrics(bench)
    for name, (value, unit, note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<52} {shown:>14} {unit:<12} {note}")
    for line in convergence_by_start(bench):
        print(line)
    print(
        f"correctness gate: {bench.gate_checked} converged solves checked, "
        f"{bench.gate_failed} failed, worst relative error {bench.gate_worst:.2e}"
    )
    attempted = len(bench.trials)
    failed = sum(not t.verified for t in bench.trials)
    result = {
        "correct": bench.gate_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if bench.gate_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
