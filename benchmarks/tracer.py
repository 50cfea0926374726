"""In-memory span tracer for the isvp benchmark.

Spans are recorded from the benchmark's side: while a :class:`Tracer` is
installed, the public functions of ``isvp`` are replaced by timing
wrappers in every module namespace the solvers look them up in at call
time (``isvp.core``, ``isvp.cayley_free``, ``isvp.baselines``,
``isvp.harness``).  Nothing in ``src/isvp`` is edited.

A span is ``[name, start, end, parent, trial]``; ``parent`` indexes the
enclosing span (or -1) and ``trial`` tags the solve or set-up the span
belongs to.  Self time is a span's duration minus the time its direct
children cover; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# (home module, function) pairs that get a span, named "<module>.<function>".
CORE_FUNCTIONS = (
    "evaluate_A",
    "full_svd",
    "approx_jacobian",
    "generalized_residual_vector",
    "residual_d",
)
CAYLEY_FREE_FUNCTIONS = (
    "solve",
    "initialize",
    "outer_step",
    "correction_matrices",
    "multiplicative_refine",
    "chebyshev_update",
)
BASELINE_FUNCTIONS = (
    "alg1_solve",
    "alg1_outer_step",
    "alg1_skew_pair",
    "cayley_orthogonalize",
    "alg1_offset_vector",
    "newton_exact_solve",
)
HARNESS_FUNCTIONS = (
    "build_B0",
    "generate_instance",
    "generate_toeplitz_instance",
    "perturb_c_star",
)


class Tracer:
    """Collects spans while installed; aggregates self time per trial kind."""

    def __init__(self, isvp_modules: dict):
        self._modules = isvp_modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trial = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.trial])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def _targets(self):
        """Yield (namespace, attribute, span name) for every rebinding.

        Core kernels are rebound where the solvers import them, not in
        ``harness``: the instance generators' own SVD stays part of their
        self time, which is what the set-up metrics report.
        """
        core = self._modules["core"]
        cf = self._modules["cayley_free"]
        base = self._modules["baselines"]
        harness = self._modules["harness"]
        groups = (
            ("core", core, CORE_FUNCTIONS, (core, cf, base)),
            ("cayley_free", cf, CAYLEY_FREE_FUNCTIONS, (cf, base)),
            ("baselines", base, BASELINE_FUNCTIONS, (base,)),
            ("harness", harness, HARNESS_FUNCTIONS, (harness,)),
        )
        for label, home, names, namespaces in groups:
            for fname in names:
                original = getattr(home, fname)
                for ns in namespaces:
                    if getattr(ns, fname, None) is original:
                        yield ns, fname, f"{label}.{fname}"

    @contextmanager
    def installed(self, trial):
        """Trace every call into isvp made inside the block, tagged ``trial``."""
        saved = []
        wrappers = {}
        self.trial = trial
        try:
            for ns, fname, span_name in self._targets():
                original = getattr(ns, fname)
                if span_name not in wrappers:
                    wrappers[span_name] = self._wrap(span_name, original)
                saved.append((ns, fname, original))
                setattr(ns, fname, wrappers[span_name])
            yield
        finally:
            for ns, fname, original in saved:
                setattr(ns, fname, original)
            self.trial = None

    def self_times(self):
        """Return {(kind, span name): [calls, self seconds]} and the set of
        trials seen per kind, where a trial is tagged ``(kind, ...)``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, trial in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        trials = defaultdict(set)
        for (name, start, end, parent, trial), covered in zip(self.spans, child):
            kind = trial[0]
            entry = totals[(kind, name)]
            entry[0] += 1
            entry[1] += (end - start) - covered
            trials[kind].add(trial)
        return totals, trials
