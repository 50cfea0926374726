"""Trace fingerprint: every ``Algorithm`` on four fixed sets of solves.

The sets are the 60x30 dense grid (seeds 1..40 at beta 1e-3 and 1e-2),
toeplitz 240x160 (seeds 1..6 at beta 1e-5), the held-out 60x30 dense
grid (seeds 1001..1040 at both betas), all at mu = 0, and grid-mu, the
first grid again at mu = 0.3, which only the Cayley-free method reads.
That is 578 solves in all, each run through ``harness.run_solver`` with
the default stopping rule and one BLAS thread.  The committed golden
file ``fingerprint.tsv`` holds one row per solve: set, algorithm, seed,
beta, status, iteration count, d_0 as a hex float and the coarse trace
round(log10 d_k, 1).  Its leading ``#`` lines hold the golden SHA-256
of each set's full traces.

    python tests/fingerprint.py                  # compare with the golden file
    python tests/fingerprint.py --write          # rewrite the golden file
    python tests/fingerprint.py --traces a.json  # also save the full traces
    python tests/fingerprint.py --compare a.json # worst change in d_k against a.json

Every run prints the SHA-256 of the full traces (status, iterations and
every d_k, cond(J_k) and c_final entry as hex floats, with ``null`` for
a record that holds no J_k), over all solves
and over each set, says for each set whether its traces are
bit-identical to the golden ones (by SHA-256; for information only),
prints how many solves converged per set, algorithm and beta, and lists
the rows that differ from the golden file.
``--compare`` reports the worst relative change in d_k where the other
run's d_k is above 1e-8, the worst absolute change in d_k, the worst
change in an entry of c_final and the worst relative change in cond(J_k)
over the records that carry it in both runs, over all solves and again
over the solves that converged in both runs.  It exits 1 when a status
or an iteration count differs, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

# the fingerprint is defined at one BLAS thread; set before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from isvp import harness  # noqa: E402
from isvp.cayley_free import SolverConfig  # noqa: E402
from isvp.errors import IsvpError  # noqa: E402

GOLDEN = HERE / "fingerprint.tsv"
HEADER = ["set", "algorithm", "seed", "beta", "status", "iterations", "d0", "log10_d"]

# below this d_k a relative change measures roundoff at the floor, not the trace
RELATIVE_FLOOR = 1e-8

# (set name, instance generator, m, n, seeds, betas, mu)
SETS = (
    ("grid", harness.generate_instance, 60, 30, range(1, 41), (1e-3, 1e-2), 0.0),
    ("toeplitz", harness.generate_toeplitz_instance, 240, 160, range(1, 7), (1e-5,), 0.0),
    ("held-out", harness.generate_instance, 60, 30, range(1001, 1041), (1e-3, 1e-2), 0.0),
    ("grid-mu", harness.generate_instance, 60, 30, range(1, 41), (1e-3, 1e-2), 0.3),
)


def _coarse(d: float) -> str:
    return format(round(math.log10(d), 1), ".1f") if 0.0 < d < math.inf else str(d)


def run_all() -> list[dict]:
    """Every solve of every set, in a fixed order, as one dict each."""
    solves = []
    for name, generate, m, n, seeds, betas, mu in SETS:
        # alg1 and newton build no B_0 from mu, so a set at mu > 0 is Cayley-free only
        algorithms = list(harness.Algorithm) if mu == 0.0 else [harness.Algorithm.CAYLEY_FREE]
        for beta in betas:
            for seed in seeds:
                instance, c_star = generate(m, n, seed)
                c0 = harness.perturb_c_star(c_star, beta, seed)
                for algorithm in algorithms:
                    key = [name, algorithm.value, str(seed), repr(beta)]
                    try:
                        report, _ = harness.run_solver(
                            algorithm, instance, c0, SolverConfig(), mu, seed, c_star
                        )
                    except IsvpError as exc:
                        solves.append({"key": key, "status": f"error:{type(exc).__name__}",
                                       "iterations": 0, "d": [], "cond_j": [], "c_final": []})
                        continue
                    solves.append({
                        "key": key,
                        "status": report.status.value,
                        "iterations": report.iterations,
                        "d": [rec.d.hex() for rec in report.records],
                        "cond_j": [None if rec.cond_j is None else rec.cond_j.hex()
                                   for rec in report.records],
                        "c_final": [float(x).hex() for x in report.c_final],
                    })
    return solves


def golden_rows(solves: list[dict]) -> list[list[str]]:
    return [
        s["key"] + [
            s["status"],
            str(s["iterations"]),
            s["d"][0] if s["d"] else "",
            ",".join(_coarse(float.fromhex(d)) for d in s["d"]),
        ]
        for s in solves
    ]


def converged_counts(solves: list[dict]) -> dict[tuple[str, str, str], list[int]]:
    """[converged, solves] per (set, algorithm, beta), in run order."""
    counts = {}
    for s in solves:
        name, algorithm, _, beta = s["key"]
        count = counts.setdefault((name, algorithm, beta), [0, 0])
        count[0] += s["status"] == "converged"
        count[1] += 1
    return counts


def trace_sha256(solves: list[dict]) -> str:
    return hashlib.sha256(json.dumps(solves, sort_keys=True).encode()).hexdigest()


def read_golden() -> tuple[dict[str, str], list[list[str]]]:
    """The golden per-set SHA-256 and the golden rows, header excluded."""
    lines = GOLDEN.read_text().splitlines()
    shas = dict(line.split("\t")[1:3] for line in lines if line.startswith("#"))
    rows = [line.split("\t") for line in lines if not line.startswith("#")][1:]
    return shas, rows


def worst_changes(pairs: list[tuple[dict, dict]]) -> dict[str, tuple[float, list]]:
    """The largest change of each solve against its reference solve in
    ``pairs``, with where it occurs, of d_k relative to a d_k' above
    ``RELATIVE_FLOOR``, of d_k absolute, of one c_final entry, and of
    cond(J_k) relative to cond(J_k)', over the iterates and entries both
    runs share, and for cond(J_k) over the records that carry it in both."""
    names = ("relative d_k", "absolute d_k", "c_final entry", "relative cond_J")
    worst = {name: (0.0, None) for name in names}

    def note(name, a, b, where, scale=1.0):
        if a == b:
            return
        change = abs(a - b) / scale if math.isfinite(a - b) else math.inf
        if change > worst[name][0]:
            worst[name] = (change, where)

    for s, r in pairs:
        for k, (a, b) in enumerate(zip(s["d"], r["d"])):
            a, b = float.fromhex(a), float.fromhex(b)
            note("absolute d_k", a, b, s["key"] + [f"k={k}"])
            if abs(b) > RELATIVE_FLOOR:
                note("relative d_k", a, b, s["key"] + [f"k={k}"], scale=abs(b))
        for i, (a, b) in enumerate(zip(s["c_final"], r["c_final"])):
            note("c_final entry", float.fromhex(a), float.fromhex(b), s["key"] + [f"i={i}"])
        for k, (a, b) in enumerate(zip(s["cond_j"], r["cond_j"])):
            if a is not None and b is not None:
                a, b = float.fromhex(a), float.fromhex(b)
                note("relative cond_J", a, b, s["key"] + [f"k={k}"], scale=abs(b))
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", action="store_true", help="rewrite the golden file")
    p.add_argument("--traces", type=Path, help="save the full traces as JSON")
    p.add_argument("--compare", type=Path, help="full traces of another run, from --traces")
    args = p.parse_args(argv)

    solves = run_all()
    rows = golden_rows(solves)
    golden_shas, golden = read_golden()
    print(f"solves: {len(solves)}  sha256: {trace_sha256(solves)}")
    set_shas = {}
    for name, *_ in SETS:
        in_set = [s for s in solves if s["key"][0] == name]
        set_shas[name] = trace_sha256(in_set)
        print(f"  {name}: {len(in_set)} solves  sha256: {set_shas[name]}")
    for name, sha in set_shas.items():
        same = "yes" if golden_shas.get(name) == sha else "no"
        print(f"  {name}: traces bit-identical to golden: {same}")
    for (name, algorithm, beta), (converged, total) in converged_counts(solves).items():
        print(f"  {name} {algorithm} beta={beta}: converged {converged}/{total}")
    if args.traces:
        args.traces.write_text(json.dumps(solves) + "\n")
    if args.compare:
        reference = json.loads(args.compare.read_text())
        if [s["key"] for s in reference] != [s["key"] for s in solves]:
            print("--compare: the two runs hold different solves")
            return 1
        # blowing-up solves dominate the changes over all solves
        pairs = list(zip(solves, reference))
        converged = [(s, r) for s, r in pairs if s["status"] == r["status"] == "converged"]
        for scope, chosen in (("", pairs), (" over solves converged in both", converged)):
            for name, (worst, where) in worst_changes(chosen).items():
                print(f"worst {name} change{scope}: {worst:.3e}"
                      + (f" at {' '.join(where)}" if where else ""))
    if args.write:
        shas = [["# sha256", name, sha] for name, sha in set_shas.items()]
        GOLDEN.write_text("\n".join("\t".join(row) for row in shas + [HEADER] + rows) + "\n")
        print(f"wrote {GOLDEN.name}")
        return 0

    if [row[:4] for row in golden] != [row[:4] for row in rows]:
        print(f"{GOLDEN.name} holds different solves; rewrite it with --write")
        return 1
    moved = [(want, got) for want, got in zip(golden, rows) if want != got]
    for want, got in moved:
        print("golden: " + "\t".join(want))
        print("now:    " + "\t".join(got))
    counts_moved = sum(want[4:6] != got[4:6] for want, got in moved)
    print(f"rows that differ: {len(moved)} of {len(rows)}; "
          f"status or iteration count moved: {counts_moved}")
    return 1 if counts_moved else 0


if __name__ == "__main__":
    sys.exit(main())
