"""Trace fingerprint: every ``Algorithm`` on two fixed sets of solves.

The sets are the 60x30 dense grid (seeds 1..40 at beta 1e-3 and 1e-2)
and toeplitz 240x160 (seeds 1..6 at beta 1e-5), each solve run through
``harness.run_solver`` with the default stopping rule, mu = 0 and one
BLAS thread.  The committed golden file ``fingerprint.tsv`` holds one
row per solve: set, algorithm, seed, beta, status, iteration count, d_0
as a hex float and the coarse trace round(log10 d_k, 1).

    python tests/fingerprint.py                  # compare with the golden file
    python tests/fingerprint.py --write          # rewrite the golden file
    python tests/fingerprint.py --traces a.json  # also save the full traces
    python tests/fingerprint.py --compare a.json # worst change in d_k against a.json

Every run prints the SHA-256 of the full traces (status, iterations and
every d_k, cond(J_k) and c_final entry as hex floats) and lists the rows
that differ from the golden file.  It exits 1 when a status or an
iteration count differs, and 0 otherwise.
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

# (set name, instance generator, m, n, seeds, betas)
SETS = (
    ("grid", harness.generate_instance, 60, 30, range(1, 41), (1e-3, 1e-2)),
    ("toeplitz", harness.generate_toeplitz_instance, 240, 160, range(1, 7), (1e-5,)),
)


def _coarse(d: float) -> str:
    return format(round(math.log10(d), 1), ".1f") if 0.0 < d < math.inf else str(d)


def run_all() -> list[dict]:
    """Every solve of both sets, in a fixed order, as one dict each."""
    solves = []
    for name, generate, m, n, seeds, betas in SETS:
        for beta in betas:
            for seed in seeds:
                instance, c_star = generate(m, n, seed)
                c0 = harness.perturb_c_star(c_star, beta, seed)
                for algorithm in harness.Algorithm:
                    key = [name, algorithm.value, str(seed), repr(beta)]
                    try:
                        report, _ = harness.run_solver(
                            algorithm, instance, c0, SolverConfig(), 0.0, seed, c_star
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
                        "cond_j": [rec.cond_j.hex() for rec in report.records],
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


def trace_sha256(solves: list[dict]) -> str:
    return hashlib.sha256(json.dumps(solves, sort_keys=True).encode()).hexdigest()


def worst_d_change(solves: list[dict], reference: list[dict]) -> tuple[float, list]:
    """Largest |d_k - d_k'| / |d_k'| over the iterates both runs share."""
    worst, where = 0.0, None
    for s, r in zip(solves, reference):
        for k, (a, b) in enumerate(zip(s["d"], r["d"])):
            a, b = float.fromhex(a), float.fromhex(b)
            if a == b:
                continue
            change = abs(a - b) / abs(b) if math.isfinite(a - b) and b != 0.0 else math.inf
            if change > worst:
                worst, where = change, s["key"] + [f"k={k}"]
    return worst, where


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", action="store_true", help="rewrite the golden file")
    p.add_argument("--traces", type=Path, help="save the full traces as JSON")
    p.add_argument("--compare", type=Path, help="full traces of another run, from --traces")
    args = p.parse_args(argv)

    solves = run_all()
    rows = golden_rows(solves)
    print(f"solves: {len(solves)}  sha256: {trace_sha256(solves)}")
    if args.traces:
        args.traces.write_text(json.dumps(solves) + "\n")
    if args.compare:
        reference = json.loads(args.compare.read_text())
        if [s["key"] for s in reference] != [s["key"] for s in solves]:
            print("--compare: the two runs hold different solves")
            return 1
        worst, where = worst_d_change(solves, reference)
        print(f"worst relative change in d_k: {worst:.3e}" + (f" at {' '.join(where)}" if where else ""))
    if args.write:
        GOLDEN.write_text("\n".join("\t".join(row) for row in [HEADER] + rows) + "\n")
        print(f"wrote {GOLDEN.name}")
        return 0

    golden = [line.split("\t") for line in GOLDEN.read_text().splitlines()[1:]]
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
