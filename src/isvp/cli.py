"""Command line interface.

Subcommands: ``run`` sweeps seeded experiments and writes CSV/JSON
reports, ``gen`` writes an instance file (plus a ``.cstar`` sidecar with
the generating vector so perturbed starts stay reproducible), ``solve``
runs one solver on an instance file, and ``verify`` executes the
invariant suite on synthetic fixtures.

Exit codes: 0 on success, 1 when any trial failed to converge (unless
``--allow-nonconverged``), a verify check failed or any other
``IsvpError`` ended the command, 2 on usage errors, ``ValueError`` and
every ``InputError`` (bad data, files or paths).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .cayley_free import SolverConfig
from .core import load_instance, save_instance
from .errors import InputError, IsvpError
from .harness import (
    Algorithm,
    ExperimentBundle,
    ExperimentConfig,
    emit_reports,
    generate_instance,
    perturb_c_star,
    run_experiment,
    run_solver,
)
from .report import SolveStatus
from .verification import run_all_checks

EXIT_OK = 0
EXIT_NONCONVERGED = 1
EXIT_USAGE = 2


def parse_seeds(spec: str) -> tuple[int, ...]:
    """Parse "1..10" ranges and "1,4,9" lists (mixes allowed)."""
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = (int(x) for x in part.split("..", 1))
            if lo > hi:
                raise ValueError(f"seed range {part!r} is reversed")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return tuple(seeds)


def _write_vector(path: Path, vec: np.ndarray) -> None:
    path.write_text(" ".join(format(x, ".17g") for x in vec) + "\n")


def _read_vector(path: Path) -> np.ndarray:
    return np.array([float(tok) for tok in Path(path).read_text().split()])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isvp")
    sub = parser.add_subparsers(dest="command", required=True)

    # the solver options shared by run and solve
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--mu", type=float, default=0.0)
    solver.add_argument(
        "--algorithm",
        choices=[a.value for a in Algorithm],
        default=Algorithm.CAYLEY_FREE.value,
    )
    solver.add_argument("--tol", type=float, default=SolverConfig.tol)
    solver.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)

    run = sub.add_parser("run", parents=[solver], help="run a seeded experiment sweep")
    run.add_argument("--m", type=int, required=True)
    run.add_argument("--n", type=int, required=True)
    run.add_argument("--beta", type=float, required=True)
    run.add_argument("--seeds", required=True, help='e.g. "1..10" or "1,4,9"')
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--allow-nonconverged", action="store_true")

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", type=Path, required=True)

    slv = sub.add_parser("solve", parents=[solver], help="solve one instance file")
    slv.add_argument("--instance", type=Path, required=True)
    slv.add_argument("--c0", type=Path, help="file with the start vector")
    slv.add_argument("--beta", type=float, help="perturb the generating vector instead")
    slv.add_argument("--c-star", type=Path, help="generating vector (defaults to INSTANCE.cstar)")
    slv.add_argument("--seed", type=int, default=0)

    ver = sub.add_parser("verify", help="run the invariant suite")
    ver.add_argument("--trials", type=int, default=50)
    ver.add_argument("--seed", type=int, default=20240601)
    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig(
        m=args.m,
        n=args.n,
        beta=args.beta,
        mu=args.mu,
        seeds=parse_seeds(args.seeds),
        algorithm=args.algorithm,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    # empty reports first, so that an unwritable --out fails before the sweep
    emit_reports(ExperimentBundle(config), args.out)
    bundle = run_experiment(config)
    paths = emit_reports(bundle, args.out)
    agg = bundle.aggregate()
    for trial in bundle.trials:
        print(
            f"seed {trial.seed}: {trial.status}, iterations {trial.iterations}, "
            f"{trial.total_ms:.1f} ms"
        )
    print(
        f"converged {agg['converged_fraction']:.0%} of {agg['trials']} trials; "
        f"wrote {', '.join(str(p) for p in paths)}"
    )
    all_converged = all(t.status == SolveStatus.CONVERGED.value for t in bundle.trials)
    if all_converged or args.allow_nonconverged:
        return EXIT_OK
    return EXIT_NONCONVERGED


def _cmd_gen(args) -> int:
    instance, c_star = generate_instance(args.m, args.n, args.seed)
    save_instance(instance, args.out)
    sidecar = Path(str(args.out) + ".cstar")
    try:
        _write_vector(sidecar, c_star)
    except OSError as exc:
        raise InputError(f"cannot write {sidecar}: {exc}") from exc
    print(f"wrote {args.out} and {sidecar}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.c0 is None and args.beta is None:
        raise InputError("provide either --c0 FILE or --beta (with a .cstar sidecar)")
    # --c-star without --beta means --c0 was given, which takes neither
    if args.c0 is not None and (args.beta is not None or args.c_star is not None):
        raise InputError("--c0 FILE is the start itself; it takes no --beta or --c-star")
    instance = load_instance(args.instance)
    if args.c0 is not None:
        try:
            c0 = _read_vector(args.c0)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read start vector {args.c0}: {exc}") from exc
    else:
        cstar_path = args.c_star or Path(str(args.instance) + ".cstar")
        try:
            c_star = _read_vector(cstar_path)
        except (OSError, ValueError) as exc:
            raise InputError(
                f"--beta needs the generating vector; cannot read {cstar_path}: {exc}"
            ) from exc
        c0 = perturb_c_star(c_star, args.beta, args.seed)
    if c0.size != instance.n:
        raise InputError(f"start vector has {c0.size} entries, instance needs {instance.n}")

    config = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    report, _ = run_solver(args.algorithm, instance, c0, config, args.mu, args.seed)
    for rec in report.records:
        cond = "n/a" if rec.cond_j is None else format(rec.cond_j, ".5e")
        print(f"k={rec.k} d={rec.d:.5e} cond_J={cond}")
    print(f"{report.status.value} after {report.iterations} iterations")
    return EXIT_OK if report.status is SolveStatus.CONVERGED else EXIT_NONCONVERGED


def _cmd_verify(args) -> int:
    results = run_all_checks(trials=args.trials, seed=args.seed)
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_NONCONVERGED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (IsvpError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an InputError (the caller's data, file or path) exits 2, any other
        # failure exits 1; a failure inside a step already ended as `diverged`
        return EXIT_USAGE if isinstance(exc, (InputError, ValueError)) else EXIT_NONCONVERGED


if __name__ == "__main__":
    raise SystemExit(main())
