import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isvp
from isvp import cli, core, verification
from isvp.baselines import alg1_skew_pair
from isvp.cayley_free import correction_matrices
from isvp.cli import EXIT_NONCONVERGED, EXIT_OK, EXIT_USAGE, main, parse_seeds
from isvp.harness import SOLVERS


class TestParseSeeds:
    def test_range(self):
        assert parse_seeds("1..5") == (1, 2, 3, 4, 5)

    def test_list(self):
        assert parse_seeds("1,4,9") == (1, 4, 9)

    def test_mixed(self):
        assert parse_seeds("1..3,7") == (1, 2, 3, 7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_seeds(",")

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError, match=r"'10\.\.1'"):
            parse_seeds("10..1,3")


class TestRunCommand:
    def test_success_and_outputs(self, tmp_path, capsys):
        argv = [
            "run", "--m", "16", "--n", "6", "--beta", "1e-3", "--mu", "0",
            "--seeds", "1..3", "--algorithm", "cayley-free", "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == EXIT_OK
        assert (tmp_path / "out" / "trace.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        assert "converged 100%" in capsys.readouterr().out

    def test_nonconverged_exit_code(self, tmp_path):
        argv = [
            "run", "--m", "16", "--n", "6", "--beta", "0.8", "--mu", "0",
            "--seeds", "1..6", "--out", str(tmp_path / "out"),
        ]
        code = main(argv)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert any(t["status"] != "converged" for t in summary["trials"])
        assert code == EXIT_NONCONVERGED
        assert main(argv + ["--allow-nonconverged"]) == EXIT_OK

    def test_a_run_whose_jacobians_overflow_writes_its_trace(self, tmp_path):
        # every seed diverges; seed 13 ends on an iterate whose d_k overflows,
        # which takes no step, so no J_k is formed for it and its cond_J is
        # empty; LAPACK prints no parameter error
        env = {**os.environ, "PYTHONPATH": str(Path(isvp.__file__).parents[1])}
        proc = subprocess.run(
            [
                sys.executable, "-W", "error", "-m", "isvp", "run", "--m", "30", "--n", "12",
                "--beta", "0.8", "--seeds", "1..20", "--out", str(tmp_path),
            ],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == EXIT_NONCONVERGED
        assert "DLASCL" not in proc.stdout + proc.stderr
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert {t["status"] for t in summary["trials"]} == {"diverged"}
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        last = [row.split(",") for row in rows if row.startswith("13,")][-1]
        assert last[3:5] == ["inf", ""]

    def test_invalid_mu_rejected(self, tmp_path):
        argv = [
            "run", "--m", "8", "--n", "4", "--beta", "1e-3", "--mu", "1.5",
            "--seeds", "1", "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == EXIT_USAGE

    def test_nonfinite_beta_rejected(self, capsys, tmp_path):
        argv = [
            "run", "--m", "6", "--n", "3", "--beta", "nan",
            "--seeds", "1..2", "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_unwritable_out_fails_before_the_sweep(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("sweep ran"))
        (tmp_path / "FILE").write_text("")
        argv = [
            "run", "--m", "8", "--n", "4", "--beta", "1e-3",
            "--seeds", "1..20", "--out", str(tmp_path / "FILE" / "out"),
        ]
        assert main(argv) == EXIT_USAGE
        assert re.match(r"error: cannot write reports under .*FILE/out: ", capsys.readouterr().err)

    def test_bad_seed_expression_rejected(self, capsys, tmp_path):
        for spec, reason in ((",", "no seeds in ','"), ("10..1,3", "seed range '10..1' is reversed")):
            argv = [
                "run", "--m", "8", "--n", "4", "--beta", "1e-3",
                "--seeds", spec, "--out", str(tmp_path / "out"),
            ]
            assert main(argv) == EXIT_USAGE
            assert capsys.readouterr().err == f"error: {reason}\n"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_rejected_before_any_report(self, capsys, tmp_path):
        argv = [
            "run", "--m", "6", "--n", "3", "--beta", "1e-3",
            "--seeds=-2..-1", "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: seed -2 is negative; seeds must be non-negative integers\n"
        )
        assert not (tmp_path / "out" / "trace.csv").exists()
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_a_seed_listed_twice_is_rejected_before_any_report(self, capsys, tmp_path):
        argv = [
            "run", "--m", "6", "--n", "3", "--beta", "1e-3",
            "--seeds", "1,1,2", "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: seed 1 appears more than once\n"
        assert not (tmp_path / "out").exists()

    def test_infinite_tol_rejected(self, capsys, tmp_path):
        argv = [
            "run", "--m", "6", "--n", "3", "--beta", "1e-3",
            "--seeds", "1", "--tol", "inf", "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: tol must be finite\n"
        assert not (tmp_path / "out").exists()


class TestGenAndSolve:
    def test_gen_solve_round_trip(self, tmp_path, capsys):
        inst_path = tmp_path / "instance.txt"
        assert main(["gen", "--m", "12", "--n", "5", "--seed", "7", "--out", str(inst_path)]) == EXIT_OK
        assert inst_path.exists()
        assert (tmp_path / "instance.txt.cstar").exists()

        code = main([
            "solve", "--instance", str(inst_path), "--beta", "1e-3", "--seed", "7",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "converged" in out

    def test_solve_with_explicit_c0(self, tmp_path):
        inst_path = tmp_path / "instance.txt"
        main(["gen", "--m", "10", "--n", "4", "--seed", "3", "--out", str(inst_path)])
        c_star = np.array(
            [float(tok) for tok in (tmp_path / "instance.txt.cstar").read_text().split()]
        )
        c0_path = tmp_path / "c0.txt"
        c0_path.write_text(" ".join(format(x, ".17g") for x in c_star))
        for algorithm in ("cayley-free", "alg1", "newton"):
            code = main([
                "solve", "--instance", str(inst_path), "--c0", str(c0_path),
                "--algorithm", algorithm,
            ])
            assert code == EXIT_OK

    def test_solve_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        # a start file needs no seeded draw, yet the seed is checked before any solve
        inst_path = tmp_path / "instance.txt"
        main(["gen", "--m", "10", "--n", "4", "--seed", "3", "--out", str(inst_path)])
        c0_path = tmp_path / "c0.txt"
        c0_path.write_text((tmp_path / "instance.txt.cstar").read_text())
        capsys.readouterr()
        for algorithm in ("cayley-free", "alg1", "newton"):
            code = main([
                "solve", "--instance", str(inst_path), "--c0", str(c0_path),
                "--algorithm", algorithm, "--seed", "-5",
            ])
            assert code == EXIT_USAGE
            out, err = capsys.readouterr()
            assert "k=" not in out
            assert err == "error: seed -5 is negative; seeds must be non-negative integers\n"

    def test_solve_without_start_information(self, monkeypatch, capsys):
        # the missing start is reported before the instance file is read
        monkeypatch.setattr(cli, "load_instance", lambda path: pytest.fail("instance was read"))
        assert main(["solve", "--instance", "instance.txt"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: provide either --c0 FILE or --beta (with a .cstar sidecar)\n"
        )

    def test_solve_refuses_start_flags_it_would_ignore(self, monkeypatch, capsys):
        # --c0 is the start, so --beta and --c-star would be ignored; --c-star
        # without --beta has nothing to perturb.  Each is reported before the
        # instance file is read
        monkeypatch.setattr(cli, "load_instance", lambda path: pytest.fail("instance was read"))
        ignored = "error: --c0 FILE is the start itself; it takes no --beta or --c-star\n"
        neither = "error: provide either --c0 FILE or --beta (with a .cstar sidecar)\n"
        for flags, err in (
            (["--c0", "c0.txt", "--beta", "1e-3"], ignored),
            (["--c0", "c0.txt", "--c-star", "cstar.txt"], ignored),
            (["--c0", "c0.txt", "--beta", "1e-3", "--c-star", "cstar.txt"], ignored),
            (["--c-star", "cstar.txt"], neither),
        ):
            assert main(["solve", "--instance", "instance.txt", *flags]) == EXIT_USAGE
            assert capsys.readouterr().err == err

    def test_solve_unreadable_c0_is_a_usage_error(self, tmp_path, capsys):
        inst_path = tmp_path / "instance.txt"
        main(["gen", "--m", "6", "--n", "3", "--seed", "3", "--out", str(inst_path)])
        short = tmp_path / "c0.txt"
        short.write_text("0.5 0.25\n")
        capsys.readouterr()
        for c0_path, reason in (
            (short, r"start vector has 2 entries, instance needs 3\n$"),
            (tmp_path / "nope.txt", r"cannot read start vector .*nope\.txt: "),
        ):
            assert main(["solve", "--instance", str(inst_path), "--c0", str(c0_path)]) == EXIT_USAGE
            assert re.match("error: " + reason, capsys.readouterr().err)

    def test_solve_missing_instance(self, tmp_path):
        code = main(["solve", "--instance", str(tmp_path / "nope.txt"), "--beta", "1e-3"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("algorithm", [a.value for a in isvp.Algorithm])
    def test_solve_mu_out_of_range_is_a_usage_error(self, algorithm, tmp_path):
        inst_path = tmp_path / "instance.txt"
        main(["gen", "--m", "10", "--n", "4", "--seed", "3", "--out", str(inst_path)])
        code = main([
            "solve", "--instance", str(inst_path), "--beta", "1e-3",
            "--algorithm", algorithm, "--mu", "2",
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("algorithm", ["alg1", "newton"])
    def test_mu_needs_the_cayley_free_start(self, algorithm, tmp_path, capsys):
        # both subcommands refuse a mu that the algorithm would ignore
        inst_path = tmp_path / "instance.txt"
        main(["gen", "--m", "10", "--n", "4", "--seed", "3", "--out", str(inst_path)])
        capsys.readouterr()
        out = tmp_path / "out"
        for argv in (
            ["solve", "--instance", str(inst_path), "--beta", "1e-3"],
            ["run", "--m", "10", "--n", "4", "--beta", "1e-3", "--seeds", "1", "--out", str(out)],
        ):
            assert main(argv + ["--algorithm", algorithm, "--mu", "0.3"]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err == f"error: {algorithm} builds no B_0 from mu; it needs mu = 0\n"
        assert not out.exists()

    def test_solve_nonfinite_start_is_a_usage_error(self, tmp_path):
        inst_path = tmp_path / "instance.txt"
        main(["gen", "--m", "6", "--n", "3", "--seed", "3", "--out", str(inst_path)])
        c0_path = tmp_path / "c0.txt"
        c0_path.write_text("nan 1 2\n")
        code = main(["solve", "--instance", str(inst_path), "--c0", str(c0_path)])
        assert code == EXIT_USAGE

    def test_solve_nonfinite_instance_is_a_usage_error(self, tmp_path):
        inst_path = tmp_path / "instance.txt"
        main(["gen", "--m", "6", "--n", "3", "--seed", "3", "--out", str(inst_path)])
        lines = inst_path.read_text().splitlines()
        lines[2] = " ".join(["nan"] + lines[2].split()[1:])
        inst_path.write_text("\n".join(lines) + "\n")
        code = main(["solve", "--instance", str(inst_path), "--beta", "1e-3"])
        assert code == EXIT_USAGE

    def test_solve_nonfinite_c_star_is_a_usage_error(self, tmp_path, capsys):
        inst_path = tmp_path / "instance.txt"
        main(["gen", "--m", "6", "--n", "3", "--seed", "3", "--out", str(inst_path)])
        cstar_path = tmp_path / "cstar.txt"
        cstar_path.write_text("0.5 nan 0.25\n")
        capsys.readouterr()
        code = main([
            "solve", "--instance", str(inst_path), "--beta", "1e-3",
            "--c-star", str(cstar_path),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_solve_oversized_header_is_a_usage_error(self, tmp_path, capsys):
        # the header asks for a 7 TiB basis that two lines cannot hold
        inst_path = tmp_path / "instance.txt"
        inst_path.write_text("1000000 1000\n1 2\n")
        code = main(["solve", "--instance", str(inst_path), "--beta", "1e-3"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_solve_oversized_header_from_a_pipe_is_a_usage_error(self):
        # a pipe has no size to check, so the failed allocation is what rejects it
        env = {**os.environ, "PYTHONPATH": str(Path(isvp.__file__).parents[1])}
        proc = subprocess.run(
            [
                sys.executable, "-W", "error", "-m", "isvp",
                "solve", "--instance", "/dev/stdin", "--beta", "1e-3",
            ],
            input="1000000 1000\n1 2\n", capture_output=True, text=True, env=env,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_gen_matches_library(self, tmp_path):
        inst_path = tmp_path / "instance.txt"
        main(["gen", "--m", "8", "--n", "3", "--seed", "11", "--out", str(inst_path)])
        loaded = isvp.load_instance(inst_path)
        direct, c_star = isvp.generate_instance(8, 3, 11)
        for a, b in zip(loaded.basis, direct.basis):
            np.testing.assert_array_equal(a, b)
        sidecar = np.array(
            [float(tok) for tok in (tmp_path / "instance.txt.cstar").read_text().split()]
        )
        np.testing.assert_array_equal(sidecar, c_star)

    @pytest.mark.parametrize("algorithm", [a.value for a in isvp.Algorithm])
    def test_solve_reads_a_toeplitz_file(self, algorithm, tmp_path, capsys):
        # the file names its form, so `isvp solve` takes the generated instance's steps
        inst, c_star = isvp.generate_toeplitz_instance(30, 20, 4)
        inst_path = tmp_path / "toeplitz.txt"
        isvp.save_instance(inst, inst_path)
        cli._write_vector(Path(str(inst_path) + ".cstar"), c_star)
        code = main([
            "solve", "--instance", str(inst_path), "--beta", "1e-5", "--algorithm", algorithm,
        ])
        assert code == EXIT_OK
        printed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("k=")]
        c0 = isvp.perturb_c_star(c_star, 1e-5, 0)
        report, _ = isvp.harness.run_solver(algorithm, inst, c0, isvp.SolverConfig(), 0.0, 0)
        assert printed == _solve_lines(report.records)
        assert len(printed) >= 2

    def test_solve_matches_run_trial(self, tmp_path, capsys):
        # same (instance, c0, mu, seed) through `isvp solve` and the sweep harness
        inst_path = tmp_path / "instance.txt"
        main(["gen", "--m", "16", "--n", "6", "--seed", "4", "--out", str(inst_path)])
        capsys.readouterr()
        code = main([
            "solve", "--instance", str(inst_path), "--beta", "1e-3", "--mu", "0.3",
            "--seed", "4",
        ])
        assert code == EXIT_OK
        printed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("k=")]
        config = isvp.ExperimentConfig(m=16, n=6, beta=1e-3, mu=0.3, seeds=(4,))
        trial = isvp.harness.run_trial(config, 4)
        assert trial.achieved_mu == pytest.approx(0.3, rel=1e-12)
        assert printed == _solve_lines(trial.report.records)
        assert len(printed) >= 2


def _solve_lines(records):
    # every record but the last holds the J_k its step formed; the last holds none
    *stepped, last = records
    return [f"k={rec.k} d={rec.d:.5e} cond_J={rec.cond_j:.5e}" for rec in stepped] + [
        f"k={last.k} d={last.d:.5e} cond_J=n/a"
    ]


def _doubled_left(U, V, W, sigma_star):
    left, right = correction_matrices(U, V, W, sigma_star)
    return 2.0 * left, right


def _non_skew_pair(D, sigma):
    X, Y = alg1_skew_pair(D, sigma)
    return X + 1e-3 * np.eye(len(X)), Y


def _doubling_sigma(factorize):
    def doubled_sigma(A, **kwargs):
        factors = factorize(A, **kwargs)
        return dataclasses.replace(factors, sigma=2.0 * factors.sigma)

    return doubled_sigma


def _flipping_thin_U(svd):
    """LAPACK's SVD with the thin factor's U negated, so it no longer pairs with V."""

    def flipped_thin_U(A, full_matrices=True, **kwargs):
        factors = svd(A, full_matrices=full_matrices, **kwargs)
        if full_matrices:
            return factors
        U, sigma, Vt = factors
        return -U, sigma, Vt

    return flipped_thin_U


def _doubling_eigenvalues(eigh):
    def doubled_eigenvalues(A):
        lam, Q = eigh(A)
        return 2.0 * lam, Q

    return doubled_eigenvalues


def _transposed_jacobian(U, V, instance):
    return isvp.approx_jacobian(U, V, instance).T


def _drifting(step):
    """A solver step that shifts every entry of c by 1e-3 after ``step``."""

    def drifting_step(state, instance):
        next_state = step(state, instance)
        next_state.c = next_state.c + 1e-3
        return next_state

    return drifting_step


# for each check but the fixed-point one: the kernel name `verification`
# imports, and a wrong variant of it
WRONG_KERNELS = {
    verification.check_correction_symmetrization: ("correction_matrices", _doubled_left),
    verification.check_correction_linear_system: ("correction_matrices", _doubled_left),
    verification.check_chebyshev_cubing: (
        "chebyshev_update", lambda B, J: B + B @ (np.eye(len(B)) - B @ J)
    ),
    verification.check_skew_exactness: ("alg1_skew_pair", _non_skew_pair),
    verification.check_cayley_orthogonality: ("cayley_orthogonalize", lambda Q, S: Q + S),
    verification.check_jacobian_finite_difference: ("approx_jacobian", _transposed_jacobian),
    verification.check_residual_affinity: ("approx_jacobian", _transposed_jacobian),
    verification.check_svd_factorization: ("full_svd", _doubling_sigma(isvp.full_svd)),
}

# the svd check runs twice more, with full_svd's thin and centrosymmetric
# branch wrong in turn, the finite-difference check once more with the
# Toeplitz FFT too short, and the fixed-point check once with each
# solver's step drifting
WRONG_KERNEL_CASES = [
    pytest.param(check, verification, *WRONG_KERNELS[check], id=check.__name__)
    for check in verification.ALL_CHECKS
    if check is not verification.check_solver_fixed_points
] + [
    pytest.param(
        verification.check_svd_factorization, np.linalg, "svd",
        _flipping_thin_U(np.linalg.svd), id="check_svd_factorization-thin",
    ),
    pytest.param(
        verification.check_svd_factorization, core, "_centrosymmetric_eigh",
        _doubling_eigenvalues(core._centrosymmetric_eigh),
        id="check_svd_factorization-centrosymmetric",
    ),
    # one short of 2n - 1, the Toeplitz Jacobian's correlation wraps around
    pytest.param(
        verification.check_jacobian_finite_difference, core, "_fft_length",
        lambda n: 2 * n - 2, id="check_jacobian_finite_difference-toeplitz",
    ),
] + [
    pytest.param(
        verification.check_solver_fixed_points, module, step, _drifting(getattr(module, step)),
        id=f"check_solver_fixed_points-{algorithm.value}",
    )
    for algorithm, (_, (module, step)) in SOLVERS.items()
]


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        code = main(["verify", "--trials", "8", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("PASS") == len(out.strip().splitlines())

    @pytest.mark.parametrize("check, module, name, wrong", WRONG_KERNEL_CASES)
    def test_each_check_fails_on_a_wrong_kernel(
        self, check, module, name, wrong, monkeypatch, capsys
    ):
        monkeypatch.setattr(module, name, wrong)
        result = check(4, 3)
        assert result.passed is False
        assert main(["verify", "--trials", "4"]) == EXIT_NONCONVERGED
        assert f"FAIL  {result.name}:" in capsys.readouterr().out

    def test_a_nan_violation_fails_its_check(self, monkeypatch):
        monkeypatch.setattr(verification, "chebyshev_update", lambda B, J: B * np.nan)
        result = verification.check_chebyshev_cubing(4, 3)
        assert result.passed is False
        assert result.line().startswith("FAIL  chebyshev cubing identity: worst nan")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_a_usage_error(self, trials, capsys):
        assert main(["verify", "--trials", trials]) == EXIT_USAGE
        assert "trials must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", [2.5, True, "3"])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="^trials must be at least 1 and an integer, got "):
            verification.run_all_checks(trials=trials)

    @pytest.mark.parametrize("seed", [63, 112, 130, 137])
    def test_finite_difference_check_draws_every_seed(self, seed):
        # the check skips spectra with a gap below 0.1 itself; these seeds draw some
        result = verification.check_jacobian_finite_difference(50, seed)
        assert result.passed

