import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isvp
from isvp import verification
from isvp.baselines import alg1_skew_pair
from isvp.cayley_free import correction_matrices, outer_step
from isvp.cli import EXIT_NONCONVERGED, EXIT_OK, EXIT_USAGE, main, parse_seeds


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


class TestRunCommand:
    def _run(self, out, extra=()):
        argv = [
            "run", "--m", "16", "--n", "6", "--beta", "1e-3", "--mu", "0",
            "--seeds", "1..3", "--algorithm", "cayley-free", "--out", str(out),
        ]
        return main(argv + list(extra))

    def test_success_and_outputs(self, tmp_path, capsys):
        code = self._run(tmp_path / "out")
        assert code == EXIT_OK
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
        statuses = {t["status"] for t in summary["trials"]}
        if statuses != {"converged"}:
            assert code == EXIT_NONCONVERGED
            assert main(argv + ["--allow-nonconverged"]) == EXIT_OK
        else:
            assert code == EXIT_OK

    def test_csv_format_only(self, tmp_path):
        code = self._run(tmp_path / "out", ["--format", "csv"])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "trace.csv").exists()
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_unknown_format_rejected(self, tmp_path):
        code = self._run(tmp_path / "out", ["--format", "xml"])
        assert code == EXIT_USAGE

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

    def test_bad_seed_expression_rejected(self, capsys, tmp_path):
        argv = [
            "run", "--m", "8", "--n", "4", "--beta", "1e-3",
            "--seeds", ",", "--out", str(tmp_path / "out"),
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE


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

    def test_solve_without_start_information(self, tmp_path, capsys):
        inst_path = tmp_path / "instance.txt"
        main(["gen", "--m", "10", "--n", "4", "--seed", "3", "--out", str(inst_path)])
        code = main(["solve", "--instance", str(inst_path)])
        assert code == EXIT_USAGE

    def test_solve_missing_instance(self, tmp_path):
        code = main(["solve", "--instance", str(tmp_path / "nope.txt"), "--beta", "1e-3"])
        assert code == EXIT_USAGE

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
        assert printed == [
            f"k={rec.k} d={rec.d:.5e} cond_J={rec.cond_j:.5e}" for rec in trial.report.records
        ]
        assert len(printed) >= 2


def _doubled_left(U, V, W, sigma_star):
    pair = correction_matrices(U, V, W, sigma_star)
    return dataclasses.replace(pair, left=2.0 * pair.left)


def _non_skew_pair(D, sigma):
    X, Y = alg1_skew_pair(D, sigma)
    return X + 1e-3 * np.eye(len(X)), Y


def _doubled_sigma(A):
    factors = isvp.full_svd(A)
    return dataclasses.replace(factors, sigma=2.0 * factors.sigma)


def _transposed_jacobian(U, V, instance):
    return isvp.approx_jacobian(U, V, instance).T


def _drifting_step(state, instance):
    next_state = outer_step(state, instance)
    next_state.c = next_state.c + 1e-3
    return next_state


# for each check: the kernel name `verification` imports, and a wrong variant of it
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
    verification.check_svd_factorization: ("full_svd", _doubled_sigma),
    verification.check_solver_fixed_points: ("outer_step", _drifting_step),
}


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        code = main(["verify", "--trials", "8", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("PASS") == len(out.strip().splitlines())

    @pytest.mark.parametrize("check", verification.ALL_CHECKS, ids=lambda c: c.__name__)
    def test_each_check_fails_on_a_wrong_kernel(self, check, monkeypatch, capsys):
        name, wrong = WRONG_KERNELS[check]
        monkeypatch.setattr(verification, name, wrong)
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

    @pytest.mark.parametrize("seed", [63, 112, 130, 137])
    def test_finite_difference_check_draws_every_seed(self, seed):
        # the check skips spectra with a gap below 0.1 itself; these seeds draw some
        result = verification.check_jacobian_finite_difference(50, seed)
        assert result.passed


class TestRunDeterminism:
    def test_identical_flags_identical_traces(self, tmp_path):
        argv = lambda out: [
            "run", "--m", "14", "--n", "6", "--beta", "1e-3", "--mu", "0.01",
            "--seeds", "1..3", "--out", str(out),
        ]
        assert main(argv(tmp_path / "a")) == EXIT_OK
        assert main(argv(tmp_path / "b")) == EXIT_OK

        def strip_wall(path):
            with open(path) as fh:
                rows = list(csv.reader(fh))
            return [row[:-1] for row in rows]

        assert strip_wall(tmp_path / "a" / "trace.csv") == strip_wall(
            tmp_path / "b" / "trace.csv"
        )
