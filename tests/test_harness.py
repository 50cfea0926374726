import csv
import json

import numpy as np
import pytest

import isvp
from isvp import harness
from isvp.errors import DegenerateDraw, InsufficientData, SingularJacobian
from isvp.harness import TRACE_HEADER, run_trial, summary_dict, trace_rows
from isvp.report import SolveStatus

from conftest import solved_start


class TestGenerateInstance:
    def test_deterministic_per_seed(self):
        a, ca = isvp.generate_instance(8, 4, 42)
        b, cb = isvp.generate_instance(8, 4, 42)
        for x, y in zip(a.basis, b.basis):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.sigma_star, b.sigma_star)
        np.testing.assert_array_equal(ca, cb)

    def test_basis_then_c_star_from_one_stream(self):
        # 200 x 100 is drawn in several chunks; the values must be those of
        # one draw of the whole (n+1, m, n) stack followed by c*
        inst, c_star = isvp.generate_instance(200, 100, 6)
        rng = harness._rng(6, harness._ROLE_GENERATE, 0)
        np.testing.assert_array_equal(inst.basis, rng.random((101, 200, 100)))
        np.testing.assert_array_equal(c_star, rng.random(100))

    def test_different_seeds_differ(self):
        a, _ = isvp.generate_instance(8, 4, 1)
        b, _ = isvp.generate_instance(8, 4, 2)
        assert not np.array_equal(a.basis[0], b.basis[0])

    def test_targets_match_generator_spectrum(self):
        inst, c_star = isvp.generate_instance(9, 4, 17)
        sigma = np.linalg.svd(isvp.evaluate_A(inst, c_star), compute_uv=False)
        np.testing.assert_allclose(sigma, inst.sigma_star, rtol=1e-12)

    def test_entries_in_unit_interval(self):
        inst, c_star = isvp.generate_instance(6, 3, 5)
        for a in inst.basis:
            assert a.min() >= 0.0 and a.max() < 1.0
        assert c_star.min() >= 0.0 and c_star.max() < 1.0

    def test_retries_exhausted(self):
        # an unreachable gap requirement forces every retry to fail
        with pytest.raises(DegenerateDraw):
            isvp.generate_instance(4, 2, 1, min_gap=1e6)

    def test_toeplitz_family(self):
        inst, c_star = isvp.generate_toeplitz_instance(7, 4, 3)
        np.testing.assert_array_equal(inst.basis[0], np.zeros((7, 4)))
        np.testing.assert_array_equal(inst.basis[1][:4, :4], np.eye(4))
        # second basis matrix is the first symmetric shift
        expected = np.zeros((7, 4))
        expected[[0, 1, 2], [1, 2, 3]] = 1.0
        expected[[1, 2, 3], [0, 1, 2]] = 1.0
        np.testing.assert_array_equal(inst.basis[2], expected)
        report = isvp.newton_exact_solve(inst, isvp.perturb_c_star(c_star, 1e-4, 3))
        assert report.status is SolveStatus.CONVERGED


class TestPerturb:
    def test_beta_zero_is_identity(self):
        c_star = np.array([0.3, 0.7, 0.1])
        np.testing.assert_array_equal(isvp.perturb_c_star(c_star, 0.0, 5), c_star)

    def test_bounds_hold(self):
        rng = np.random.default_rng(1)
        c_star = rng.random(50)
        beta = 0.2
        c0 = isvp.perturb_c_star(c_star, beta, 9)
        assert np.abs(c0 - c_star).max() <= np.abs(c_star).max() * beta

    def test_reproducible(self):
        c_star = np.array([0.5, 0.25])
        a = isvp.perturb_c_star(c_star, 1e-2, 11)
        b = isvp.perturb_c_star(c_star, 1e-2, 11)
        np.testing.assert_array_equal(a, b)


class TestBuildB0:
    def test_mu_zero_gives_exact_inverse(self, small_instance):
        inst, c_star = small_instance
        J0, B0 = solved_start(inst, c_star)
        res = np.linalg.norm(np.eye(inst.n) - B0 @ J0)
        assert res <= 1e-12 * inst.n

    def test_mu_hits_target_exactly(self, small_instance):
        inst, c_star = small_instance
        J0, _ = solved_start(inst, c_star)
        for mu in [0.001, 0.05, 0.3]:
            B0 = isvp.build_B0(J0, mu, 7)
            achieved = np.linalg.norm(np.eye(inst.n) - B0 @ J0, 2)
            assert abs(achieved - mu) <= 1e-10

    def test_singular_jacobian(self):
        with pytest.raises(SingularJacobian):
            isvp.build_B0(np.zeros((3, 3)), 0.0, 1)

    def test_mu_out_of_range(self, small_instance):
        inst, c_star = small_instance
        J0, _ = solved_start(inst, c_star)
        with pytest.raises(ValueError):
            isvp.build_B0(J0, 1.0, 1)


class TestRootRateEstimator:
    def test_cubic_sequence(self):
        d = [2.0 ** (-(3.0**k)) for k in range(5)]
        assert abs(isvp.estimate_root_rate(d) - 3.0) <= 0.01

    def test_quadratic_sequence(self):
        d = [2.0 ** (-(2.0**k)) for k in range(6)]
        assert abs(isvp.estimate_root_rate(d) - 2.0) <= 0.01

    def test_fast_decay_column(self):
        # a typical 3-step superquadratic decay trace; the first base sits
        # above 1/2 so only the trailing two ratios count
        d = [7.38e-1, 3.56e-3, 7.89e-7, 1.87e-14]
        ratios = isvp.residual_log_ratios(d)
        np.testing.assert_allclose(ratios, [2.4926, 2.2494], atol=2e-3)
        rate = isvp.estimate_root_rate(d)
        assert abs(rate - np.mean(ratios)) < 1e-12

    def test_first_ratio_excluded_when_base_near_one(self):
        # 0.738 > 1/2, so log(d_1)/log(d_0) would be wild and is dropped
        d = [7.38e-1, 3.56e-3, 7.89e-7]
        assert len(isvp.residual_log_ratios(d)) == 1

    def test_roundoff_floor_excluded(self):
        d = [0.5, 1e-3, 1e-7, 1e-18, 0.9e-18]
        ratios = isvp.residual_log_ratios(d)
        assert len(ratios) == 2  # pairs into and out of 1e-18 are dropped

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            isvp.estimate_root_rate([0.5, 0.1])
        with pytest.raises(InsufficientData):
            isvp.estimate_root_rate([3.0, 2.0, 0.9, 0.8])


class TestRunExperiment:
    def _config(self, **kwargs):
        defaults = dict(
            m=20,
            n=8,
            beta=1e-3,
            mu=0.0,
            seeds=(1, 2, 3),
            algorithm=isvp.Algorithm.CAYLEY_FREE,
        )
        defaults.update(kwargs)
        return isvp.ExperimentConfig(**defaults)

    def test_all_seeds_converge_small(self):
        bundle = isvp.run_experiment(self._config())
        assert all(t.status == "converged" for t in bundle.trials)
        agg = bundle.aggregate()
        assert agg["converged_fraction"] == 1.0
        assert agg["trials"] == 3
        for trial in bundle.trials:
            assert trial.achieved_mu is not None and trial.achieved_mu <= 1e-10
            assert trial.report.records[0].err_c is not None

    def test_large_beta_does_not_crash(self):
        bundle = isvp.run_experiment(self._config(beta=0.5, seeds=tuple(range(1, 7))))
        statuses = {t.status for t in bundle.trials}
        assert statuses <= {"converged", "max_iterations", "diverged"}
        assert len(bundle.trials) == 6

    def test_alg1_and_newton_paths(self):
        for algorithm in (isvp.Algorithm.ALG1, isvp.Algorithm.NEWTON):
            bundle = isvp.run_experiment(self._config(algorithm=algorithm, seeds=(1, 2)))
            assert all(t.status == "converged" for t in bundle.trials)
            assert all(t.achieved_mu is None for t in bundle.trials)

    def test_trial_determinism_excluding_time(self):
        a = run_trial(self._config(), 1)
        b = run_trial(self._config(), 1)
        assert a.status == b.status
        assert a.iterations == b.iterations
        for ra, rb in zip(a.report.records, b.report.records):
            assert ra.d == rb.d
            assert ra.cond_j == rb.cond_j
            assert ra.err_c == rb.err_c

    def test_err_c_monotone_once_small(self):
        for seed in (2, 4, 6):
            bundle = isvp.run_experiment(self._config(m=30, n=12, seeds=(seed,)))
            (trial,) = bundle.trials
            assert trial.status == "converged"
            _, c_star = isvp.generate_instance(30, 12, seed)
            threshold = 1e-2 * (1 + np.linalg.norm(c_star))
            errs = [r.err_c for r in trial.report.records]
            for prev, nxt in zip(errs, errs[1:]):
                if prev < threshold:
                    assert nxt < prev

    def test_cond_j_stability_smoke(self):
        for seed in (2, 4, 6):
            inst, c_star = isvp.generate_instance(30, 12, seed)
            f = isvp.full_svd(isvp.evaluate_A(inst, c_star))
            cond_star = np.linalg.cond(isvp.approx_jacobian(f.U, f.V, inst), 2)
            bundle = isvp.run_experiment(self._config(m=30, n=12, seeds=(seed,)))
            (trial,) = bundle.trials
            assert trial.status == "converged"
            for rec in trial.report.records:
                assert rec.cond_j <= 10 * cond_star
                assert rec.cond_j >= cond_star / 10

    @pytest.mark.parametrize(
        "m,n,beta",
        [(40, 24, 1e-3), (60, 24, 1e-4), (80, 40, 1e-4)],
    )
    def test_convergence_fraction_one_across_mu_grid(self, m, n, beta):
        # reduced-size stand-ins for the full benchmark sweep geometry
        for mu in (0.0, 0.001, 0.005, 0.01, 0.05):
            config = self._config(m=m, n=n, beta=beta, mu=mu, seeds=(2, 3, 4))
            bundle = isvp.run_experiment(config)
            assert bundle.aggregate()["converged_fraction"] == 1.0

    @pytest.mark.parametrize(
        "algorithm,floors",
        [
            (isvp.Algorithm.CAYLEY_FREE, (36, 25)),
            (isvp.Algorithm.ALG1, (36, 24)),
            (isvp.Algorithm.NEWTON, (40, 37)),
        ],
    )
    def test_robustness_grid_keeps_its_converged_counts(self, algorithm, floors):
        # the 60x30 grid of the known divergence defect, failing seeds kept:
        # a kernel change that loses convergence lowers these counts
        for beta, floor in zip((1e-3, 1e-2), floors):
            config = self._config(
                m=60, n=30, beta=beta, seeds=tuple(range(1, 41)), algorithm=algorithm
            )
            trials = isvp.run_experiment(config).trials
            converged = sum(t.status == "converged" for t in trials)
            assert converged >= floor, (beta, converged)


class TestOneStepOrder:
    """The order of the k = 0 -> 1 map, fitted across starting distances.

    The slope of log ||c_1 - c*|| against log ||c_0 - c*|| is the order
    of convergence: 3 for both two-step methods from B_0 = J_0^{-1}, 2
    for Newton.  Points at the roundoff floor are dropped.
    """

    BETAS = np.logspace(-2, -5, 7)
    SEEDS = range(1, 11)

    def _slope(self, algorithm, seed):
        inst, c_star = isvp.generate_instance(20, 10, seed)
        config = isvp.SolverConfig(tol=1e-300, max_iter=1)
        floor = 1e-13 * max(1.0, float(np.linalg.norm(c_star)))
        points = []
        for beta in self.BETAS:
            c0 = isvp.perturb_c_star(c_star, beta, seed)
            report, _ = harness.run_solver(algorithm, inst, c0, config, 0.0, seed, c_star)
            err0, err1 = (rec.err_c for rec in report.records)
            if err1 > floor:
                points.append((np.log(err0), np.log(err1)))
        assert len(points) >= 3, (algorithm, seed, points)
        x, y = np.array(points).T
        return np.polyfit(x, y, 1)[0]

    @pytest.mark.parametrize(
        "algorithm,order",
        [
            (isvp.Algorithm.CAYLEY_FREE, 3.0),
            (isvp.Algorithm.ALG1, 3.0),
            (isvp.Algorithm.NEWTON, 2.0),
        ],
    )
    def test_fitted_order(self, algorithm, order):
        slopes = [self._slope(algorithm, seed) for seed in self.SEEDS]
        assert abs(np.median(slopes) - order) <= 0.15, slopes
        assert min(slopes) > order - 0.25, slopes


class TestEmitReports:
    def _bundle(self, seeds=(1, 2)):
        config = isvp.ExperimentConfig(
            m=16, n=6, beta=1e-3, mu=0.0, seeds=seeds,
            algorithm=isvp.Algorithm.CAYLEY_FREE,
        )
        return isvp.run_experiment(config)

    def test_files_written(self, tmp_path):
        bundle = self._bundle()
        paths = isvp.emit_reports(bundle, ["csv", "json"], tmp_path)
        assert sorted(p.name for p in paths) == ["summary.json", "trace.csv"]
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRACE_HEADER
        assert len(rows) > 1

    def test_empty_seed_list_gives_header_only(self, tmp_path):
        config = isvp.ExperimentConfig(
            m=16, n=6, beta=1e-3, mu=0.0, seeds=(),
            algorithm=isvp.Algorithm.CAYLEY_FREE,
        )
        bundle = isvp.run_experiment(config)
        isvp.emit_reports(bundle, ["csv", "json"], tmp_path)
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows == [TRACE_HEADER]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["aggregate"]["trials"] == 0

    def test_csv_json_consistency(self, tmp_path):
        bundle = self._bundle()
        isvp.emit_reports(bundle, ["csv", "json"], tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        with open(tmp_path / "trace.csv") as fh:
            reader = csv.DictReader(fh)
            by_seed = {}
            for row in reader:
                by_seed.setdefault(int(row["seed"]), []).append(row)
        for trial in summary["trials"]:
            rows = by_seed[trial["seed"]]
            assert max(int(r["k"]) for r in rows) == trial["iterations"]
            if trial["status"] == "converged":
                final_d = float(rows[-1]["d_k"])
                assert final_d <= summary["config"]["tol"]
        iters = [t["iterations"] for t in summary["trials"]]
        assert summary["aggregate"]["mean_iterations"] == pytest.approx(np.mean(iters))

    def test_determinism_modulo_time_fields(self, tmp_path):
        rows_a = trace_rows(self._bundle())
        rows_b = trace_rows(self._bundle())
        strip = lambda rows: [r[:-1] for r in rows]  # wall_ms is the last column
        assert strip(rows_a) == strip(rows_b)
        sa = summary_dict(self._bundle())
        sb = summary_dict(self._bundle())
        for key in ("config", "aggregate"):
            da, db = sa[key], sb[key]
            da.pop("mean_total_ms", None)
            db.pop("mean_total_ms", None)
            assert da == db

    def test_root_rate_reported_on_deep_traces(self):
        config = isvp.ExperimentConfig(
            m=40, n=20, beta=1e-2, mu=0.0, seeds=(2, 3),
            algorithm=isvp.Algorithm.CAYLEY_FREE, tol=1e-12,
        )
        bundle = isvp.run_experiment(config)
        rates = [t.root_rate for t in bundle.trials if t.root_rate is not None]
        assert rates and all(rate > 1.5 for rate in rates)
