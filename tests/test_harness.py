import csv
import json

import numpy as np
import pytest

import isvp
from isvp import harness
from isvp.core import DenseBasis
from isvp.errors import DegenerateDraw, InputError, NonFiniteInput, NumericalError
from isvp.cayley_free import two_step_start
from isvp.harness import SOLVERS, TRACE_HEADER, residual_log_ratios, run_trial, trace_rows
from isvp.report import SolveStatus


class TestGenerateInstance:
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

    def test_degenerate_draw_is_not_redrawn(self):
        # a zero basis gives A(c*) = 0, whose spectrum fails on the one draw
        operator = DenseBasis(np.zeros((4, 3, 2)))
        draws = []

        def draw(rng):
            draws.append(rng)
            return operator, rng.random(2)

        with pytest.raises(DegenerateDraw) as info:
            harness._draw_instance(draw, 1)
        assert type(info.value.__cause__) is InputError
        assert str(info.value.__cause__) == "target singular values must be strictly positive"
        assert len(draws) == 1

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


GENERATORS = pytest.mark.parametrize(
    "generate", [isvp.generate_instance, isvp.generate_toeplitz_instance], ids=["dense", "toeplitz"]
)


@GENERATORS
@pytest.mark.parametrize(
    "m, n, message",
    [
        (6.0, 3, r"^m and n must be integers, got m=6\.0, n=3$"),
        (6, True, "^m and n must be integers, got m=6, n=True$"),
        (-1, 3, "^require m >= n >= 1, got m=-1, n=3$"),
        (3, 0, "^require m >= n >= 1, got m=3, n=0$"),
    ],
)
def test_both_forms_take_one_shape_check(generate, m, n, message):
    with pytest.raises(InputError, match=message):
        generate(m, n, 1)


@GENERATORS
def test_an_instance_of_numpy_integer_shape_loads_back(generate, tmp_path):
    inst, _ = generate(np.int64(6), np.int64(4), 1)
    assert (type(inst.m), type(inst.n)) == (int, int)
    path = tmp_path / "instance.txt"
    isvp.save_instance(inst, path)
    back = isvp.load_instance(path)
    assert type(back.operator) is type(inst.operator) and (back.m, back.n) == (6, 4)
    np.testing.assert_array_equal(back.basis, inst.basis)
    np.testing.assert_array_equal(back.sigma_star, inst.sigma_star)


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

    @pytest.mark.parametrize("beta", [-1e-3, np.nan, np.inf])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError):
            isvp.perturb_c_star(np.array([0.5, 0.25]), beta, 1)
        with pytest.raises(ValueError):
            isvp.ExperimentConfig(m=6, n=3, beta=beta, mu=0.0, seeds=(1,))

    @pytest.mark.parametrize("beta", [True, False, "1e-3", None])
    def test_rejects_a_beta_that_is_no_real_number(self, beta):
        # a bool would otherwise perturb by beta = 1 (or 0) without an error
        for make in (
            lambda: isvp.perturb_c_star(np.array([0.5, 0.25]), beta, 1),
            lambda: isvp.ExperimentConfig(m=6, n=3, beta=beta, mu=0.0, seeds=(1,)),
        ):
            with pytest.raises(ValueError, match="^beta must be a real number$"):
                make()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_c_star(self, bad):
        with pytest.raises(NonFiniteInput, match=r"^c\* contains NaN or infinity$"):
            isvp.perturb_c_star(np.array([0.5, bad, 0.25]), 1e-3, 1)

    def test_rejects_a_radius_that_overflows(self):
        # the radius 1e308 is finite, the width of the interval is not
        with pytest.raises(ValueError):
            isvp.perturb_c_star(np.ones(3), 1e308, 1)


class TestBuildB0:
    def test_mu_zero_gives_exact_inverse(self, small_instance):
        inst, c_star = small_instance
        state = two_step_start(inst, c_star)
        res = np.linalg.norm(np.eye(inst.n) - state.B @ state.J)
        assert res <= 1e-12 * inst.n
        np.testing.assert_array_equal(isvp.build_B0(state.J, 0.0, 7), state.B)

    def test_mu_hits_target_exactly(self, small_instance):
        # run_solver applies mu to its start's B_0 as build_B0 does to J_0's inverse
        inst, c_star = small_instance
        J0 = two_step_start(inst, c_star).J
        one_step = isvp.SolverConfig(max_iter=1)
        for mu in [0.001, 0.05, 0.3]:
            achieved = np.linalg.norm(np.eye(inst.n) - isvp.build_B0(J0, mu, 7) @ J0, 2)
            assert abs(achieved - mu) <= 1e-10
            _, by_run_solver = harness.run_solver(
                isvp.Algorithm.CAYLEY_FREE, inst, c_star, one_step, mu, 7
            )
            assert by_run_solver == achieved

    def test_singular_jacobian(self):
        with pytest.raises(NumericalError, match="^J0 is singular: "):
            isvp.build_B0(np.zeros((3, 3)), 0.0, 1)

    def test_a_jacobian_that_is_not_square_is_an_input_error(self):
        with pytest.raises(InputError, match=r"^J0 must be square, got shape \(3, 2\)$"):
            isvp.build_B0(np.ones((3, 2)), 0.0, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jacobian(self, bad):
        J0 = np.eye(2)
        J0[1, 0] = bad
        with pytest.raises(NonFiniteInput, match="^J0 contains NaN or infinity$"):
            isvp.build_B0(J0, 0.0, 0)

    @pytest.mark.parametrize("mu", [False, True, "0.1", None])
    def test_rejects_a_mu_that_is_no_real_number(self, mu, small_instance):
        inst, c_star = small_instance
        for make in (
            lambda: isvp.build_B0(np.eye(3), mu, 1),
            lambda: harness.run_solver(
                isvp.Algorithm.CAYLEY_FREE, inst, c_star, isvp.SolverConfig(), mu, 0
            ),
            lambda: isvp.ExperimentConfig(m=6, n=3, beta=1e-3, mu=mu, seeds=(1,)),
        ):
            with pytest.raises(ValueError, match="^mu must be a real number$"):
                make()

    def test_mu_out_of_range(self, small_instance):
        inst, c_star = small_instance
        with pytest.raises(ValueError, match="mu must lie in"):
            isvp.build_B0(np.eye(inst.n), 1.0, 1)
        with pytest.raises(ValueError, match="mu must lie in"):
            harness.run_solver(isvp.Algorithm.CAYLEY_FREE, inst, c_star, isvp.SolverConfig(), 1.0, 1)


def test_every_algorithm_has_one_solver_row_of_callables():
    assert set(SOLVERS) == set(isvp.Algorithm)
    for start, step in SOLVERS.values():
        for module, name in (start, step):
            assert callable(getattr(module, name))


def _run_solver(algorithm):
    def solve(seed):
        inst, c_star = isvp.generate_instance(6, 3, 1)
        return harness.run_solver(algorithm, inst, c_star, isvp.SolverConfig(), 0.0, seed)

    return solve


@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: isvp.generate_instance(6, 3, seed),
        lambda seed: isvp.perturb_c_star(np.array([0.5, 0.25]), 1e-3, seed),
        lambda seed: isvp.build_B0(np.eye(3), 0.5, seed),
        # mu = 0 draws nothing, yet still names the seed
        lambda seed: isvp.build_B0(np.eye(3), 0.0, seed),
        *(_run_solver(algorithm) for algorithm in isvp.Algorithm),
    ],
    ids=["generate_instance", "perturb_c_star", "build_B0", "build_B0-mu0"]
    + [f"run_solver-{a.value}" for a in isvp.Algorithm],
)
def test_a_seeded_draw_names_a_negative_seed(draw):
    with pytest.raises(ValueError, match="^seed -3 is negative; seeds must be non-negative integers$"):
        draw(-3)
    with pytest.raises(ValueError, match="^seed 2.0 is not an integer; seeds must be non-negative integers$"):
        draw(2.0)
    with pytest.raises(ValueError, match="^seed True is not an integer; seeds must be non-negative integers$"):
        draw(True)


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
        ratios = residual_log_ratios(d)
        np.testing.assert_allclose(ratios, [2.4926, 2.2494], atol=2e-3)
        rate = isvp.estimate_root_rate(d)
        assert abs(rate - np.mean(ratios)) < 1e-12

    def test_first_ratio_excluded_when_base_near_one(self):
        # 0.738 > 1/2, so log(d_1)/log(d_0) would be wild and is dropped
        d = [7.38e-1, 3.56e-3, 7.89e-7]
        assert len(residual_log_ratios(d)) == 1

    def test_roundoff_floor_excluded(self):
        d = [0.5, 1e-3, 1e-7, 1e-18, 0.9e-18]
        ratios = residual_log_ratios(d)
        assert len(ratios) == 2  # pairs into and out of 1e-18 are dropped

    def test_insufficient_data(self):
        assert isvp.estimate_root_rate([0.5, 0.1]) is None
        assert isvp.estimate_root_rate([3.0, 2.0, 0.9, 0.8]) is None
        # three residuals below 1, but every base sits above 1/2
        assert isvp.estimate_root_rate([0.9, 0.8, 0.7]) is None


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

    def test_config_rejects_a_bad_stopping_rule(self):
        # checked when the config is built, before any seed is drawn
        with pytest.raises(ValueError, match="^tol must be positive$"):
            self._config(tol=-1.0)
        with pytest.raises(ValueError, match="^max_iter must be at least 1$"):
            self._config(max_iter=0)
        with pytest.raises(ValueError, match="^max_iter must be an integer$"):
            self._config(max_iter=True)

    def test_config_rejects_a_negative_seed(self):
        # checked when the config is built, before seed 1 is solved
        with pytest.raises(ValueError, match="^seed -1 is negative; seeds must be non-negative integers$"):
            self._config(seeds=(1, -1))
        with pytest.raises(ValueError, match="^seed 1.5 is not an integer; seeds must be non-negative integers$"):
            self._config(seeds=(1.5,))
        with pytest.raises(ValueError, match="^seed True is not an integer; seeds must be non-negative integers$"):
            self._config(seeds=(True,))

    def test_config_rejects_a_size_that_is_not_an_integer(self):
        for name, value in (("m", 6.5), ("n", 2.5), ("m", True), ("n", True)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
                self._config(**{name: value})

    def test_config_lists_each_seed_once(self):
        with pytest.raises(ValueError, match="^seed 1 appears more than once$"):
            self._config(seeds=(1, 2, 1))
        with pytest.raises(ValueError, match="^seed 1 appears more than once$"):
            self._config(seeds=(1, np.int64(1)))

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

    def test_an_algorithm_name_runs_that_algorithm(self, small_instance, tmp_path):
        # a value is coerced once; an unknown name never falls through to Cayley-free
        inst, c_star = small_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 1)
        config = isvp.SolverConfig()
        by_name, achieved_mu = harness.run_solver("newton", inst, c0, config, 0.0, 0)
        by_member, _ = harness.run_solver(isvp.Algorithm.NEWTON, inst, c0, config, 0.0, 0)
        assert achieved_mu is None
        assert by_name.residuals == by_member.residuals
        sweep = self._config(algorithm="newton", seeds=(1,))
        assert sweep.algorithm is isvp.Algorithm.NEWTON
        isvp.emit_reports(isvp.run_experiment(sweep), tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["algorithm"] == "newton"
        with pytest.raises(ValueError, match="'bogus' is not a valid Algorithm"):
            harness.run_solver("bogus", inst, c0, config, 0.0, 0)
        with pytest.raises(ValueError, match="'bogus' is not a valid Algorithm"):
            self._config(algorithm="bogus")

    @pytest.mark.parametrize("algorithm", [isvp.Algorithm.ALG1, isvp.Algorithm.NEWTON])
    def test_mu_needs_the_cayley_free_start(self, algorithm, small_instance):
        inst, c_star = small_instance
        c0 = isvp.perturb_c_star(c_star, 1e-3, 1)
        message = f"^{algorithm.value} builds no B_0 from mu; it needs mu = 0$"
        with pytest.raises(ValueError, match=message):
            harness.run_solver(algorithm, inst, c0, isvp.SolverConfig(), 0.3, 0)
        with pytest.raises(ValueError, match=message):
            self._config(algorithm=algorithm, mu=0.3)

    def test_a_raising_seed_becomes_an_error_trial(self, monkeypatch, tmp_path):
        # the start of the second solve of the sweep (seed 2) raises before any record exists
        calls = []
        (module, start), _ = SOLVERS[isvp.Algorithm.ALG1]
        original = getattr(module, start)

        def fail_on_second_call(*args):
            calls.append(1)
            if len(calls) == 2:
                raise NumericalError("J0 is singular")
            return original(*args)

        monkeypatch.setattr(module, start, fail_on_second_call)
        bundle = isvp.run_experiment(self._config(algorithm=isvp.Algorithm.ALG1))
        failed = bundle.trials[1]
        assert failed.seed == 2
        assert failed.status == "error:NumericalError"
        assert failed.report is None
        completed = [bundle.trials[0], bundle.trials[2]]
        assert all(t.report is not None for t in completed)

        agg = bundle.aggregate()
        assert agg["trials"] == 3
        assert agg["mean_iterations"] == pytest.approx(np.mean([t.iterations for t in completed]))
        assert {row[0] for row in trace_rows(bundle)} == {"1", "3"}

        isvp.emit_reports(bundle, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        entry = summary["trials"][1]
        assert entry["seed"] == 2
        assert entry["status"] == "error:NumericalError"
        assert entry["error"] == "J0 is singular"
        assert "report" not in entry

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
            # every record but the last holds the J_k its step formed
            assert trial.report.records[-1].cond_j is None
            for rec in trial.report.records[:-1]:
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
        paths = isvp.emit_reports(bundle, tmp_path)
        assert sorted(p.name for p in paths) == ["summary.json", "trace.csv"]
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRACE_HEADER
        assert len(rows) > 1

    def test_numpy_scalars_write_a_readable_summary(self, tmp_path):
        floats = dict(beta=np.float32(1e-3), mu=np.float32(0.25), tol=np.float32(1e-8))
        config = isvp.ExperimentConfig(
            m=np.int64(16), n=np.int64(6), seeds=np.arange(1, 3), max_iter=np.int64(20),
            **floats,
        )
        isvp.emit_reports(isvp.run_experiment(config), tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [type(t["seed"]) for t in summary["trials"]] == [int, int]
        assert [t["seed"] for t in summary["trials"]] == [1, 2]
        assert [summary["config"][k] for k in ("m", "n", "max_iter")] == [16, 6, 20]
        assert summary["config"]["seeds"] == [1, 2]
        for name, value in floats.items():
            assert type(getattr(config, name)) is float
            assert summary["config"][name] == float(value)
            # a bool is no float: rejected when the config is built, before any solve
            with pytest.raises(ValueError, match=f"^{name} must be a real number$"):
                isvp.ExperimentConfig(
                    **{"m": 16, "n": 6, "beta": 1e-3, "mu": 0.0, "seeds": (1,), name: False}
                )

    def test_empty_seed_list_gives_header_only(self, tmp_path):
        config = isvp.ExperimentConfig(
            m=16, n=6, beta=1e-3, mu=0.0, seeds=(),
            algorithm=isvp.Algorithm.CAYLEY_FREE,
        )
        bundle = isvp.run_experiment(config)
        isvp.emit_reports(bundle, tmp_path)
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows == [TRACE_HEADER]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["aggregate"]["trials"] == 0

    def test_csv_json_consistency(self, tmp_path):
        bundle = self._bundle()
        isvp.emit_reports(bundle, tmp_path)
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

    def test_root_rate_reported_on_deep_traces(self):
        config = isvp.ExperimentConfig(
            m=40, n=20, beta=1e-2, mu=0.0, seeds=(2, 3),
            algorithm=isvp.Algorithm.CAYLEY_FREE, tol=1e-12,
        )
        bundle = isvp.run_experiment(config)
        rates = [t.root_rate for t in bundle.trials if t.root_rate is not None]
        assert rates and all(rate > 1.5 for rate in rates)
