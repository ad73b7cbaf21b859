import numpy as np

from hizfo.theory import (
    QuadraticObjective,
    QuarticObjective,
    TheoryRunSpec,
    estimator_bias_sq,
    estimator_mean,
    forward_differences,
    hybrid_run_min_grad_sq,
    rate_experiment,
    second_moment_check,
)


class TestEstimatorProperties:
    def test_quadratic_forward_difference_unbiased(self):
        # symmetric noise makes the forward difference exact in expectation
        for d in (4, 16):
            obj = QuadraticObjective(np.linspace(0.5, 2.0, d))
            theta = np.random.default_rng(d).standard_normal(d)
            bias_sq = estimator_bias_sq(obj, theta, 1e-3, 50_000, seed=d)
            assert bias_sq < 1e-8

    def test_quartic_bias_shrinks_when_mu_halves(self):
        obj = QuarticObjective()
        theta = np.full(8, 0.7)
        b1 = estimator_bias_sq(obj, theta, 2e-2, 50_000, seed=1)
        b2 = estimator_bias_sq(obj, theta, 1e-2, 50_000, seed=1)
        assert b2 < b1

    def test_bias_vanishes_in_small_mu_limit(self):
        obj = QuarticObjective()
        theta = np.full(4, 0.7)
        tiny = estimator_bias_sq(obj, theta, 1e-6, 50_000, seed=2)
        assert tiny < 1e-10

    def test_control_variate_matches_raw_mean_estimand(self):
        obj = QuadraticObjective(np.ones(6))
        theta = np.arange(1.0, 7.0)
        cv = estimator_mean(obj, theta, 1e-2, 200_000, seed=3)
        u = np.random.default_rng(3).standard_normal((200_000, 6))
        raw = forward_differences(obj, theta, 1e-2, u).mean(axis=0)
        # both estimate the same expectation; raw is just noisier
        assert np.linalg.norm(cv - raw) < 0.1

    def test_second_moment_bound_holds(self):
        for d in (4, 64):
            measured, bound = second_moment_check(d, n_samples=50_000, seed=d)
            assert measured <= bound


class TestRateExperiment:
    def test_pure_fo_noiseless_quadratic_decays(self):
        spec = TheoryRunSpec(d_zo=0, d_fo=6, sigma_fo=0.0, gap0=10.0, seed=0)
        v10, _ = hybrid_run_min_grad_sq(spec, 10)
        v100, _ = hybrid_run_min_grad_sq(spec, 100)
        assert v100 < v10

    def test_doubling_fo_noise_does_not_lower_intercept(self):
        med = lambda sig: float(np.median([
            rate_experiment(TheoryRunSpec(sigma_fo=sig, seed=s), T_grid=(100, 316, 1000)).intercept
            for s in range(5)
        ]))
        assert med(1.0) >= med(0.5)

    def test_rows_cover_grid(self):
        res = rate_experiment(TheoryRunSpec(seed=0), T_grid=(50, 100, 200))
        assert [r[0] for r in res.rows] == [50, 100, 200]
