import numpy as np

from hizfo.models import QuadraticModel
from hizfo.optimizer import OptimizerConfig, hizfo_step
from hizfo.verify import (
    QuadraticObjective,
    QuarticObjective,
    estimator_mean,
    forward_differences,
    rate_experiment,
    suite_second_moment,
)


def squared_bias(obj, theta, mu, n, seed):
    mean = estimator_mean(obj, theta, mu, n, seed=seed, antithetic=True)
    return float(np.sum((mean - obj.grad(theta)) ** 2))


class TestEstimatorProperties:
    def test_quadratic_forward_difference_unbiased(self):
        # symmetric noise makes the forward difference exact in expectation
        for d in (4, 16):
            obj = QuadraticObjective(np.linspace(0.5, 2.0, d))
            theta = np.random.default_rng(d).standard_normal(d)
            bias_sq = squared_bias(obj, theta, 1e-3, 50_000, seed=d)
            assert bias_sq < 1e-8

    def test_quartic_bias_shrinks_when_mu_halves(self):
        obj = QuarticObjective()
        theta = np.full(8, 0.7)
        b1 = squared_bias(obj, theta, 2e-2, 50_000, seed=1)
        b2 = squared_bias(obj, theta, 1e-2, 50_000, seed=1)
        assert b2 < b1

    def test_bias_vanishes_in_small_mu_limit(self):
        obj = QuarticObjective()
        theta = np.full(4, 0.7)
        tiny = squared_bias(obj, theta, 1e-6, 50_000, seed=2)
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
        result = suite_second_moment(fast=True)
        assert result.passed, result.detail


class TestRateExperiment:
    def test_pure_fo_noiseless_quadratic_decays(self):
        # a hybrid step with an empty ZO set is a plain gradient step, so the
        # gradient norm falls at every step
        c = np.geomspace(0.1, 1.0, 6)
        m = QuadraticModel(blocks=((6, c, 0.0),), seed=0)  # a new model is all FO
        assert m.zo.size == 0
        cfg = OptimizerConfig(eta_fo=0.1, eta_zo=0.1, epsilon=1e-3, alpha=0.0, master_seed=0)
        sq = []
        for step in range(100):
            g = c * m.flat
            sq.append(float(g @ g))
            rec = hizfo_step(m, m.dummy_batch(), cfg, step)
            assert not rec.diverged and rec.L_ZO == rec.L_FO and rec.zo_estimate_norm == 0.0
        assert all(b < a for a, b in zip(sq, sq[1:]))
        assert sq[-1] < 1e-2 * sq[0]

    def test_rows_cover_grid(self):
        res = rate_experiment(0, T_grid=(50, 100, 200))
        assert [r[0] for r in res.rows] == [50, 100, 200]
