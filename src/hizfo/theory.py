"""Empirical checks of the optimizer's convergence and estimator claims.

Everything here runs on synthetic objectives with analytic gradients, so
the measured quantities (true gradient norms, estimator bias, moments) are
exact up to Monte-Carlo error. The rate experiment drives the shipped
``hizfo_step`` on a ``QuadraticModel``. The estimator checks run a
vectorized copy of the forward-difference formula the step applies:

    g_hat = (f(theta + mu * u) - f(theta)) / mu * u,   u ~ N(0, I)

restricted to the ZO block; ``verify.suite_step_estimator`` checks that
the step moves by exactly this estimate. Bias measurements subtract the
analytic control variate (grad . u) u, whose expectation is exactly the
gradient; this removes the O(||grad||) sampling noise that would
otherwise swamp the O(mu^2) bias signal at small mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import QuadraticModel
from .optimizer import OptimizerConfig, hizfo_step
from .rng import step_seed

# The rate experiment's noisy quadratic: a ZO block of D_ZO coordinates, an
# FO block of D_FO, every coordinate's gradient noise of scale SIGMA_FO and
# an initial optimality gap f(theta_0) - f* of GAP0.
D_ZO, D_FO, SIGMA_FO, GAP0 = 16, 4, 0.5, 50.0


class QuadraticObjective:
    """f(theta) = 0.5 * sum(c * theta^2); smoothness constant max(c)."""

    def __init__(self, curvatures):
        self.c = np.asarray(curvatures, dtype=np.float64)

    def value(self, thetas):
        """f over the last axis: a scalar for one point, one value per row of a stack."""
        return 0.5 * (thetas * thetas) @ self.c

    def grad(self, theta):
        return self.c * theta


class QuarticObjective:
    """f(theta) = sum(theta^4); smooth but non-quadratic, so the
    forward-difference estimator has an O(mu^2) mean bias."""

    def value(self, thetas):
        return np.sum(thetas**4, axis=-1)

    def grad(self, theta):
        return 4.0 * theta**3


def forward_differences(objective, theta, mu, u):
    """One forward-difference estimate g_hat per row of ``u``; shape u.shape."""
    diffs = (objective.value(theta + mu * u) - objective.value(theta)) / mu
    return diffs[:, None] * u


def estimator_mean(objective, theta, mu, n_samples, seed=0, antithetic=False):
    """Monte-Carlo estimate of E[g_hat], every coordinate perturbed.

    The sample mean of  g_hat - (grad . u) u  is computed and the analytic
    gradient added back: same estimand as the raw mean of g_hat, variance
    reduced by orders of magnitude. Antithetic pairing (u, -u) additionally
    cancels the odd-order residual, which matters when resolving an O(mu^2)
    bias at small mu. Neither changes the estimand: u stays
    N(0, I)-distributed.
    """
    rng = np.random.default_rng(seed)
    g = objective.grad(theta)
    if antithetic:
        half = max(n_samples // 2, 1)
        u = rng.standard_normal((half, theta.size))
        u = np.concatenate([u, -u])
    else:
        u = rng.standard_normal((n_samples, theta.size))
    ghat = forward_differences(objective, theta, mu, u)
    resid = ghat - (u @ g)[:, None] * u
    return resid.mean(axis=0) + g


def estimator_bias_sq(objective, theta, mu, n_samples, seed=0):
    mean = estimator_mean(objective, theta, mu, n_samples, seed=seed, antithetic=True)
    return float(np.sum((mean - objective.grad(theta)) ** 2))


def estimator_second_moment(objective, theta, mu, n_samples, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n_samples, theta.size))
    ghat = forward_differences(objective, theta, mu, u)
    return float(np.mean(np.sum(ghat * ghat, axis=1)))


@dataclass
class RateResult:
    rows: list = field(default_factory=list)   # (T, min_grad_sq, diverged)
    slope: float = 0.0
    intercept: float = 0.0


def hybrid_run_min_grad_sq(seed: int, T: int) -> tuple[float, bool]:
    """Run T steps of ``hizfo_step`` on the noisy quadratic; return
    (min_t ||grad f(theta_t)||^2, diverged).

    block0 holds the first D_ZO coordinates and is the ZO tensor, block1 the
    rest and the FO tensor. The curvatures run from 0.1 to 1.0, so the
    smoothness constant is 1. Before each step the targets move to a fresh
    offset SIGMA_FO * xi / c, so every coordinate's gradient carries
    N(0, SIGMA_FO^2) noise; the tracked gradient is the true one of the mean
    objective, c * theta.
    """
    c = np.geomspace(0.1, 1.0, D_ZO + D_FO)
    model = QuadraticModel([(D_ZO, c[:D_ZO], 0.0), (D_FO, c[D_ZO:], 0.0)])
    rng = np.random.default_rng(step_seed(seed, T))
    theta = rng.standard_normal(c.size)
    theta *= np.sqrt(GAP0 / QuadraticObjective(c).value(theta))  # f(theta_0) - f* = GAP0
    model.flat[:] = theta  # the tensors lie in block order
    model.assign(["block1"])
    eta = 1.0 / np.sqrt(T)
    cfg = OptimizerConfig(eta_fo=eta, eta_zo=eta, epsilon=1.0 / np.sqrt(D_ZO * T),
                          alpha=0.0, master_seed=seed)
    batch = model.dummy_batch()
    best = np.inf
    for step in range(T):
        g = c * model.flat
        best = min(best, float(g @ g))
        if not np.isfinite(best):
            return float("inf"), True
        offset = SIGMA_FO * rng.standard_normal(c.size) / c
        model.targets[0][:], model.targets[1][:] = offset[:D_ZO], offset[D_ZO:]
        if hizfo_step(model, batch, cfg, step).diverged:
            return float("inf"), True
    return best, False


def rate_experiment(seed: int, T_grid=(100, 316, 1000, 3162, 10000)) -> RateResult:
    """min ||grad||^2 against the step budget, with a log-log OLS fit."""
    rows = []
    for T in T_grid:
        v, div = hybrid_run_min_grad_sq(seed, int(T))
        rows.append((int(T), v, div))
    good = [(T, v) for T, v, div in rows if not div and v > 0]
    slope, intercept = 0.0, 0.0
    if len(good) >= 2:
        x = np.log10([T for T, _ in good])
        y = np.log10([v for _, v in good])
        slope, intercept = np.polyfit(x, y, 1)
    return RateResult(rows=rows, slope=float(slope), intercept=float(intercept))


def second_moment_check(d_zo, n_samples=100_000, seed=0):
    """E[||g_hat||^2] against 1.05 * 2 (d_zo + 1) ||grad||^2, on a quadratic
    at mu = 1e-3.

    Returns (measured, bound). The sampling-variance constant of the bound
    is zero for a quadratic at this mu, so the 5% slack only covers
    Monte-Carlo error.
    """
    obj = QuadraticObjective(np.linspace(0.5, 1.5, d_zo))
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(d_zo)
    g = obj.grad(theta)
    measured = estimator_second_moment(obj, theta, 1e-3, n_samples, seed=seed)
    bound = 1.05 * (2.0 * (d_zo + 1) * float(g @ g))
    return measured, bound
