"""Empirical checks of the optimizer's convergence and estimator claims.

Everything here runs on synthetic objectives with analytic gradients, so
the measured quantities (true gradient norms, estimator bias, moments) are
exact up to Monte-Carlo error. The rate experiment drives the shipped
``hizfo_step`` on a ``QuadraticModel``. The estimator checks run a
vectorized copy of the forward-difference formula the step applies:

    g_hat = (f(theta + mu * u) - f(theta)) / mu * u,   u ~ N(0, I)

restricted to the ZO block. Bias measurements subtract the analytic
control variate (grad . u) u, whose expectation is exactly the gradient;
this removes the O(||grad||) sampling noise that would otherwise swamp
the O(mu^2) bias signal at small mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import QuadraticModel
from .optimizer import OptimizerConfig, hizfo_step
from .rng import step_seed


@dataclass
class TheoryRunSpec:
    d_zo: int = 16
    d_fo: int = 4
    sigma_fo: float = 0.5        # gradient noise scale of every coordinate
    gap0: float = 50.0           # initial optimality gap f(theta_0) - f*
    seed: int = 0

    def curvatures(self) -> np.ndarray:
        """Curvatures from 0.1 to 1.0, so the smoothness constant is 1."""
        d = self.d_zo + self.d_fo
        if d < 2:
            return np.full(d, 1.0)
        return np.geomspace(0.1, 1.0, d)


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


def hybrid_run_min_grad_sq(spec: TheoryRunSpec, T: int) -> tuple[float, bool]:
    """Run T steps of ``hizfo_step`` on the noisy quadratic; return
    (min_t ||grad f(theta_t)||^2, diverged).

    The first d_zo coordinates form the ZO tensor, the rest the FO tensor.
    Before each step the targets move to a fresh offset sigma_fo * xi / c,
    so every coordinate's gradient carries N(0, sigma_fo^2) noise; the
    tracked gradient is the true one of the mean objective, c * theta.
    """
    c = spec.curvatures()
    parts = [(lo, hi) for lo, hi in ((0, spec.d_zo), (spec.d_zo, c.size)) if hi > lo]
    model = QuadraticModel([(hi - lo, c[lo:hi], 0.0) for lo, hi in parts])
    rng = np.random.default_rng(step_seed(spec.seed, T))
    theta = rng.standard_normal(c.size)
    # scale the start so f(theta_0) equals the requested optimality gap
    f0 = QuadraticObjective(c).value(theta)
    if f0 > 0:
        theta *= np.sqrt(spec.gap0 / f0)
    model.flat[:] = theta  # the tensors lie in part order
    model.assign(t.name for t, (lo, _) in zip(model.tensors(), parts) if lo == spec.d_zo)
    eta = 1.0 / np.sqrt(T)
    cfg = OptimizerConfig(eta_fo=eta, eta_zo=eta, epsilon=1.0 / np.sqrt(max(spec.d_zo, 1) * T),
                          alpha=0.0, master_seed=spec.seed)
    batch = model.dummy_batch()
    best = np.inf
    for step in range(T):
        g = c * model.flat
        best = min(best, float(g @ g))
        if not np.isfinite(best):
            return float("inf"), True
        offset = spec.sigma_fo * rng.standard_normal(c.size) / c
        for tgt, (lo, hi) in zip(model.targets, parts):
            tgt[:] = offset[lo:hi]
        if hizfo_step(model, batch, cfg, step).diverged:
            return float("inf"), True
    return best, False


def rate_experiment(spec: TheoryRunSpec, T_grid=(100, 316, 1000, 3162, 10000)) -> RateResult:
    """min ||grad||^2 against the step budget, with a log-log OLS fit."""
    rows = []
    for T in T_grid:
        v, div = hybrid_run_min_grad_sq(spec, int(T))
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
