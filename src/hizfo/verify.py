"""The estimator and rate checks behind ``hizfo verify``.

Each suite returns a (name, passed, detail) row; the CLI prints one line
per suite and exits nonzero if any fails. ``fast`` shrinks Monte-Carlo
budgets for smoke runs. Every suite can fail: each has a test that
injects a fault into the code it reads and asserts that the suite fails.

The suites run on synthetic objectives with analytic gradients, so the
measured quantities (true gradient norms, estimator bias, moments) are
exact up to Monte-Carlo error. The rate band drives the shipped
``hizfo_step`` on a ``QuadraticModel``. The estimator suites run a
vectorized copy of the forward-difference formula the step applies:

    g_hat = (f(theta + mu * u) - f(theta)) / mu * u,   u ~ N(0, I)

restricted to the ZO block; ``suite_step_estimator`` checks that the step
moves by exactly this estimate. Bias measurements subtract the analytic
control variate (grad . u) u, whose expectation is exactly the gradient;
this removes the O(||grad||) sampling noise that would otherwise swamp
the O(mu^2) bias signal at small mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import two_moons_batches
from .models import MLPModel, QuadraticModel
from .optimizer import OptimizerConfig, hizfo_step
from .rng import add_scaled_noise, regenerate_noise, step_seed

# The rate experiment's noisy quadratic: a ZO block of D_ZO coordinates, an
# FO block of D_FO, every coordinate's gradient noise of scale SIGMA_FO and
# an initial optimality gap f(theta_0) - f* of GAP0.
D_ZO, D_FO, SIGMA_FO, GAP0 = 16, 4, 0.5, 50.0
RATE_SLOPE_BAND = (-1.5, -0.3)


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


def _min_grad_sq(seed: int, T: int) -> tuple[float, bool]:
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
        v, div = _min_grad_sq(seed, int(T))
        rows.append((int(T), v, div))
    good = [(T, v) for T, v, div in rows if not div and v > 0]
    slope, intercept = 0.0, 0.0
    if len(good) >= 2:
        x = np.log10([T for T, _ in good])
        y = np.log10([v for _, v in good])
        slope, intercept = np.polyfit(x, y, 1)
    return RateResult(rows=rows, slope=float(slope), intercept=float(intercept))


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def suite_estimator_unbiasedness(fast=False) -> SuiteResult:
    n = 20_000 if fast else 100_000
    obj = QuadraticObjective(np.linspace(0.5, 1.5, 16))
    theta = np.random.default_rng(11).standard_normal(16) * 2.0
    g = obj.grad(theta)
    mean = estimator_mean(obj, theta, 1e-3, n, seed=11)
    rel = float(np.linalg.norm(mean - g) / np.linalg.norm(g))
    return SuiteResult("estimator_unbiasedness", rel <= 0.01, f"relative error {rel:.2e} (<= 1e-2)")


def suite_bias_scaling(fast=False) -> SuiteResult:
    n = 20_000 if fast else 100_000
    mus = (1e-1, 1e-2, 1e-3, 1e-4)
    obj, theta = QuarticObjective(), np.full(8, 1.0)
    biases = [np.linalg.norm(estimator_mean(obj, theta, mu, n, seed=3, antithetic=True) - obj.grad(theta))
              for mu in mus]
    slope = float(np.polyfit(np.log10(mus), np.log10(biases), 1)[0])
    return SuiteResult("bias_scaling", slope >= 0.8, f"log-log slope {slope:.3f} (>= 0.8)")


def suite_second_moment(fast=False) -> SuiteResult:
    """E[||g_hat||^2] against 1.05 * 2 (d + 1) ||grad||^2, on a quadratic at
    mu = 1e-3, for d = 4 and 64. The sampling-variance constant of the bound
    is zero for a quadratic at this mu, so the 5% slack only covers
    Monte-Carlo error."""
    n = 20_000 if fast else 100_000
    oks, details = [], []
    for d in (4, 64):
        obj = QuadraticObjective(np.linspace(0.5, 1.5, d))
        theta = np.random.default_rng(d).standard_normal(d)
        g = obj.grad(theta)
        measured = estimator_second_moment(obj, theta, 1e-3, n, seed=d)
        bound = 1.05 * (2.0 * (d + 1) * float(g @ g))
        oks.append(measured <= bound)
        details.append(f"d={d}: {measured:.1f} <= {bound:.1f}")
    return SuiteResult("second_moment_bound", all(oks), "; ".join(details))


def suite_rate_band(fast=False) -> SuiteResult:
    grid = (100, 316, 1000, 3162) if fast else (100, 316, 1000, 3162, 10000)
    res = rate_experiment(1, T_grid=grid)
    lo, hi = RATE_SLOPE_BAND
    ok = lo <= res.slope <= hi and not any(div for _, _, div in res.rows)
    return SuiteResult("rate_band", ok, f"slope {res.slope:.3f} in [{lo}, {hi}]")


def suite_restore_exactness(fast=False) -> SuiteResult:
    steps = 20 if fast else 200
    model = MLPModel(dims=(2, 16, 2), seed=1)
    batches = two_moons_batches(4, 32, seed=3)
    model.assign([t.name for t in model.tensors()][:2])
    cfg = OptimizerConfig(eta_fo=0.05, eta_zo=0.005, epsilon=1e-3, master_seed=5)
    eps = cfg.epsilon
    zo = model.zo
    worst = 0.0
    for s in range(steps):
        before = zo.copy()
        probe = step_seed(12345, s)
        (u,) = regenerate_noise([zo.shape], probe)
        add_scaled_noise([zo], probe, +eps)
        add_scaled_noise([zo], probe, -eps)
        denom = np.spacing(np.maximum(np.abs(before), np.abs(before + eps * u)))
        worst = max(worst, float(np.max(np.abs(zo - before) / denom)))
        zo[:] = before  # keep the trajectory clean after probing
        hizfo_step(model, batches[s % 4], cfg, s)
    return SuiteResult("restore_exactness", worst <= 4.0, f"worst deviation {worst:.2f} ulp (<= 4)")


def suite_step_estimator(fast=False) -> SuiteResult:
    """Each step moves the ZO set by -eta_zo times ``forward_differences`` for
    the step's seeded u, so the estimator suites speak for the shipped step."""
    c = np.linspace(0.5, 1.5, 16)
    model = QuadraticModel(blocks=((16, c, 0.0),), seed=0)
    model.assign([])
    cfg = OptimizerConfig(eta_fo=0.1, eta_zo=0.01, epsilon=1e-3, alpha=0.0, master_seed=3)
    obj = QuadraticObjective(c)
    zo = model.zo
    worst = 0.0
    for s in range(20):
        before = zo.copy()
        (u,) = regenerate_noise([zo.shape], step_seed(cfg.master_seed, s))
        want = -cfg.eta_zo * forward_differences(obj, before, cfg.epsilon, u[None])[0]
        hizfo_step(model, model.dummy_batch(), cfg, s)
        worst = max(worst, float(np.linalg.norm(zo - before - want) / np.linalg.norm(want)))
    return SuiteResult("step_estimator", worst <= 1e-9, f"worst relative gap {worst:.2e} (<= 1e-9)")


ALL_SUITES = (
    suite_estimator_unbiasedness,
    suite_bias_scaling,
    suite_second_moment,
    suite_rate_band,
    suite_restore_exactness,
    suite_step_estimator,
)


def verify_all(fast=False) -> list[SuiteResult]:
    return [suite(fast=fast) for suite in ALL_SUITES]
