"""Pass/fail suites over the estimator and convergence properties.

Each suite returns a (name, passed, detail) row; the CLI prints one line
per suite and exits nonzero if any fails. ``fast`` shrinks Monte-Carlo
budgets for smoke runs. Every suite can fail: each has a test that
injects a fault into the code it reads and asserts that the suite fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import two_moons_batches
from .models import MLPModel, QuadraticModel
from .optimizer import OptimizerConfig, hizfo_step
from .rng import add_scaled_noise, regenerate_noise, step_seed
from .theory import (
    QuadraticObjective,
    QuarticObjective,
    estimator_bias_sq,
    estimator_mean,
    forward_differences,
    rate_experiment,
    second_moment_check,
)

RATE_SLOPE_BAND = (-1.5, -0.3)


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
    theta = np.full(8, 1.0)
    biases = [np.sqrt(estimator_bias_sq(QuarticObjective(), theta, mu, n, seed=3)) for mu in mus]
    slope = float(np.polyfit(np.log10(mus), np.log10(biases), 1)[0])
    return SuiteResult("bias_scaling", slope >= 0.8, f"log-log slope {slope:.3f} (>= 0.8)")


def suite_second_moment(fast=False) -> SuiteResult:
    n = 20_000 if fast else 100_000
    oks, details = [], []
    for d in (4, 64):
        measured, bound = second_moment_check(d, n_samples=n, seed=d)
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
