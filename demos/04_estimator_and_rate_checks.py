"""Empirical properties of the finite-difference estimator, end to end.

Four views of the estimator the optimizer uses; views 1-3 run a vectorized
copy of its formula and view 4 the shipped hybrid step:
  1. it is unbiased on quadratics,
  2. its bias on a quartic shrinks like the perturbation scale squared,
  3. its second moment obeys the dimension-scaled bound,
  4. the shipped hybrid step's best true gradient norm decays with the step
     budget at the expected log-log slope.
"""

import numpy as np

from hizfo import (
    QuadraticObjective,
    QuarticObjective,
    estimator_mean,
    estimator_second_moment,
    rate_experiment,
)

print("1) unbiasedness on a 16-d quadratic")
obj = QuadraticObjective(np.linspace(0.5, 1.5, 16))
theta = np.random.default_rng(1).standard_normal(16)
g = obj.grad(theta)
mean = estimator_mean(obj, theta, mu=1e-3, n_samples=100_000, seed=1)
print(f"   |E[g_hat] - grad| / |grad| = {np.linalg.norm(mean - g) / np.linalg.norm(g):.2e}")

print("\n2) bias scaling on sum(theta^4)")
quartic = QuarticObjective()
theta4 = np.full(8, 1.0)
print(f"   {'eps':>8} {'bias norm':>12}")
biases, eps_grid = [], (1e-1, 1e-2, 1e-3, 1e-4)
for eps in eps_grid:
    m = estimator_mean(quartic, theta4, mu=eps, n_samples=100_000, seed=2, antithetic=True)
    b = float(np.linalg.norm(m - quartic.grad(theta4)))
    biases.append(b)
    print(f"   {eps:>8.0e} {b:>12.3e}")
slope = np.polyfit(np.log10(eps_grid), np.log10(biases), 1)[0]
print(f"   log-log slope: {slope:.3f} (quadratic-in-eps bias)")

print("\n3) second moment vs 2 (d+1) |grad|^2")
for d in (4, 16, 64):
    o = QuadraticObjective(np.ones(d))
    th = np.random.default_rng(d).standard_normal(d)
    m2 = estimator_second_moment(o, th, mu=1e-3, n_samples=50_000, seed=d)
    bound = 2 * (d + 1) * float(o.grad(th) @ o.grad(th))
    print(f"   d={d:>3}: measured {m2:>10.1f}  bound {bound:>10.1f}")

print("\n4) convergence-rate scan (eta = 1/sqrt(T), mu = 1/sqrt(d_zo T))")
result = rate_experiment(1)
print(f"   {'T':>6} {'min |grad|^2':>14}")
for T, v, diverged in result.rows:
    print(f"   {T:>6} {v:>14.3e}{'  (diverged)' if diverged else ''}")
print(f"   fitted slope {result.slope:.3f}, intercept {result.intercept:.3f}")
