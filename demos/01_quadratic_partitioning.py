"""Importance profiling and budgeted selection on a toy quadratic.

Three parameter blocks with very different curvatures get scored by a
short gradient-descent warm-up, then the DP picks the subset with the
largest total score that fits a 50% backward-FLOPs budget.
"""

import numpy as np

from hizfo import QuadraticModel, estimate_importance, flops_profile, solve_dp

model = QuadraticModel(
    blocks=((8, 10.0, 0.0), (8, 1.0, 0.0), (8, 0.01, 0.0)),
    seed=0,
)
batch = model.dummy_batch()

profile = estimate_importance(model, [batch], warmup_steps=5, warmup_lr=1e-2)
print("importance scores (normalized by the largest):")
for name, score in profile.scores.items():
    print(f"  {name}: {score:+.4f}   raw {profile.raw_scores[name]:+.3e}")

cost = flops_profile(model, batch_size=1)
print(f"\ntotal backward FLOPs: {cost.total_backward_flops}")

plan = solve_dp(profile, cost, rho=0.5, buckets=10_000)
print(f"\nplan at rho=0.5 (budget {plan.budget_flops:.0f} FLOPs):")
print(f"  first-order:  {plan.fo_set}")
print(f"  zeroth-order: {plan.zo_set}")
print(f"  achieved importance: {plan.achieved_importance:.4f}")
print(f"  consumed FLOPs:      {plan.consumed_flops}")

# steep blocks carry almost all of the score, so the budget goes to them;
# the scores run output-first, so a tie goes to the output-nearest block
assert plan.fo_set and max(profile.scores, key=profile.scores.get) in plan.fo_set
print("\nthe steepest block is selected first, as expected")
