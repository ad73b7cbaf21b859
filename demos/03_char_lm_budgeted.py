"""Budgeted fine-tuning of the attention LM on a character corpus.

The cost model makes the attention blocks' weight matrices by far the most
expensive tensors to reach with backprop, so the rho=0.6 plan sends them
to zeroth-order updates and keeps the cheap head, biases, and embeddings
first-order. The expensive matrices still adapt, just without gradients.
"""

import numpy as np

from hizfo import (
    CharCorpus,
    OptimizerConfig,
    TinyAttentionLM,
    estimate_importance,
    flops_profile,
    solve_dp,
    train,
)

rng = np.random.default_rng(0)
WORDS = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "far", "sun"]
text = (" ".join(rng.choice(WORDS) for _ in range(8000))).encode()
corpus = CharCorpus(text, context=16)
print(f"corpus: {len(text)} bytes, vocabulary {corpus.vocab.size}")

model = TinyAttentionLM(vocab_size=corpus.vocab.size, d_model=16, depth=2, context=16, seed=0)
batches = corpus.batches(8, 8, seed=0)
eval_batches = corpus.batches(2, 8, seed=10_000)

profile = estimate_importance(model, batches, warmup_steps=3, warmup_lr=1e-3)
cost = flops_profile(model, 8)
plan = solve_dp(profile, cost, rho=0.6)

print(f"\nbackward-FLOPs budget: 0.6 * {cost.total_backward_flops} = {plan.budget_flops:.0f}")
print(f"plan consumes {plan.consumed_flops} FLOPs per truncated backward")
print(f"first-order tensors:  {plan.fo_set}")
print(f"zeroth-order tensors: {plan.zo_set}")

cfg = OptimizerConfig(
    eta_fo=0.05, eta_zo=0.005, epsilon=1e-3, alpha=0.1,
    master_seed=0, max_steps=400, eval_interval=100,
)
report = train(model, batches, cfg, plan, "hizfo", eval_batches=eval_batches)

print(f"\nloss curve (eval every {cfg.eval_interval} steps):")
for step, loss in report.eval_history:
    print(f"  step {step:>4}: {loss:.4f}")
print(f"\nuniform-guess loss would be ln({corpus.vocab.size}) = {np.log(corpus.vocab.size):.3f}")
