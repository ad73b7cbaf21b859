"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. Comparative criteria (8-11) pin their full experiment
configuration here so reruns are deterministic.
"""

import csv
import time

import numpy as np
import pytest

from hizfo import cli
from hizfo.datasets import CharCorpus, two_moons_batches
from hizfo.importance import ImportanceProfile, estimate_importance
from hizfo.models import (
    CostEntry,
    CostModel,
    MLPModel,
    QuadraticModel,
    TinyAttentionLM,
    backward_truncated,
    flops_profile,
    full_gradient,
)
from hizfo.optimizer import OptimizerConfig, hizfo_step, train
from hizfo.partition import apply_plan, brute_force_select, solve_dp
from hizfo.rng import add_scaled_noise, regenerate_noise, step_seed
from hizfo.tensors import Batch
from hizfo.verify import (
    QuadraticObjective,
    QuarticObjective,
    estimator_mean,
    estimator_second_moment,
    rate_experiment,
)
from test_models import tensor_named


def criterion(number, name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


# --- shared two-moons experiment (criteria 8, 9, 11) ----------------------

MOONS = dict(batch_size=64, train_batches=8, eval_batches=4, noise=0.2)
MOONS_OPT = dict(eta_fo=0.05, eta_zo=0.005, epsilon=1e-3, max_steps=600, eval_interval=10**9)


def moons_run(algorithm, seed, alpha=0.1):
    model = MLPModel(dims=(2, 16, 2), seed=seed)
    batches = two_moons_batches(MOONS["train_batches"], MOONS["batch_size"],
                                noise=MOONS["noise"], seed=seed)
    eval_batches = two_moons_batches(MOONS["eval_batches"], MOONS["batch_size"],
                                     noise=MOONS["noise"], seed=seed + 10_000)
    profile = estimate_importance(model, batches, warmup_steps=5, warmup_lr=1e-3)
    cost = flops_profile(model, MOONS["batch_size"])
    plan = solve_dp(profile, cost, 0.6, 10_000)
    cfg = OptimizerConfig(master_seed=seed, alpha=alpha, **MOONS_OPT)
    report = train(model, batches, cfg, plan, algorithm, eval_batches=eval_batches)
    return float("inf") if report.diverged else report.final_eval_loss


@pytest.fixture(scope="module")
def moons_results():
    seeds = range(5)
    return {
        "hizfo": [moons_run("hizfo", s) for s in seeds],
        "mezo": [moons_run("mezo", s) for s in seeds],
        "frozen": [moons_run("frozen_subset", s) for s in seeds],
        "alpha0": [moons_run("hizfo", s, alpha=0.0) for s in seeds],
    }


# --- criteria --------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(1)
    lm = TinyAttentionLM(vocab_size=20, d_model=8, depth=2, context=8, seed=3)
    cases = [
        ("quadratic", QuadraticModel(blocks=((6, 2.0, 0.5), (4, 0.3, -1.0)), seed=1), None),
        ("quadratic_per_coordinate", QuadraticModel(blocks=((3, [0.1, 1.0, 5.0], 0.5),), seed=2), None),
        ("mlp", MLPModel(dims=(2, 16, 2), seed=3), two_moons_batches(1, 16, seed=5)[0]),
        ("attention_lm", lm,
         Batch(rng.integers(0, 20, (4, 8)), rng.integers(0, 20, (4, 8)))),
    ]
    worst = 0.0
    h = 1e-5
    for name, model, batch in cases:
        if batch is None:
            batch = model.dummy_batch()
        grads = full_gradient(model, batch)
        tensors = model.tensors()
        for _ in range(100):
            t = tensors[rng.integers(len(tensors))]
            i = int(rng.integers(t.size))
            orig = t.data[i]
            t.data[i] = orig + h
            lp = model.forward(batch)
            t.data[i] = orig - h
            lmv = model.forward(batch)
            t.data[i] = orig
            fd = (lp - lmv) / (2 * h)
            g = grads[t.name][i]
            worst = max(worst, abs(g - fd) / max(abs(g), abs(fd), 1e-4))
    elapsed = time.time() - t0
    criterion(1, "gradient correctness", worst <= 1e-5 and elapsed < 30,
              f"worst relative error {worst:.2e} (<= 1e-5), {elapsed:.1f}s (< 30s)")


def test_criterion_02_estimator_unbiasedness():
    t0 = time.time()
    obj = QuadraticObjective(np.linspace(0.5, 1.5, 16))
    theta = np.random.default_rng(11).standard_normal(16) * 2.0
    g = obj.grad(theta)
    mean = estimator_mean(obj, theta, mu=1e-3, n_samples=100_000, seed=11)
    rel = float(np.linalg.norm(mean - g) / np.linalg.norm(g))
    elapsed = time.time() - t0
    criterion(2, "estimator unbiasedness", rel <= 0.01 and elapsed < 10,
              f"|mean - grad| / |grad| = {rel:.2e} (<= 1e-2) over 1e5 probes, {elapsed:.1f}s (< 10s)")


def test_criterion_03_bias_scaling():
    eps_grid = (1e-1, 1e-2, 1e-3, 1e-4)
    theta = np.full(8, 1.0)
    obj = QuarticObjective()
    biases = []
    for i, eps in enumerate(eps_grid):
        g = obj.grad(theta)
        mean = estimator_mean(obj, theta, mu=eps, n_samples=100_000, seed=100 + i, antithetic=True)
        biases.append(float(np.linalg.norm(mean - g)))
    slope = float(np.polyfit(np.log10(eps_grid), np.log10(biases), 1)[0])
    criterion(3, "bias scaling", slope >= 0.8,
              f"log-log slope of bias vs eps = {slope:.3f} (>= 0.8)")


def test_criterion_04_second_moment_bound():
    details, ok = [], True
    for d in (4, 64):
        obj = QuadraticObjective(np.linspace(0.5, 1.5, d))
        theta = np.random.default_rng(d).standard_normal(d)
        g = obj.grad(theta)
        measured = estimator_second_moment(obj, theta, mu=1e-3, n_samples=100_000, seed=d)
        bound = 1.05 * (2 * (d + 1) * float(g @ g))  # sampling-variance term is 0 on a quadratic
        ok &= measured <= bound
        details.append(f"d={d}: {measured:.1f} <= {bound:.1f}")
    criterion(4, "second-moment bound", ok, "; ".join(details))


def test_criterion_05_restore_exactness():
    model = MLPModel(dims=(2, 16, 2), seed=1)
    batches = two_moons_batches(4, 32, seed=3)
    names = [t.name for t in model.tensors()]
    profile = ImportanceProfile({n: 1.0 for n in names}, {n: 1.0 for n in names})
    plan = solve_dp(profile, flops_profile(model, 32), 0.6, 10_000)
    apply_plan(model, plan)
    cfg = OptimizerConfig(eta_fo=0.05, eta_zo=0.005, epsilon=1e-3, alpha=0.1, master_seed=5)
    eps = cfg.epsilon
    zo = [tensor_named(model, n) for n in plan.zo_set]
    shapes = [t.data.shape for t in zo]
    init_zo = [t.data.copy() for t in zo]
    worst_ulp = 0.0
    records = []
    for s in range(1000):
        arrays = [t.data for t in zo]
        before = [a.copy() for a in arrays]
        probe = step_seed(424242, s)
        us = regenerate_noise(shapes, probe)
        add_scaled_noise(arrays, probe, +eps)
        add_scaled_noise(arrays, probe, -eps)
        for a, b, u in zip(arrays, before, us):
            denom = np.spacing(np.maximum(np.abs(b), np.abs(b + eps * u)))
            worst_ulp = max(worst_ulp, float(np.max(np.abs(a - b) / denom)))
            a[:] = b
        records.append(hizfo_step(model, batches[s % 4], cfg, s))

    # mirrored run: perturbation disabled, ZO updates replayed from records
    mirror = [a.copy() for a in init_zo]
    for s, rec in enumerate(records):
        coef = (rec.L_ZO - rec.L_FO) / eps
        add_scaled_noise(mirror, step_seed(cfg.master_seed, s), -cfg.eta_zo * coef)
    run_vec = np.concatenate([t.data for t in zo])
    mirror_vec = np.concatenate([a.ravel() for a in mirror])
    drift = float(np.linalg.norm(run_vec - mirror_vec) / max(np.linalg.norm(mirror_vec), 1e-30))
    criterion(5, "restore exactness", worst_ulp <= 4.0 and drift <= 1e-9,
              f"worst per-element deviation {worst_ulp:.2f} ulp (<= 4), "
              f"replay drift {drift:.2e} (<= 1e-9) over 1000 steps")


def test_criterion_06_dp_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    over = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        grads = rng.integers(1, 51, n)
        props = rng.integers(0, 21, n)
        entries = [CostEntry(f"t{i}", i, int(grads[i]), int(props[i]), 0) for i in range(n)]
        cost = CostModel(entries)
        scores = {f"t{i}": float(rng.uniform(0, 1)) for i in range(n)}
        prof = ImportanceProfile(dict(scores), dict(scores))
        rho = float(rng.uniform(0.1, 0.95))
        dp = solve_dp(prof, cost, rho, buckets=100_000)
        bf = brute_force_select(prof, cost, rho)
        worst_gap = max(worst_gap, bf.achieved_importance - dp.achieved_importance)
        if dp.achieved_importance > bf.achieved_importance + 1e-12:
            over += 1

    # cost audit: the plan's consumed FLOPs equal the measured backward tally
    audits_exact = True
    model = MLPModel(dims=(2, 16, 8, 2), seed=0)
    batches = two_moons_batches(1, 16, seed=1)
    profile = estimate_importance(model, batches, warmup_steps=2, warmup_lr=1e-3)
    cm = flops_profile(model, 16)
    for rho in (0.3, 0.6, 0.9, 1.0):
        plan = solve_dp(profile, cm, rho, buckets=10_000)
        if not plan.fo_set:
            continue
        before = model.tally.backward
        backward_truncated(model, batches[0], plan.fo_set)
        audits_exact &= (model.tally.backward - before) == plan.consumed_flops
    elapsed = time.time() - t0
    criterion(6, "DP oracle equivalence",
              worst_gap <= 1e-9 and over == 0 and audits_exact and elapsed < 60,
              f"worst importance gap {worst_gap:.2e} (<= 1e-9) over 200 instances, "
              f"cost audits exact: {audits_exact}, {elapsed:.1f}s (< 60s)")


def test_criterion_07_convergence_rate_band():
    t0 = time.time()
    res = rate_experiment(1)
    elapsed = time.time() - t0
    ok = -1.5 <= res.slope <= -0.3 and not any(d for _, _, d in res.rows) and elapsed < 120
    criterion(7, "convergence-rate band", ok,
              f"log-log slope {res.slope:.3f} in [-1.5, -0.3], {elapsed:.1f}s (< 120s)")


def test_criterion_08_beats_pure_zo(moons_results):
    wins = sum(h < m for h, m in zip(moons_results["hizfo"], moons_results["mezo"]))
    criterion(8, "directional superiority over pure ZO", wins >= 4,
              f"hybrid beat the pure-ZO baseline on {wins}/5 seeds (need >= 4)")


def test_criterion_09_beats_frozen_subset(moons_results):
    mh = float(np.median(moons_results["hizfo"]))
    mf = float(np.median(moons_results["frozen"]))
    criterion(9, "directional superiority over frozen subset", mh <= mf,
              f"hybrid median {mh:.4f} <= frozen-subset median {mf:.4f}")


def synth_text(n_words=6000, seed=0):
    rng = np.random.default_rng(seed)
    words = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "far", "big", "red", "sun"]
    return (" ".join(rng.choice(words) for _ in range(n_words))).encode()


# criterion 10's LM; `hizfo sweep` sets each run's model, data and step seed
LM_SWEEP_CONFIG = """\
[model]
kind = attention_lm
d_model = 16
depth = 2
context = 16

[task]
dataset = char_corpus
batch_size = 8
train_batches = 8
eval_batches = 2
corpus_path = {corpus}

[optimizer]
algorithm = hizfo
eta_fo = 0.05
epsilon = 0.001
alpha = 0.1
max_steps = 300
eval_interval = 1000000000

[partition]
rho = 0.6
buckets = 10000
warmup_steps = 3
warmup_lr = 0.001
"""


@pytest.fixture(scope="module")
def lm_r_sweep(tmp_path_factory):
    """The rows of the shipped `hizfo sweep --axis r` over seeds 0-4, as
    (r, seed, final eval loss, diverged); a diverged run's loss is inf."""
    tmp = tmp_path_factory.mktemp("lm_r_sweep")
    (tmp / "corpus.txt").write_bytes(synth_text())
    (tmp / "lm.ini").write_text(LM_SWEEP_CONFIG.format(corpus=tmp / "corpus.txt"))
    assert cli.main(["sweep", "--config", str(tmp / "lm.ini"), "--out", str(tmp / "out"),
                     "--axis", "r", "--values", "0.1,0.3,0.5,0.7,0.9", "--seed", "0"]) == 0
    with open(tmp / "out" / "sweep.csv", newline="") as f:
        return [(float(row["value"]), int(row["seed"]), float(row["final_eval_loss"]),
                 row["diverged"] == "1") for row in csv.DictReader(f)]


def test_criterion_10_r_sweep_instability(lm_r_sweep):
    medians, any_div, worst_high_r = {}, False, 0.0
    for r in (0.1, 0.3, 0.5, 0.7, 0.9):
        runs = [(loss, d) for value, _, loss, d in lm_r_sweep if value == r]
        assert len(runs) == 5, f"r={r}: {len(runs)} sweep rows"
        losses = [x[0] for x in runs]
        medians[r] = float(np.median(losses))
        if r >= 0.7:
            any_div |= any(d for _, d in runs)
            worst_high_r = max(worst_high_r, max(losses))
    stable_best = medians[0.1] < medians[0.7] and medians[0.1] < medians[0.9]
    blowup = any_div or worst_high_r >= 2 * medians[0.1]
    criterion(10, "r-sweep instability", stable_best and blowup,
              f"median(r=0.1)={medians[0.1]:.3f} vs r=0.7: {medians[0.7]}, r=0.9: {medians[0.9]}; "
              f"divergence at high r: {any_div}")


def test_criterion_11_alpha_ablation(moons_results):
    m_alpha = float(np.median(moons_results["hizfo"]))
    m_zero = float(np.median(moons_results["alpha0"]))
    criterion(11, "alpha-ablation direction", m_alpha <= m_zero,
              f"alpha=0.1 median {m_alpha:.4f} <= alpha=0 median {m_zero:.4f}")


def test_criterion_12_flops_budget():
    details, ok = [], True
    cases = [
        ("mlp", MLPModel(dims=(2, 16, 8, 2), seed=0),
         two_moons_batches(1, 16, seed=1)),
    ]
    corpus = CharCorpus(synth_text(), context=16)
    lm = TinyAttentionLM(vocab_size=corpus.vocab.size, d_model=16, depth=2, context=16, seed=0)
    cases.append(("attention_lm", lm, corpus.batches(1, 8, seed=0)))
    for name, model, batches in cases:
        profile = estimate_importance(model, batches, warmup_steps=2, warmup_lr=1e-3)
        cost = flops_profile(model, batches[0].size)
        buckets = 10_000
        plan = solve_dp(profile, cost, 0.6, buckets)
        apply_plan(model, plan)
        cfg = OptimizerConfig(eta_fo=1e-3, eta_zo=1e-4, epsilon=1e-3, alpha=0.1, master_seed=0)
        rec = hizfo_step(model, batches[0], cfg, 0)
        limit = 0.6 * cost.total_backward_flops + cost.total_backward_flops / buckets
        ok &= rec.backward_flops <= limit
        details.append(f"{name}: {rec.backward_flops} <= {limit:.0f}")
    criterion(12, "FLOPs budget at rho=0.6", ok, "; ".join(details))
