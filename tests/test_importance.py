import csv

import numpy as np
import pytest

from hizfo import importance
from hizfo.cli import _profile, main
from hizfo.config import load_config
from hizfo.importance import estimate_importance
from hizfo.models import MLPModel, QuadraticModel, TinyAttentionLM, full_gradient
from hizfo.datasets import CharCorpus, two_moons_batches
from hizfo.tensors import ConfigurationError
from test_acceptance import synth_text
from test_models import tensor_named


def quadratic_two_blocks(c0=10.0, c1=0.1, theta0=1.0):
    m = QuadraticModel(blocks=((3, c0, 0.0), (3, c1, 0.0)), seed=0)
    for t in m.tensors():
        t.data[:] = theta0
    return m


def closed_form_score(c, theta0, lr, steps):
    # plain gradient descent on 0.5*c*theta^2: theta_t = (1 - lr c)^t theta0,
    # last update -lr*c*theta_{n-1}, gradient at theta_n is c*theta_n
    return lr * c * c * theta0 * theta0 * (1 - lr * c) ** (2 * steps - 1)


class TestQuadraticClosedForm:
    def test_raw_scores_match_closed_form(self):
        m = quadratic_two_blocks()
        lr, steps = 1e-2, 5
        prof = estimate_importance(m, [m.dummy_batch()], warmup_steps=steps, warmup_lr=lr)
        for name, c in (("block0", 10.0), ("block1", 0.1)):
            expected = 3 * closed_form_score(c, 1.0, lr, steps)  # 3 coordinates per block
            assert abs(prof.raw_scores[name] - expected) < 1e-12 * max(1.0, abs(expected))

    def test_high_curvature_block_wins(self):
        m = quadratic_two_blocks()
        prof = estimate_importance(m, [m.dummy_batch()], warmup_steps=5, warmup_lr=1e-2)
        assert prof.scores["block0"] > prof.scores["block1"] > 0.0
        assert prof.scores["block0"] == 1.0

    def test_at_minimum_all_scores_zero(self):
        m = quadratic_two_blocks(theta0=0.0)
        prof = estimate_importance(m, [m.dummy_batch()], warmup_steps=3, warmup_lr=1e-2)
        assert all(v == 0.0 for v in prof.scores.values())

    def test_normalized_max_is_zero_or_one(self):
        for theta0 in (0.0, 2.0):
            m = quadratic_two_blocks(theta0=theta0)
            prof = estimate_importance(m, [m.dummy_batch()], warmup_steps=4, warmup_lr=1e-2)
            assert max(abs(v) for v in prof.scores.values()) in (0.0, 1.0)

    def test_argmax_invariant_under_lr_scaling(self):
        for lr in (5e-3, 1e-2, 2e-2):
            m = quadratic_two_blocks()
            prof = estimate_importance(m, [m.dummy_batch()], warmup_steps=5, warmup_lr=lr)
            assert max(prof.scores, key=prof.scores.get) == "block0"


class TestProtocol:
    def test_parameters_restored_bit_identical(self):
        m = MLPModel(dims=(2, 16, 2), seed=8)
        before = [t.data.copy() for t in m.tensors()]
        estimate_importance(m, two_moons_batches(3, 16, seed=2), warmup_steps=4, warmup_lr=1e-3)
        for t, b in zip(m.tensors(), before):
            assert np.array_equal(t.data, b)

    def test_empty_data_rejected(self):
        m = MLPModel(dims=(2, 16, 2), seed=8)
        with pytest.raises(ConfigurationError):
            estimate_importance(m, [], warmup_steps=3, warmup_lr=1e-3)

    def test_warmup_steps_validated(self):
        m = MLPModel(dims=(2, 16, 2), seed=8)
        for steps in (0, 2.5, 2.0):  # a float count is rejected, not truncated
            with pytest.raises(ConfigurationError, match="warmup_steps"):
                estimate_importance(m, two_moons_batches(1, 8, seed=0), warmup_steps=steps, warmup_lr=1e-3)
        estimate_importance(m, two_moons_batches(1, 8, seed=0), warmup_steps=np.int64(2), warmup_lr=1e-3)

    def test_scores_keyed_by_model_tensors(self):
        m = MLPModel(dims=(2, 16, 2), seed=8)
        prof = estimate_importance(m, two_moons_batches(2, 16, seed=2), warmup_steps=2, warmup_lr=1e-3)
        assert set(prof.scores) == {t.name for t in m.tensors()}

    def test_isolated_replay_sign_property(self):
        # a tensor whose last update reduced the loss in isolation scores >= 0
        m = quadratic_two_blocks()
        lr, steps = 1e-2, 5
        prof = estimate_importance(m, [m.dummy_batch()], warmup_steps=steps, warmup_lr=lr)
        batch = m.dummy_batch()
        for idx, name in enumerate(("block0", "block1")):
            replay = quadratic_two_blocks()
            # replay the warm-up on this tensor only, all others frozen
            tensor = replay.tensors()[idx]
            last = None
            for _ in range(steps):
                g = full_gradient(replay, batch)[name]
                last = -lr * g
                tensor.data += last
            before = replay.forward(batch)
            tensor.data -= last
            undone = replay.forward(batch)
            tensor.data += last
            if undone > before:  # the last update reduced the isolated loss
                assert prof.scores[name] >= 0.0

    def test_csv_roundtrip(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[model]\nkind = mlp\nhidden_dims = 4\n"
            "[task]\nbatch_size = 8\ntrain_batches = 2\n[partition]\nwarmup_steps = 3\nwarmup_lr = 1e-2\n"
        )
        assert main(["profile", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        model, _, _, prof, _ = _profile(load_config(cfg))
        with open(tmp_path / "importance.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert {r["tensor"]: float(r["normalized_importance"]) for r in rows} == prof.scores
        assert {r["tensor"]: float(r["raw_importance"]) for r in rows} == prof.raw_scores
        assert [(r["tensor"], int(r["layer_index"])) for r in rows] == [(t.name, t.layer_index) for t in model.tensors()]


# The score claims the first-order loss rise from undoing each tensor's last
# warm-up update. The check measures that rise as the central difference
# (L(theta - d) - L(theta + d)) / 2 at the post-warm-up weights, d the
# tensor's last update, whose error is third order in d: 2N + 1 forward
# passes. A one-sided rise errs by about as much as a pre-update gradient
# does, so no bound would tell them apart. (model, batches, warm-up steps),
# both at a warm-up rate of 1e-3: the mlp_moons_train MLP and criterion 10's LM.
_CORPUS = CharCorpus(synth_text(), context=16)
_SCORE_SETUPS = {
    "mlp": lambda s: (MLPModel(dims=(2, 16, 2), seed=s), two_moons_batches(8, 64, noise=0.2, seed=s), 5),
    "lm": lambda s: (TinyAttentionLM(_CORPUS.vocab.size, d_model=16, depth=2, context=16, seed=s),
                     _CORPUS.batches(8, 8, seed=s), 3),
}
UNDO_RISE_RTOL = 1e-4


def measured_undo_rise(model, batches, steps, lr=1e-3):
    """Replay the warm-up, then measure each tensor's central-difference rise."""
    last = {}
    for s in range(steps):
        batch = batches[s % len(batches)]
        grads = full_gradient(model, batch)
        for t in model.tensors():
            last[t.name] = -lr * grads[t.name]
            t.data += last[t.name]
    rise = {}
    for t in model.tensors():
        post = t.data.copy()
        t.data[:] = post - last[t.name]
        undone = model.forward(batch)
        t.data[:] = post + last[t.name]
        redone = model.forward(batch)
        t.data[:] = post
        rise[t.name] = (undone - redone) / 2
    return rise


def worst_score_error(kind, seed, fault=None):
    """The largest relative error of a raw score against its measured rise."""
    model, batches, steps = _SCORE_SETUPS[kind](seed)
    raw = estimate_importance(model, batches, warmup_steps=steps, warmup_lr=1e-3).raw_scores
    if fault is not None:
        raw = fault(model, batches, steps, raw)
    rise = measured_undo_rise(model, batches, steps)
    return max(abs(raw[n] - rise[n]) / abs(rise[n]) for n in rise)


def _pre_update_gradient(model, batches, steps, raw):
    """Score again with the last full_gradient call returning the one before it."""
    seen = []

    def stale(m, b):
        seen.append(real(m, b))
        return seen[-2] if len(seen) == steps + 1 else seen[-1]

    real, importance.full_gradient = importance.full_gradient, stale
    try:
        return estimate_importance(model, batches, warmup_steps=steps, warmup_lr=1e-3).raw_scores
    finally:
        importance.full_gradient = real


_FAULTS = {
    "pre_update_gradient": _pre_update_gradient,
    "sign_flip": lambda model, batches, steps, raw: {n: -v for n, v in raw.items()},
    "divided_by_size": lambda model, batches, steps, raw: {n: v / tensor_named(model, n).size for n, v in raw.items()},
}


class TestScoreIsTheUndoRise:
    @pytest.mark.parametrize("kind", sorted(_SCORE_SETUPS))
    def test_raw_score_matches_the_measured_undo_rise(self, kind):
        for seed in range(5):
            assert worst_score_error(kind, seed) <= UNDO_RISE_RTOL, (kind, seed)

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    @pytest.mark.parametrize("kind", sorted(_SCORE_SETUPS))
    def test_each_injected_fault_fails_the_check(self, kind, fault):
        # the check can fail: every seed's worst error is above the bound
        for seed in range(5):
            assert worst_score_error(kind, seed, _FAULTS[fault]) > UNDO_RISE_RTOL, (kind, fault, seed)
