import csv

import numpy as np
import pytest

from hizfo.cli import _profile, main
from hizfo.config import load_config
from hizfo.importance import estimate_importance
from hizfo.models import MLPModel, QuadraticModel, full_gradient
from hizfo.datasets import two_moons_batches
from hizfo.tensors import ConfigurationError


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
        assert prof.normalizer == 0.0

    def test_normalized_max_is_zero_or_one(self):
        for theta0 in (0.0, 2.0):
            m = quadratic_two_blocks(theta0=theta0)
            prof = estimate_importance(m, [m.dummy_batch()], warmup_steps=4, warmup_lr=1e-2)
            assert max(abs(v) for v in prof.scores.values()) in (0.0, 1.0)

    def test_argmax_invariant_under_lr_scaling(self):
        for lr in (5e-3, 1e-2, 2e-2):
            m = quadratic_two_blocks()
            prof = estimate_importance(m, [m.dummy_batch()], warmup_steps=5, warmup_lr=lr)
            assert prof.ranked()[0] == "block0"


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
        with pytest.raises(ConfigurationError):
            estimate_importance(m, two_moons_batches(1, 8, seed=0), warmup_steps=0, warmup_lr=1e-3)

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
        prof = _profile(load_config(cfg))[3]
        with open(tmp_path / "importance.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert {r["tensor"]: float(r["normalized_importance"]) for r in rows} == prof.scores
        assert {r["tensor"]: float(r["raw_importance"]) for r in rows} == prof.raw_scores
        assert {r["tensor"]: int(r["layer_index"]) for r in rows} == prof.layer_index
