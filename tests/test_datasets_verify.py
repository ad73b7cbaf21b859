import dataclasses

import numpy as np
import pytest

from hizfo import cli, optimizer, verify
from hizfo.datasets import ByteVocab, CharCorpus, two_moons, two_moons_batches
from hizfo.models import QuadraticModel, TinyAttentionLM, full_gradient
from hizfo.optimizer import OptimizerConfig, hizfo_step, train
from hizfo.partition import PartitionPlan
from hizfo.tensors import Batch, ConfigurationError
from hizfo.verify import (
    QuadraticObjective,
    QuarticObjective,
    estimator_mean,
    forward_differences,
    rate_experiment,
    suite_bias_scaling,
    suite_estimator_unbiasedness,
    suite_rate_band,
    suite_restore_exactness,
    suite_second_moment,
)
from test_acceptance import synth_text


class TestTwoMoons:
    def test_deterministic(self):
        x1, y1 = two_moons(200, seed=4)
        x2, y2 = two_moons(200, seed=4)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_labels_balanced(self):
        _, y = two_moons(400, seed=0)
        assert y.sum() == 200

    def test_batches_shapes(self):
        batches = two_moons_batches(3, 32, seed=1)
        assert len(batches) == 3
        assert batches[0].inputs.shape == (32, 2)
        assert batches[0].targets.shape == (32,)


class TestCharCorpus:
    def test_vocab_capped_with_oov(self):
        data = bytes(range(256)) * 4
        vocab = ByteVocab(data)
        assert vocab.size == 64  # 63 most frequent bytes + OOV id 0
        assert vocab.encode(b"\xff")[0] in range(64)

    @staticmethod
    def capped(max_size):
        """ByteVocab with a lower MAX_SIZE, so short corpora reach the cap."""
        return type("CappedVocab", (ByteVocab,), {"MAX_SIZE": max_size})

    def test_rare_bytes_map_to_oov(self):
        data = b"aaaabbbbcccc" + b"\x01"
        vocab = self.capped(4)(data)
        ids = vocab.encode(b"abc\x01")
        assert ids[3] == 0 and all(i > 0 for i in ids[:3])

    @staticmethod
    def reference_ids(data, max_size):
        """The documented rule: the most frequent bytes, ties broken by byte
        value, numbered in byte order from 1; everything else is OOV id 0."""
        counts = {}
        for b in data:
            counts[b] = counts.get(b, 0) + 1
        keep = sorted(sorted(counts, key=lambda b: (-counts[b], b))[: max_size - 1])
        ids = {b: i + 1 for i, b in enumerate(keep)}
        return len(keep) + 1, [ids.get(b, 0) for b in range(256)]

    def test_vocab_matches_reference_rule(self):
        rng = np.random.default_rng(0)
        corpora = [
            b"", b"z", b"aaaabbbbcccc\x01", bytes(range(256)) * 3,
            bytes(rng.integers(0, 256, 4000).astype(np.uint8)),
            bytes(rng.integers(0, 80, 4000).astype(np.uint8)),
            b"hello world, hello charlm " * 40,
        ]
        for data in corpora:
            for max_size in (2, 4, 64):
                vocab = self.capped(max_size)(data)
                size, ids = self.reference_ids(data, max_size)
                assert vocab.size == size
                assert vocab.encode(bytes(range(256))).tolist() == ids

    def test_windows_are_shifted_pairs(self):
        corpus = CharCorpus(b"hello world, hello charlm " * 40, context=8)
        batch = corpus.batches(1, 4, seed=0)[0]
        assert batch.inputs.shape == (4, 8) and batch.targets.shape == (4, 8)
        assert np.array_equal(batch.inputs[0, 1:], batch.targets[0, :-1])

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    @pytest.mark.parametrize("context", [8, 16])
    def test_batches_equal_one_draw_and_stack_per_batch(self, context, seed):
        text = bytes(np.random.default_rng(3).integers(32, 120, 5000).astype(np.uint8))
        corpus = CharCorpus(text, context=context)
        for n, size in [(16, 16), (32, 16), (8, 8), (1, 1)]:
            rng = np.random.default_rng(seed)
            hi = len(corpus.ids) - context - 1
            got = corpus.batches(n, size, seed=seed)
            assert len(got) == n
            for batch in got:
                starts = rng.integers(0, hi, size=size)
                x = np.stack([corpus.ids[s : s + context] for s in starts])
                y = np.stack([corpus.ids[s + 1 : s + context + 1] for s in starts])
                for have, want in ((batch.inputs, x), (batch.targets, y)):
                    assert have.dtype == want.dtype and np.array_equal(have, want)
                    assert have.flags.c_contiguous

    def test_batches_are_bytes_and_train_like_int64_ones(self):
        corpus = CharCorpus(b"hello world, hello charlm " * 40, context=8)
        batches = corpus.batches(3, 4, seed=1)
        assert corpus.ids.dtype == np.uint8
        assert all(b.inputs.dtype == b.targets.dtype == np.uint8 for b in batches)
        wide = [Batch(b.inputs.astype(np.int64), b.targets.astype(np.int64)) for b in batches]
        runs = []
        for data in (batches, wide):
            m = TinyAttentionLM(vocab_size=corpus.vocab.size, d_model=8, depth=2, context=8, seed=0)
            names = [t.name for t in m.tensors()]
            plan = PartitionPlan(names[:3], names[3:], 0.5, 0.0, 0, 0.0)
            cfg = OptimizerConfig(eta_fo=0.05, eta_zo=0.005, max_steps=6)
            r = train(m, data, cfg, plan, "hizfo", eval_batches=data[:1])
            runs.append(([dataclasses.replace(x, wall_ns=0) for x in r.records], r.eval_history, m.flat.tobytes()))
        assert runs[0] == runs[1]

    def test_too_short_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            CharCorpus(b"abc", context=8)


def squared_bias(obj, theta, mu, n, seed):
    mean = estimator_mean(obj, theta, mu, n, seed=seed, antithetic=True)
    return float(np.sum((mean - obj.grad(theta)) ** 2))


class TestEstimatorProperties:
    def test_quadratic_forward_difference_unbiased(self):
        # symmetric noise makes the forward difference exact in expectation
        for d in (4, 16):
            obj = QuadraticObjective(np.linspace(0.5, 2.0, d))
            theta = np.random.default_rng(d).standard_normal(d)
            bias_sq = squared_bias(obj, theta, 1e-3, 50_000, seed=d)
            assert bias_sq < 1e-8

    def test_bias_vanishes_in_small_mu_limit(self):
        # for sum(theta^4) and u ~ N(0, I) the forward difference's mean is
        # exactly grad + 12 mu^2 theta; the pairing resolves it within 4.75%
        # at every mu, a repeated draw only to 57% at mu = 0.1 and worse below
        obj, theta = QuarticObjective(), np.ones(8)
        for mu in (1e-1, 1e-2, 1e-3, 1e-4):
            bias = estimator_mean(obj, theta, mu, 20_000, seed=3, antithetic=True) - obj.grad(theta)
            want = 12 * mu**2 * theta
            assert np.linalg.norm(bias - want) <= 0.1 * np.linalg.norm(want), mu

    def test_control_variate_matches_raw_mean_estimand(self):
        obj = QuadraticObjective(np.ones(6))
        theta = np.arange(1.0, 7.0)
        cv = estimator_mean(obj, theta, 1e-2, 200_000, seed=3)
        u = np.random.default_rng(3).standard_normal((200_000, 6))
        raw = forward_differences(obj, theta, 1e-2, u).mean(axis=0)
        # both estimate the same expectation; raw is just noisier
        assert np.linalg.norm(cv - raw) < 0.1


class TestRateExperiment:
    def test_pure_fo_noiseless_quadratic_decays(self):
        # a hybrid step with an empty ZO set is a plain gradient step, so the
        # gradient norm falls at every step
        c = np.geomspace(0.1, 1.0, 6)
        m = QuadraticModel(blocks=((6, c, 0.0),), seed=0)  # a new model is all FO
        assert m.zo.size == 0
        cfg = OptimizerConfig(eta_fo=0.1, eta_zo=0.1, epsilon=1e-3, alpha=0.0, master_seed=0)
        sq = []
        for step in range(100):
            g = c * m.flat
            sq.append(float(g @ g))
            rec = hizfo_step(m, m.dummy_batch(), cfg, step)
            assert not rec.diverged and rec.L_ZO == rec.L_FO and rec.zo_estimate_norm == 0.0
        assert all(b < a for a, b in zip(sq, sq[1:]))
        assert sq[-1] < 1e-2 * sq[0]

    def test_rows_cover_grid(self):
        res = rate_experiment(0, T_grid=(50, 100, 200))
        assert [r[0] for r in res.rows] == [50, 100, 200]


class TestVerifySuites:
    def test_all_suites_pass_fast(self):
        results = verify.verify_all(fast=True)
        assert [r.name for r in results] == [
            "estimator_unbiasedness", "bias_scaling", "second_moment_bound",
            "rate_band", "restore_exactness", "step_estimator",
        ]
        for r in results:
            assert r.passed, f"{r.name}: {r.detail}"

    @pytest.mark.parametrize("scale, failing", [
        (2.0, {"estimator_unbiasedness", "bias_scaling", "second_moment_bound"}),
        (0.0, {"estimator_unbiasedness", "bias_scaling"}),
    ])
    def test_faulty_estimator_is_caught(self, monkeypatch, scale, failing):
        # a wrongly scaled forward difference shifts the estimator's mean,
        # and at scale 2 also its second moment
        real = verify.forward_differences
        monkeypatch.setattr(verify, "forward_differences", lambda obj, theta, mu, u:
                            scale * real(obj, theta, mu, u))
        suites = (suite_estimator_unbiasedness, suite_bias_scaling, suite_second_moment)
        results = [suite(fast=True) for suite in suites]
        assert {r.name for r in results if not r.passed} == failing

    def test_corrupted_restore_is_caught(self, monkeypatch):
        # the probe's restore adds the noise a second time; the shipped
        # step keeps its own binding, so the trajectory is unchanged
        real = verify.add_scaled_noise
        monkeypatch.setattr(verify, "add_scaled_noise", lambda a, seed, scale:
                            real(a, seed, abs(scale)))
        assert not suite_restore_exactness(fast=True).passed

    def test_stalled_zo_update_is_caught(self, monkeypatch):
        # the rate band runs the shipped step: freezing its ZO update
        # leaves 16 of 20 coordinates at their start, and the band must fail
        real = verify.hizfo_step
        monkeypatch.setattr(verify, "hizfo_step", lambda model, batch, cfg, step:
                            real(model, batch, dataclasses.replace(cfg, eta_zo=1e-300), step))
        assert not suite_rate_band(fast=True).passed

    @pytest.mark.parametrize("factor", [2.0, -1.0], ids=["doubled", "sign_flipped"])
    def test_wrong_zo_update_fails_verify(self, monkeypatch, capsys, factor):
        scale_closing_zo_update(monkeypatch, factor)
        assert cli.main(["verify", "--fast"]) == 3
        assert "[FAIL] step_estimator" in capsys.readouterr().out


def scale_closing_zo_update(monkeypatch, factor):
    """Scale the ZO update of every ``hizfo_step`` by ``factor``.

    A step's first noise pass perturbs by +eps and its closing pass adds
    update - eps with the same seed; the fault scales the update in that
    closing pass."""
    real = optimizer.add_scaled_noise
    eps = {}

    def faulty(arrays, seed, scale):
        if seed not in eps:
            eps[seed] = scale
            return real(arrays, seed, scale)
        e = eps.pop(seed)
        return real(arrays, seed, factor * (scale + e) - e)

    monkeypatch.setattr(optimizer, "add_scaled_noise", faulty)


class TestLmStepEstimator:
    """The shipped step's ZO estimate on an attention LM has the error of a
    single-probe forward difference on a loss linear over eps:
    E||g_hat - g_b||^2 = (d + 1) ||g_b||^2 at a fixed batch. The band
    [0.75, 1.33] on the ratio was fixed before looking; at K = 400 probes it
    is about four Monte-Carlo standard errors wide."""

    BAND = (0.75, 1.33)

    @staticmethod
    def error_ratio(K=400):
        corpus = CharCorpus(synth_text(), context=16)
        model = TinyAttentionLM(vocab_size=corpus.vocab.size, d_model=16, depth=2, context=16, seed=0)
        batch = corpus.batches(8, 8, seed=0)[0]
        zo_names = [t.name for t in model.tensors() if t.name.startswith("block")]
        model.assign([t.name for t in model.tensors() if t.name not in zo_names])
        grads = full_gradient(model, batch)
        g = np.concatenate([grads[n].ravel() for n in zo_names])  # the ZO layout of model.zo
        assert g.size == model.zo.size == 6304
        cfg = OptimizerConfig(eta_zo=1e-3, epsilon=1e-3, alpha=0.1, master_seed=0)
        saved = model.flat.copy()
        err = 0.0
        for s in range(K):
            hizfo_step(model, batch, cfg, s)
            ghat = (model.zo - saved[: g.size]) / -cfg.eta_zo
            err += float(np.sum((ghat - g) ** 2))
            model.flat[:] = saved
        return err / K / ((g.size + 1) * float(g @ g))

    def test_shipped_step_error_matches_single_probe_variance(self):
        lo, hi = self.BAND
        ratio = self.error_ratio()
        assert lo <= ratio <= hi, ratio

    def test_doubled_zo_update_leaves_the_band(self, monkeypatch):
        scale_closing_zo_update(monkeypatch, 2.0)
        lo, hi = self.BAND
        ratio = self.error_ratio()
        assert not lo <= ratio <= hi, ratio
