import copy
import csv
import gc
import hashlib
import math
import os
import pickle
import subprocess
import sys
import warnings
import weakref
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

from hizfo import cli, optimizer
from hizfo.config import default_config
from hizfo.datasets import two_moons_batches
from hizfo.models import MLPModel, QuadraticModel, TinyAttentionLM, backward_truncated
from hizfo.optimizer import (
    FoUpdater,
    OptimizerConfig,
    StepRecord,
    baseline_step_frozen_subset,
    baseline_step_full_fo,
    baseline_step_mezo,
    hizfo_step,
    train,
)
from hizfo.partition import PartitionPlan, apply_plan
from hizfo.rng import regenerate_noise, step_seed
from hizfo.tensors import Batch, ConfigurationError, NumericOverflowError
from test_models import tensor_named


def one_d_quadratic(theta=1.0, fo=False):
    m = QuadraticModel(blocks=((1, 1.0, 0.0),), seed=0)
    m.tensors()[0].data[:] = theta
    m.assign(["block0"] if fo else [])
    return m


def mlp_with_split(seed=1, dims=(2, 16, 2)):
    m = MLPModel(dims=dims, seed=seed)
    names = [t.name for t in m.tensors()]
    plan = PartitionPlan(names[:2], names[2:], 0.5, 0.0, 0, 0.0)
    apply_plan(m, plan)
    return m, plan


CFG = dict(eta_fo=0.05, eta_zo=0.005, epsilon=1e-3, alpha=0.1, master_seed=5)


@pytest.fixture
def force_noise(monkeypatch):
    """force_noise(u) makes the step functions' noise u in every coordinate:
    each call adds scale * u and returns size * u**2, like the seeded one."""

    def force(u):
        def fake(arrays, seed, scale):
            with np.errstate(over="ignore", invalid="ignore"):
                for a in arrays:
                    a += scale * u
            return sum(a.size for a in arrays) * (u * u)

        monkeypatch.setattr(optimizer, "add_scaled_noise", fake)

    return force


class TestHizfoStep:
    def test_forced_unit_noise_hand_arithmetic(self, force_noise):
        m = one_d_quadratic()
        cfg = OptimizerConfig(eta_fo=0.1, eta_zo=1e-4, epsilon=1e-3, alpha=0.1, master_seed=7)
        force_noise(1.0)
        rec = hizfo_step(m, m.dummy_batch(), cfg, 0)
        assert rec.L_FO == 0.5
        assert rec.L_ZO == pytest.approx(0.5 * 1.001**2, abs=1e-15)
        ghat = (rec.L_ZO - rec.L_FO) / 1e-3
        assert ghat == pytest.approx(1.0005, abs=1e-12)
        assert m.tensors()[0].data[0] == pytest.approx(1.0 - 1e-4 * ghat, abs=1e-15)
        assert rec.L_total == rec.L_FO + 0.1 * rec.L_ZO

    def test_forced_zero_noise_is_pure_fo(self, force_noise):
        m = one_d_quadratic()
        cfg = OptimizerConfig(**CFG)
        force_noise(0.0)
        rec = hizfo_step(m, m.dummy_batch(), cfg, 0)
        assert rec.L_ZO == rec.L_FO
        assert rec.zo_estimate_norm == 0.0
        assert m.tensors()[0].data[0] == 1.0  # ZO untouched

    def test_zero_noise_fo_gradient_is_one_plus_alpha_scaled(self, force_noise):
        # block0 FO, block1 ZO; with u = 0 the FO update uses (1 + alpha) grad
        m = QuadraticModel(blocks=((1, 1.0, 0.0), (1, 1.0, 0.0)), seed=0)
        for t in m.tensors():
            t.data[:] = 1.0
        m.assign(["block0"])
        alpha, eta = 0.25, 0.1
        cfg = OptimizerConfig(eta_fo=eta, eta_zo=1e-6, epsilon=1e-3, alpha=alpha, master_seed=1)
        force_noise(0.0)
        hizfo_step(m, m.dummy_batch(), cfg, 0)
        assert m.tensors()[0].data[0] == pytest.approx(1.0 - eta * (1 + alpha) * 1.0, abs=1e-15)

    def test_alpha_term_is_gradient_of_perturbed_loss(self):
        # FO tensors in the head and the input-side block: the output-side
        # block's ZO tensors lie on the path the alpha term propagates through
        def lm():
            m = TinyAttentionLM(vocab_size=12, d_model=8, depth=2, context=8, seed=4)
            fo = {"head.weight", "block0.w1", "block0.b1"}
            m.assign(fo)
            return m, m.fo_names

        rng = np.random.default_rng(2)
        batch = Batch(rng.integers(0, 12, (3, 8)), rng.integers(0, 12, (3, 8)))
        cfg = OptimizerConfig(**CFG)
        ref, fo_names = lm()
        g_clean = backward_truncated(ref, batch, fo_names)
        zo = [t for t in ref.tensors() if t.name not in fo_names]
        us = regenerate_noise([t.data.shape for t in zo], step_seed(cfg.master_seed, 3))
        for t, u in zip(zo, us):
            t.data += cfg.epsilon * u
        g_pert = backward_truncated(ref, batch, fo_names)

        class Capture(FoUpdater):
            def apply(self, tensors, grads):
                self.grads = {t.name: grads[t.name].copy() for t in tensors}
                super().apply(tensors, grads)

        m, _ = lm()
        captured = Capture(cfg)
        hizfo_step(m, batch, cfg, 3, fo_updater=captured)
        want = np.concatenate([g_clean[n] + cfg.alpha * g_pert[n] for n in fo_names])
        got = np.concatenate([captured.grads[n] for n in fo_names])
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_backward_flops_field_is_fo_accounting(self):
        m, plan = mlp_with_split()
        batch = two_moons_batches(1, 32, seed=3)[0]
        cfg = OptimizerConfig(**CFG)
        cost = m.cost_model(batch.size)
        rec = hizfo_step(m, batch, cfg, 0)
        assert rec.backward_flops == cost.subset_backward_flops(plan.fo_set)
        # and exactly two forward passes
        assert rec.forward_flops == 2 * cost.total_forward_flops

    def test_backward_flops_field_with_probes_is_one_backward(self):
        m, plan = mlp_with_split()
        batch = two_moons_batches(1, 32, seed=3)[0]
        cfg = OptimizerConfig(**CFG)
        assert cfg.alpha > 0
        one = m.cost_model(batch.size).subset_backward_flops(plan.fo_set)
        before = m.tally.backward
        rec = hizfo_step(m, batch, cfg, 0)
        assert rec.backward_flops == one
        # alpha > 0: the clean and the perturbed-pass backward were executed
        assert m.tally.backward - before == 2 * one

    def test_nonfinite_clean_loss_aborts_step(self):
        m = one_d_quadratic(theta=1e200)  # 0.5 * theta^2 overflows
        params_before = [t.data.copy() for t in m.tensors()]
        rec = hizfo_step(m, m.dummy_batch(), OptimizerConfig(**CFG), 0)
        assert rec.diverged
        for t, b in zip(m.tensors(), params_before):
            assert np.array_equal(t.data, b)  # aborted before any update

    def test_nonfinite_perturbed_loss_restores_zo_and_reports(self, force_noise):
        # ZO block at exactly 0 so the regenerate-and-subtract restore is exact
        # even for the enormous forced noise that overflows the perturbed pass
        m = QuadraticModel(blocks=((1, 1.0, 0.0), (1, 1e300, 0.0)), seed=0)
        m.tensors()[0].data[:] = 1.0
        m.tensors()[1].data[:] = 0.0
        m.assign(["block0"])
        cfg = OptimizerConfig(**CFG)
        force_noise(1e160)
        rec = hizfo_step(m, m.dummy_batch(), cfg, 0)
        assert rec.diverged
        assert np.isfinite(rec.L_FO) and not np.isfinite(rec.L_ZO)
        assert m.tensors()[1].data[0] == 0.0  # restored
        assert m.tensors()[0].data[0] == 1.0  # FO update never applied

    @pytest.mark.parametrize("fails", ["perturbed backward", "fo update"])
    def test_aborted_step_restores_zo_alone(self, fails, monkeypatch):
        m, plan = mlp_with_split()
        batch = two_moons_batches(1, 32, seed=3)[0]
        cfg = OptimizerConfig(**CFG)
        assert cfg.alpha > 0
        fo, zo = [tensor_named(m, n) for n in plan.fo_set], [tensor_named(m, n) for n in plan.zo_set]
        fo_before = [t.data.copy() for t in fo]
        zo_before = [t.data.copy() for t in zo]

        def fail(*args):
            raise RuntimeError("injected")

        if fails == "perturbed backward":
            passes = iter([m.backward_from_cache, fail])  # the clean pass runs
            monkeypatch.setattr(m, "backward_from_cache", lambda *a: next(passes)(*a))
        else:
            monkeypatch.setattr(FoUpdater, "apply", fail)
        with pytest.raises(RuntimeError, match="injected"):
            hizfo_step(m, batch, cfg, 4)
        for t, b in zip(fo, fo_before):
            assert np.array_equal(t.data, b)
        us = regenerate_noise([t.data.shape for t in zo], step_seed(cfg.master_seed, 4))
        for t, b, u in zip(zo, zo_before, us):
            ulp = np.spacing(np.maximum(np.abs(b), np.abs(b + cfg.epsilon * u)))
            assert np.all(np.abs(t.data - b) <= 4 * ulp)


class TestBaselines:
    def test_full_fo_quadratic_sgd_step(self):
        m = one_d_quadratic(fo=True)
        cfg = OptimizerConfig(eta_fo=0.1, eta_zo=1e-6, epsilon=1e-3, master_seed=0)
        rec = baseline_step_full_fo(m, m.dummy_batch(), cfg)
        assert m.tensors()[0].data[0] == pytest.approx(0.9, abs=1e-15)
        assert rec.L_ZO == 0.0 and rec.zo_estimate_norm == 0.0

    def test_full_fo_mlp_single_step_descends(self):
        m = MLPModel(dims=(2, 16, 2), seed=4)
        batch = two_moons_batches(1, 64, seed=6)[0]
        cfg = OptimizerConfig(eta_fo=1e-2, eta_zo=1e-6, epsilon=1e-3, master_seed=0)
        before = m.forward(batch)
        baseline_step_full_fo(m, batch, cfg)
        assert m.forward(batch) < before

    def test_frozen_subset_leaves_zo_untouched(self):
        m, plan = mlp_with_split()
        batch = two_moons_batches(1, 32, seed=3)[0]
        zo = [tensor_named(m, n) for n in plan.zo_set]
        zo_before = [t.data.copy() for t in zo]
        cfg = OptimizerConfig(**CFG)
        rec = baseline_step_frozen_subset(m, batch, cfg, plan)
        for t, b in zip(zo, zo_before):
            assert np.array_equal(t.data, b)
        assert rec.zo_estimate_norm == 0.0

    def test_frozen_matches_hizfo_fo_part_at_alpha_zero_u_zero(self, force_noise):
        m1, plan = mlp_with_split()
        m2, _ = mlp_with_split()
        batch = two_moons_batches(1, 32, seed=3)[0]
        cfg = OptimizerConfig(eta_fo=0.05, eta_zo=1e-9, epsilon=1e-3, alpha=0.0, master_seed=5)
        force_noise(0.0)
        hizfo_step(m1, batch, cfg, 0)
        baseline_step_frozen_subset(m2, batch, cfg, plan)
        for n in plan.fo_set:
            assert np.array_equal(tensor_named(m1, n).data, tensor_named(m2, n).data)

    def test_frozen_with_full_plan_matches_full_fo(self):
        m1 = MLPModel(dims=(2, 16, 2), seed=4)
        m2 = MLPModel(dims=(2, 16, 2), seed=4)
        names = [t.name for t in m1.tensors()]
        plan = PartitionPlan(names, [], 1.0, 0.0, 0, 0.0)
        batch = two_moons_batches(1, 32, seed=3)[0]
        cfg = OptimizerConfig(eta_fo=0.05, eta_zo=1e-6, epsilon=1e-3, master_seed=5)
        baseline_step_frozen_subset(m1, batch, cfg, plan)
        baseline_step_full_fo(m2, batch, cfg)
        for a, b in zip(m1.tensors(), m2.tensors()):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("held", ["all_fo", "other_split"])
    def test_frozen_subset_applies_a_plan_the_model_does_not_hold(self, held):
        m = MLPModel(dims=(2, 16, 2), seed=1)
        names = [t.name for t in m.tensors()]
        if held == "other_split":
            m.assign(names[2:])
        plan = PartitionPlan(names[:2], names[2:], 0.5, 0.0, 0, 0.0)
        batch = two_moons_batches(1, 32, seed=3)[0]
        cfg = OptimizerConfig(**CFG)
        before = {n: tensor_named(m, n).data.copy() for n in names}
        # the oracle: one truncated backward over the plan's FO set, then SGD
        grads = backward_truncated(MLPModel(dims=(2, 16, 2), seed=1), batch, plan.fo_set)
        rec = baseline_step_frozen_subset(m, batch, cfg, plan)
        assert m.fo_names == plan.fo_set
        for n in names:
            want = before[n] - cfg.eta_fo * grads[n] if n in plan.fo_set else before[n]
            assert np.array_equal(tensor_named(m, n).data, want), n
        assert rec.fo_grad_norm == math.sqrt(sum(float(g @ g) for g in grads.values()))
        assert rec.backward_flops == m.cost_model(batch.size).subset_backward_flops(plan.fo_set)

    @pytest.mark.parametrize("order", ["tensor_order", "reversed"])
    def test_frozen_subset_keeps_the_layout_of_a_held_plan(self, order):
        m, plan = mlp_with_split()
        if order == "reversed":  # the same sets, listed in another order
            plan = PartitionPlan(plan.fo_set[::-1], plan.zo_set[::-1], 0.5, 0.0, 0, 0.0)
        flat, fo = m.flat, m.fo
        batch = two_moons_batches(1, 32, seed=3)[0]
        for s in range(3):
            baseline_step_frozen_subset(m, batch, OptimizerConfig(**CFG), plan, s)
        assert m.flat is flat and m.fo is fo

    def test_mezo_quadratic_central_difference_is_exact(self, force_noise):
        m = one_d_quadratic()
        cfg = OptimizerConfig(eta_fo=0.1, eta_zo=1e-4, epsilon=1e-3, master_seed=0)
        force_noise(1.0)
        baseline_step_mezo(m, m.dummy_batch(), cfg, 0)
        # central difference of a quadratic equals the true gradient (1.0)
        assert m.tensors()[0].data[0] == pytest.approx(1.0 - 1e-4, abs=1e-12)

    def test_mezo_zero_noise_is_noop(self, force_noise):
        m = one_d_quadratic()
        cfg = OptimizerConfig(eta_fo=0.1, eta_zo=1e-4, epsilon=1e-3, master_seed=0)
        force_noise(0.0)
        rec = baseline_step_mezo(m, m.dummy_batch(), cfg, 0)
        assert m.tensors()[0].data[0] == 1.0
        assert rec.backward_flops == 0

    @pytest.mark.parametrize("theta", [0.0, -1e4])
    def test_mezo_overflow_restores_parameters(self, force_noise, theta):
        # theta 0 overflows the +eps pass, theta -1e4 only the -eps pass
        m = QuadraticModel(blocks=((1, 1e301, 0.0),), seed=0)
        m.tensors()[0].data[:] = theta
        cfg = OptimizerConfig(eta_fo=0.1, eta_zo=1e-4, epsilon=1e4, master_seed=0)
        force_noise(1.0)
        rec = baseline_step_mezo(m, m.dummy_batch(), cfg, 0)
        assert rec.diverged
        assert m.tensors()[0].data[0] == theta

    @pytest.mark.parametrize("fails", [1, 2])
    def test_mezo_aborted_step_restores_parameters(self, fails, monkeypatch):
        # an error from the first probe forward leaves +eps to remove, one
        # from the second -eps; either way the step restores and re-raises
        m = MLPModel(dims=(2, 16, 2), seed=1)
        batch = two_moons_batches(1, 32, seed=3)[0]
        cfg = OptimizerConfig(**CFG)
        before = m.flat.copy()
        calls = iter(range(1, 3))
        forward = m.forward

        def failing(b):
            if next(calls) == fails:
                raise RuntimeError("injected")
            return forward(b)

        monkeypatch.setattr(m, "forward", failing)
        with pytest.raises(RuntimeError, match="injected"):
            baseline_step_mezo(m, batch, cfg, 4)
        (u,) = regenerate_noise([before.shape], step_seed(cfg.master_seed, 4))
        far = np.maximum(np.abs(before + cfg.epsilon * u), np.abs(before - cfg.epsilon * u))
        assert np.all(np.abs(m.flat - before) <= 4 * np.spacing(np.maximum(np.abs(before), far)))

    @pytest.mark.parametrize("algorithm", ["full_fo", "frozen_subset"])
    def test_fo_baseline_overflow_aborts_step(self, algorithm):
        m = one_d_quadratic(theta=1e200, fo=True)  # 0.5 * theta^2 overflows
        plan = PartitionPlan([m.tensors()[0].name], [], 1.0, 0.0, 0, 0.0)
        cfg = OptimizerConfig(**CFG)
        bwd_before = m.tally.backward
        if algorithm == "full_fo":
            rec = baseline_step_full_fo(m, m.dummy_batch(), cfg, 4)
        else:
            rec = baseline_step_frozen_subset(m, m.dummy_batch(), cfg, plan, 4)
        assert rec.diverged and rec.step == 4
        assert np.isnan(rec.L_FO) and np.isnan(rec.L_total)
        assert rec.backward_flops == 0 and m.tally.backward == bwd_before
        assert m.tensors()[0].data[0] == 1e200  # aborted before any update

    @pytest.mark.parametrize("algorithm", ["full_fo", "frozen_subset"])
    def test_fo_baseline_backward_flops_field(self, algorithm):
        m, plan = mlp_with_split()
        batch = two_moons_batches(1, 32, seed=3)[0]
        cfg = OptimizerConfig(**CFG)
        cost = m.cost_model(batch.size)
        before = m.tally.backward
        if algorithm == "full_fo":
            rec = baseline_step_full_fo(m, batch, cfg)
            expected = cost.total_backward_flops
        else:
            rec = baseline_step_frozen_subset(m, batch, cfg, plan)
            expected = cost.subset_backward_flops(plan.fo_set)
        assert rec.backward_flops == m.tally.backward - before == expected


def prefix_case(kind):
    """A model whose FO set leaves frozen layers below it, its plan and four batches."""
    if kind == "lm":
        # layers output first: head, block3, block2, block1, block0, embed
        m = TinyAttentionLM(vocab_size=12, d_model=8, depth=4, context=8, seed=3)
        fo = ["head.weight", "block3.b2", "block2.b1", "block2.w2"]
        rng = np.random.default_rng(1)
        batches = [Batch(*rng.integers(0, 12, size=(2, 3, 8))) for _ in range(4)]
    else:
        m = MLPModel(dims=(2, 8, 6, 2), seed=3)
        fo = ["layer0.weight", "layer1.bias"]
        batches = two_moons_batches(4, 8, seed=2)
    plan = PartitionPlan(fo, [t.name for t in m.tensors() if t.name not in fo], 0.5, 0.0, 0, 0.0)
    apply_plan(m, plan)
    return m, plan, batches


def reference_frozen_step(m, batch, cfg, step):
    """The frozen-subset step written out: a plain forward, a truncated backward
    and SGD; the record's fields in order, without wall_ns."""
    f0, b0 = m.tally.forward, m.tally.backward
    loss, cache = m.forward_with_cache(batch)
    grads = m.backward_from_cache(batch, cache, m.fo_names)
    for t in m.fo:
        t.data -= cfg.eta_fo * grads[t.name]
    norm = math.sqrt(sum(float(g @ g) for g in grads.values()))
    return (step, loss, 0.0, loss, norm, 0.0, m.tally.backward - b0, m.tally.forward - f0, False)


def deterministic(rec):
    return tuple(getattr(rec, f.name) for f in fields(StepRecord) if f.name != "wall_ns")


def count_calls(layer):
    """The list that gets one entry per call of the layer's forward from now on."""
    calls, forward = [], layer.forward
    layer.forward = lambda x: calls.append(1) or forward(x)
    return calls


class TestFrozenPrefix:
    """One run's ``FoUpdater`` keeps the output of the frozen layers below the
    deepest FO tensor per batch, so they run once per batch in that run;
    every step equals the step written out."""

    @pytest.mark.parametrize("kind", ["lm", "mlp"])
    def test_steps_match_the_reference_loop(self, kind):
        m, plan, batches = prefix_case(kind)
        ref = prefix_case(kind)[0]
        calls = count_calls(m.layers[-1])
        cfg = OptimizerConfig(**CFG)
        updater = FoUpdater(cfg)
        for s in range(12):
            b = batches[s % 4]
            assert deterministic(baseline_step_frozen_subset(m, b, cfg, plan, s, updater)) == \
                reference_frozen_step(ref, b, cfg, s), s
        assert m.flat.tobytes() == ref.flat.tobytes()
        assert len(calls) == 4  # once per batch

    def test_without_an_updater_every_step_runs_the_prefix(self):
        m, plan, batches = prefix_case("lm")
        ref = prefix_case("lm")[0]
        calls = count_calls(m.layers[-1])
        cfg = OptimizerConfig(**CFG)
        for s in range(12):
            b = batches[s % 4]
            assert deterministic(baseline_step_frozen_subset(m, b, cfg, plan, s)) == \
                reference_frozen_step(ref, b, cfg, s), s
        assert len(calls) == 12

    @pytest.mark.parametrize("event, misses", [
        ("frozen_write", 4), ("input_write", 4), ("hizfo_step", 4),  # then a new updater
        ("other_split", 4), ("own_split", 4), ("deep_copy", 4), ("pickle", 4)])  # the same one
    def test_a_change_to_what_the_prefix_reads_misses(self, event, misses):
        # a write from outside the run needs a new updater; another split and
        # another model miss with the same one, as each has its own model.fo
        m, plan, batches = prefix_case("lm")
        ref = prefix_case("lm")[0]
        cfg = OptimizerConfig(**CFG)
        updater = FoUpdater(cfg)
        for s in range(4):
            baseline_step_frozen_subset(m, batches[s], cfg, plan, s, updater)
            reference_frozen_step(ref, batches[s], cfg, s)
        names = [t.name for t in m.tensors()]
        other = PartitionPlan(["head.weight", "block1.w1"],
                              [n for n in names if n not in ("head.weight", "block1.w1")], 0.5, 0.0, 0, 0.0)
        for model in (m, ref):
            if event == "frozen_write":
                tensor_named(model, "block0.wq").data[3] += 0.25
            elif event == "hizfo_step":
                hizfo_step(model, batches[0], cfg, 4)
            elif event == "other_split" or event == "own_split" and model is ref:
                apply_plan(model, other)  # the step re-splits m itself in own_split
        if event == "input_write":
            batches[0].inputs[1, 2] = (batches[0].inputs[1, 2] + 1) % 12
        if event in ("frozen_write", "input_write", "hizfo_step"):
            updater = FoUpdater(cfg)
        elif event == "deep_copy":
            m = copy.deepcopy(m)
        elif event == "pickle":
            m = pickle.loads(pickle.dumps(m))
        calls = count_calls(m.layers[-1])
        for s in range(5, 13):
            b = batches[s % 4]
            rec = baseline_step_frozen_subset(m, b, cfg, other if event.endswith("split") else plan, s, updater)
            assert deterministic(rec) == reference_frozen_step(ref, b, cfg, s), s
        assert m.flat.tobytes() == ref.flat.tobytes()
        assert len(calls) == misses

    def test_no_kept_output_outlives_train(self):
        m, plan, batches = prefix_case("lm")
        layer = m.layers[max(t.layer_index for t in m.fo) + 1]  # the frozen prefix's top layer
        forward, outs = layer.forward, []

        def forward_and_watch(x):
            h, cache = forward(x)
            outs.append(weakref.ref(h))
            return h, cache

        layer.forward = forward_and_watch
        train(m, batches, OptimizerConfig(max_steps=12, **CFG), plan, "frozen_subset")
        gc.collect()
        assert len(outs) == 4 and all(r() is None for r in outs)

    @pytest.mark.parametrize("kept_first", [False, True])
    def test_an_overflowing_prefix_fails_like_the_uncached_pass(self, kept_first):
        m, plan, batches = prefix_case("lm")
        ref = prefix_case("lm")[0]
        b, cfg = batches[0], OptimizerConfig(**CFG)
        if kept_first:
            baseline_step_frozen_subset(m, b, cfg, plan, 0, FoUpdater(cfg))
            reference_frozen_step(ref, b, cfg, 0)
        for model in (m, ref):
            tensor_named(model, "block0.b2").data[:] = np.inf
        with pytest.raises(NumericOverflowError) as want:
            ref.forward_with_cache(b)
        assert want.value.layer_index == 4  # block0, inside the frozen prefix
        before, updater = m.flat.copy(), FoUpdater(cfg)  # a frozen tensor was written: a new run
        for s in range(2):  # nothing is kept from a pass that overflowed
            assert baseline_step_frozen_subset(m, b, cfg, plan, s, updater).diverged
            with pytest.raises(NumericOverflowError) as got:
                m.forward_with_cache(b, kept=updater.kept)
            assert (str(got.value), got.value.layer_index) == (str(want.value), want.value.layer_index)
        assert updater.kept == {}
        assert m.flat.tobytes() == before.tobytes()


# alpha -> the records of two hybrid steps (every field but wall_ns)
# and the sha256 of the final parameters. They pin the step arithmetic bit
# for bit, including the rounding of the one pass that restores and updates
# the ZO set.
GOLDEN_STEPS = {
    0.0: ([(0, 0.7833483716969771, 0.7828341694119002, 0.7833483716969771, 0.7626452043879245, 3.4080611037947524, 4160, 8192, False), (1, 0.7491085894548017, 0.7490377470809009, 0.7491085894548017, 0.6726239891899761, 0.48005612537352704, 4160, 8192, False)], '5597aaafbb51b1d8fd12f28c6332592662111a24bd75b055f01b5a70ecd04da2'),
    0.1: ([(0, 0.7833483716969771, 0.7828341694119002, 0.8616317886381671, 0.838835070282807, 3.4080611037947524, 4160, 8192, False), (1, 0.7465560599116425, 0.7464852761513416, 0.8212045875267767, 0.737203327610695, 0.47965893628812317, 4160, 8192, False)], 'cb528601a0bbd5b0e64b0375b47b8c0ffd1cc0be22fcc83a8ee4a570fc4bd507'),
}


@pytest.mark.parametrize("alpha", sorted(GOLDEN_STEPS))
def test_golden_hybrid_steps(alpha):
    m, _ = mlp_with_split()
    cfg = OptimizerConfig(eta_fo=0.05, eta_zo=0.005, epsilon=1e-3, alpha=alpha,
                          master_seed=5)
    records = []
    for s, batch in enumerate(two_moons_batches(2, 32, seed=3)):
        fields = astuple(hizfo_step(m, batch, cfg, s))
        records.append(fields[:8] + fields[9:])  # all but wall_ns
    params = hashlib.sha256(b"".join(t.data.tobytes() for t in m.tensors())).hexdigest()
    assert (records, params) == GOLDEN_STEPS[alpha]


# a fresh process, so the allocator state is that of a program that has just
# built its model
FAULTS_PER_STEP_PAIR = """
import resource
import numpy as np
from hizfo.models import TinyAttentionLM
from hizfo.optimizer import OptimizerConfig, baseline_step_full_fo, hizfo_step
from hizfo.tensors import Batch
m = TinyAttentionLM(vocab_size=30, d_model=16, depth=2, context=16, seed=0)
m.assign(t.name for t in m.tensors()[:3])
rng = np.random.default_rng(0)
batch = Batch(rng.integers(0, 30, (8, 16)), rng.integers(0, 30, (8, 16)))
cfg = OptimizerConfig(eta_fo=0.05, eta_zo=0.005)
for s in range(60):
    if s == 10:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    hizfo_step(m, batch, cfg, s)
    baseline_step_full_fo(m, batch, cfg, s)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the heap setting is glibc's mallopt")
def test_steady_state_steps_fault_in_no_pages():
    # each step frees its temporaries; the heap keeps them for the next step
    # instead of returning them to the OS and faulting them in again
    src = str(Path(optimizer.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP_PAIR], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) <= 1.0


def test_hybrid_step_frees_the_clean_cache_before_the_perturbed_pass():
    # the perturbed forward and backward need only their own activations, so
    # a hybrid step's peak stays below a full-FO step's (1.56x it when both caches lived)
    import tracemalloc

    m = TinyAttentionLM(vocab_size=20, d_model=16, depth=2, context=16, seed=0)
    m.assign(["head.weight", "block1.b2", "embed.token"])
    batch = Batch(*np.random.default_rng(0).integers(0, 20, size=(2, 8, 16)))
    cfg = OptimizerConfig(eta_fo=0.05, eta_zo=0.005, alpha=0.1)
    peaks = {}
    for name, step in (("hizfo", hizfo_step), ("full_fo", baseline_step_full_fo)):
        step(m, batch, cfg, 0)
        tracemalloc.start()
        step(m, batch, cfg, 1)
        peaks[name] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks["hizfo"] <= peaks["full_fo"], peaks


class TestTrain:
    def test_zero_steps_empty_report(self):
        m, plan = mlp_with_split()
        cfg = OptimizerConfig(max_steps=0, **CFG)
        report = train(m, two_moons_batches(1, 16, seed=0), cfg, plan, "hizfo")
        assert report.steps_run == 0 and report.records == []
        assert not report.diverged

    def test_identical_configs_bitwise_identical_records(self):
        batches = two_moons_batches(4, 32, seed=3)
        reports = []
        for _ in range(2):
            m, plan = mlp_with_split()
            cfg = OptimizerConfig(max_steps=40, eval_interval=10, **CFG)
            reports.append(train(m, batches, cfg, plan, "hizfo", eval_batches=batches[:1]))
        a, b = reports
        for ra, rb in zip(a.records, b.records):
            assert (ra.L_FO, ra.L_ZO, ra.L_total, ra.fo_grad_norm, ra.zo_estimate_norm) == (
                rb.L_FO, rb.L_ZO, rb.L_total, rb.fo_grad_norm, rb.zo_estimate_norm)
        assert a.eval_history == b.eval_history

    def test_diverged_run_terminates(self):
        # a quadratic at lr 1e18 overshoots exponentially until the loss
        # overflows, which must stop the run and flag the report
        m = QuadraticModel(blocks=((2, 1.0, 0.0), (2, 1.0, 0.0)), seed=0)
        names = [t.name for t in m.tensors()]
        plan = PartitionPlan(names[:1], names[1:], 0.5, 0.0, 0, 0.0)
        cfg = OptimizerConfig(eta_fo=1e18, eta_zo=1e17, epsilon=1e-3, alpha=0.1,
                              master_seed=0, max_steps=200)
        report = train(m, [m.dummy_batch()], cfg, plan, "hizfo",
                       eval_batches=[m.dummy_batch()])
        assert report.diverged and report.steps_run < 200
        assert report.final_eval_loss == float("inf")

    def test_overflowing_zo_coefficient_diverges(self):
        # the finite-difference coefficient is about 1e157: the step records
        # the finite norm |coef| * ||u|| without a warning, and the next
        # forward pass reports the divergence
        m = QuadraticModel(blocks=((1, 1.0, 0.0), (4, 1e157, 0.0)), seed=0)
        plan = PartitionPlan(["block0"], ["block1"], 0.3, 0.0, 0, 0.0)
        cfg = OptimizerConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = train(m, [m.dummy_batch()], cfg, plan, "hizfo")
        first = report.records[0]
        (u,) = regenerate_noise([(4,)], step_seed(cfg.master_seed, 0))
        norm = abs((first.L_ZO - first.L_FO) / cfg.epsilon) * math.sqrt(u @ u)
        assert first.zo_estimate_norm == norm and 1e158 < norm < np.inf and not first.diverged
        assert report.diverged and report.steps_run == 2 and report.records[1].diverged

    @pytest.mark.parametrize("eval_interval", [1, 0])
    def test_overflowing_eval_reports_divergence(self, eval_interval):
        # the training step is fine, but the eval forward overflows (the
        # periodic eval with interval 1, the final one with interval 0)
        m = MLPModel(dims=(2, 2), seed=0)
        tensor_named(m, "layer0.weight").data[:] = [1.0, -1.0, 0.0, 0.0]  # logits (x0, -x0)
        batch = Batch(np.full((4, 2), 1e308), np.ones(4, dtype=int))
        with pytest.raises(NumericOverflowError):
            m.forward(batch)
        cfg = OptimizerConfig(max_steps=1, eval_interval=eval_interval, **CFG)
        train_batch = Batch(np.ones((4, 2)), np.ones(4, dtype=int))
        report = train(m, [train_batch], cfg, None, "full_fo", eval_batches=[batch])
        assert report.steps_run == 1 and not report.records[0].diverged
        assert report.diverged and report.final_eval_loss == float("inf")

    def test_overflowing_eval_mean_reports_divergence(self):
        # each eval batch's loss (7.2e307) is finite, their sum is not
        m = one_d_quadratic(theta=1.2e154, fo=True)
        cfg = OptimizerConfig(max_steps=0, **CFG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = train(m, [m.dummy_batch()], cfg, None, "full_fo", eval_batches=[m.dummy_batch()] * 3)
        assert report.diverged and report.final_eval_loss == float("inf")
        assert report.eval_history == [] and report.to_dict()["final_eval_loss"] is None

    @pytest.mark.parametrize("steps, interval, evals", [(200, 50, 4), (210, 50, 5), (20, 0, 1), (0, 50, 1)])
    def test_final_weights_are_evaluated_once(self, steps, interval, evals, monkeypatch):
        # the CLI defaults, 200 steps at interval 50, end on a periodic eval,
        # which must serve as the final one
        seen = []
        monkeypatch.setattr(optimizer, "evaluate", lambda m, b: seen.append(m.flat.copy()) or len(seen) / 8)
        m, plan = mlp_with_split()
        cfg = OptimizerConfig(max_steps=steps, eval_interval=interval, **CFG)
        report = train(m, two_moons_batches(2, 8, seed=0), cfg, plan, "full_fo", eval_batches=[None])
        want = list(range(interval, steps + 1, interval)) if interval else []
        if not want or want[-1] != steps:
            want.append(steps)
        assert len(seen) == evals == len(want)
        assert report.eval_history == [(s, (k + 1) / 8) for k, s in enumerate(want)]
        assert report.final_eval_loss == evals / 8 and np.array_equal(seen[-1], m.flat)

    def test_empty_eval_batches_rejected_before_any_step(self):
        m, plan = mlp_with_split()
        before = [t.data.copy() for t in m.tensors()]
        with pytest.raises(ConfigurationError):
            train(m, two_moons_batches(1, 16, seed=0), OptimizerConfig(max_steps=2, **CFG), plan, "hizfo",
                  eval_batches=[])
        assert all(np.array_equal(t.data, b) for t, b in zip(m.tensors(), before))

    def test_unknown_algorithm_rejected(self):
        m, plan = mlp_with_split()
        with pytest.raises(ConfigurationError):
            train(m, two_moons_batches(1, 8, seed=0), OptimizerConfig(**CFG), plan, "sgd")

    def test_plan_required_for_partitioned_algorithms(self):
        m, _ = mlp_with_split()
        with pytest.raises(ConfigurationError):
            train(m, two_moons_batches(1, 8, seed=0), OptimizerConfig(**CFG), None, "hizfo")

    def test_memory_proxy_reported(self):
        m, plan = mlp_with_split()
        cfg = OptimizerConfig(max_steps=2, **CFG)
        report = train(m, two_moons_batches(1, 16, seed=0), cfg, plan, "hizfo")
        fo_elems = sum(tensor_named(m, n).size for n in plan.fo_set)
        assert report.memory_proxy == {"tape_params": fo_elems}

    def test_step_csv_contract(self, tmp_path, monkeypatch):
        # `hizfo train` writes every StepRecord field but `diverged`, in field
        # order and three under short names, one row per record
        m, plan = mlp_with_split()
        cfg = OptimizerConfig(max_steps=3, **CFG)
        report = train(m, two_moons_batches(1, 16, seed=0), cfg, plan, "hizfo")
        monkeypatch.setattr(cli, "_run", lambda _: (plan, report))
        assert cli.cmd_train(default_config(), tmp_path) == 0
        with open(tmp_path / "steps.csv", newline="") as f:
            rows = list(csv.reader(f))
        names = [f.name for f in fields(StepRecord) if f.name != "diverged"]
        short = {"zo_estimate_norm": "zo_est_norm", "backward_flops": "bwd_flops", "forward_flops": "fwd_flops"}
        assert rows[0] == list(cli.STEP_CSV_COLUMNS) == [short.get(n, n) for n in names]
        assert len(rows) == 4
        for row, rec in zip(rows[1:], report.records):
            assert row == [str(getattr(rec, n)) for n in names]


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(epsilon=float("nan")),
        dict(alpha=float("nan")),
    ], ids=["nan_epsilon", "nan_alpha"])
    def test_values_only_it_reads_are_checked(self, kwargs):
        with pytest.raises(ConfigurationError):
            OptimizerConfig(**kwargs)

    def test_epsilon_positive(self):
        with pytest.raises(ConfigurationError):
            OptimizerConfig(epsilon=0.0)

    def test_rates_positive(self):
        with pytest.raises(ConfigurationError):
            OptimizerConfig(eta_fo=0.0)
        with pytest.raises(ConfigurationError):
            OptimizerConfig(eta_zo=-1.0)

    def test_alpha_nonnegative(self):
        with pytest.raises(ConfigurationError):
            OptimizerConfig(alpha=-0.1)
