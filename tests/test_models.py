import copy
import csv
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hizfo.datasets import two_moons_batches
from hizfo.models import (
    MLPModel,
    QuadraticModel,
    TinyAttentionLM,
    _row_max,
    backward_truncated,
    flops_profile,
    full_gradient,
)
from hizfo.optimizer import OptimizerConfig, hizfo_step, train
from hizfo.partition import PartitionPlan
from hizfo.rng import add_scaled_noise, regenerate_noise
from hizfo.tensors import Batch, ConfigurationError, NumericOverflowError

GOLDEN_CSV = Path(__file__).parent / "data" / "golden_losses.csv"


def tensor_named(model, name):
    """The model's tensor of that name."""
    return next(t for t in model.tensors() if t.name == name)


def lm_batch(vocab=20, batch=4, T=8, seed=0):
    rng = np.random.default_rng(seed)
    return Batch(rng.integers(0, vocab, size=(batch, T)), rng.integers(0, vocab, size=(batch, T)))


def rel_err(a, b, floor=1e-4):
    return abs(a - b) / max(abs(a), abs(b), floor)


class TestForwardExamples:
    def test_quadratic_at_minimum(self):
        m = QuadraticModel(blocks=((5, 1.0, 0.0),), seed=0)
        m.tensors()[0].data[:] = 0.0
        assert m.forward(m.dummy_batch()) == 0.0

    def test_quadratic_half_norm_sq(self):
        m = QuadraticModel(blocks=((2, 1.0, 0.0),), seed=0)
        m.tensors()[0].data[:] = [3.0, 4.0]
        assert m.forward(m.dummy_batch()) == 12.5

    def test_mlp_golden_loss(self):
        m = MLPModel(dims=(2, 16, 2), seed=42)
        batch = two_moons_batches(1, 64, seed=7)[0]
        loss = m.forward(batch)
        with open(GOLDEN_CSV) as f:
            row = next(r for r in csv.DictReader(f) if r["model"] == "mlp")
        assert int(row["seed"]) == 42 and int(row["batch_seed"]) == 7
        assert abs(loss - float(row["loss"])) <= 1e-10 * max(1.0, abs(loss))

    def test_mlp_golden_against_scalar_reimplementation(self):
        # independent scalar oracle: same arithmetic, pure python loops
        m = MLPModel(dims=(2, 16, 2), seed=42)
        batch = two_moons_batches(1, 64, seed=7)[0]
        w1 = tensor_named(m, "layer1.weight").view()  # 2 x 16, input-nearest
        b1 = tensor_named(m, "layer1.bias").data
        w0 = tensor_named(m, "layer0.weight").view()  # 16 x 2, output-nearest
        b0 = tensor_named(m, "layer0.bias").data
        total = 0.0
        for row, label in zip(batch.inputs, batch.targets):
            h = [math.tanh(sum(row[i] * w1[i, j] for i in range(2)) + b1[j]) for j in range(16)]
            logits = [sum(h[j] * w0[j, k] for j in range(16)) + b0[k] for k in range(2)]
            mx = max(logits)
            logz = mx + math.log(sum(math.exp(z - mx) for z in logits))
            total += logz - logits[int(label)]
        oracle = total / batch.size
        assert abs(m.forward(batch) - oracle) < 1e-12


class TestGradients:
    def test_quadratic_gradient_is_displacement(self):
        m = QuadraticModel(blocks=((2, 1.0, 0.0),), seed=0)
        m.tensors()[0].data[:] = [3.0, 4.0]
        g = backward_truncated(m, m.dummy_batch(), ["block0"])
        np.testing.assert_allclose(g["block0"], [3.0, 4.0], rtol=0, atol=0)

    def test_truncation_matches_full_backward(self):
        m = MLPModel(dims=(2, 16, 8, 2), seed=2)
        batch = two_moons_batches(1, 16, seed=1)[0]
        full = full_gradient(m, batch)
        names = [t.name for t in m.tensors()]
        rng = np.random.default_rng(4)
        for _ in range(8):
            active = [n for n in names if rng.random() < 0.5]
            got = backward_truncated(m, batch, active)
            assert set(got) == set(active)
            for n in active:
                assert np.max(np.abs(got[n] - full[n])) <= 1e-12

    @pytest.mark.parametrize("active", [{"layer0.bias", "layer1.weight"}, {"layer2.bias"}])
    def test_deepest_dense_layer_gradients_are_the_full_ones(self, active):
        # the deepest traversed dense layer returns no input gradient
        m = MLPModel(dims=(2, 16, 8, 2), seed=2)
        batch = two_moons_batches(1, 16, seed=1)[0]
        full = full_gradient(m, batch)
        got = backward_truncated(m, batch, active)
        assert set(got) == active
        for n in active:
            assert np.array_equal(got[n], full[n]), n

    def test_top_layer_only_equals_full_slice(self):
        m = MLPModel(dims=(2, 16, 2), seed=3)
        batch = two_moons_batches(1, 16, seed=5)[0]
        top = backward_truncated(m, batch, ["layer0.weight", "layer0.bias"])
        full = full_gradient(m, batch)
        for n in top:
            assert np.max(np.abs(top[n] - full[n])) <= 1e-12

    def test_empty_active_set_is_free(self):
        m = MLPModel(dims=(2, 16, 2), seed=3)
        batch = two_moons_batches(1, 16, seed=5)[0]
        before = m.tally.backward
        assert backward_truncated(m, batch, []) == {}
        assert m.tally.backward == before

    def test_unknown_active_tensor_rejected(self):
        m = MLPModel(dims=(2, 16, 2), seed=3)
        with pytest.raises(ConfigurationError):
            backward_truncated(m, two_moons_batches(1, 16, seed=5)[0], ["nope"])

    def test_full_gradient_tallies_its_forward(self):
        m = TinyAttentionLM(vocab_size=20, d_model=8, depth=2, context=8, seed=0)
        batch = lm_batch()
        before = m.tally.forward
        full_gradient(m, batch)
        assert m.tally.forward - before == m.cost_model(batch.size).total_forward_flops

    def test_overflowing_loss_with_finite_activations_raises(self):
        # one linear layer gives the finite logits (x0, -x0) = (1e308, -1e308);
        # only the cross-entropy of class 1 overflows
        m = MLPModel(dims=(2, 2), seed=0)
        tensor_named(m, "layer0.weight").data[:] = [1.0, -1.0, 0.0, 0.0]
        batch = Batch(np.full((4, 2), 1e308), np.ones(4, dtype=int))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError):
                backward_truncated(m, batch, [t.name for t in m.tensors()])


def reference_block_forward(block, x):
    """The attention block's forward as first written: 3-D matmuls, one
    projection per weight, a fresh mask and fresh arrays at every step."""
    Wq, Wk, Wv, Wo, W1, b1, W2, b2 = (t.view() for t in block.tensors)
    T = x.shape[1]
    q, k, v = x @ Wq, x @ Wk, x @ Wv
    s = (q @ k.transpose(0, 2, 1)) / np.sqrt(block.d_model)
    s = np.where(np.tril(np.ones((T, T), dtype=bool)), s, -1e30)
    a = np.exp(s - s.max(axis=-1, keepdims=True))
    a /= a.sum(axis=-1, keepdims=True)
    z = a @ v
    h = x + z @ Wo
    t1 = np.tanh(h @ W1 + b1)
    out = h + t1 @ W2 + b2
    return out, (x, q, k, v, a, z, h, t1)


class TestAttentionKernels:
    @pytest.mark.parametrize("T", [8, 5])
    def test_block_forward_bit_identical_to_reference(self, T):
        m = TinyAttentionLM(vocab_size=20, d_model=8, depth=3, context=8, seed=5)
        _, (caches, _) = m.forward_with_cache(lm_batch(T=T, seed=2))
        blocks = m.layers[1:-1][::-1]  # execution order
        for block, cache in zip(blocks, caches[1:]):
            x = cache[0]
            out, got = block.forward(x)
            ref_out, ref = reference_block_forward(block, x)
            assert np.array_equal(out, ref_out)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert g.shape == r.shape and np.array_equal(g, r)

    def test_truncation_matches_full_backward(self):
        m = TinyAttentionLM(vocab_size=20, d_model=8, depth=2, context=8, seed=6)
        batch = lm_batch()
        full = full_gradient(m, batch)
        names = [t.name for t in m.tensors()]
        rng = np.random.default_rng(4)
        for _ in range(8):
            active = [n for n in names if rng.random() < 0.5]
            got = backward_truncated(m, batch, active)
            assert set(got) == set(active)
            for n in active:
                assert np.max(np.abs(got[n] - full[n])) <= 1e-12

    @pytest.mark.parametrize("name", ["b1", "b2", "w1", "w2", "wo"])
    def test_deepest_block_gradients_are_the_full_ones(self, name):
        # the deepest active block returns no input gradient, and skips its
        # attention half when none of wq, wk, wv and wo is active
        m = TinyAttentionLM(vocab_size=20, d_model=8, depth=4, context=8, seed=6)
        batch = lm_batch()
        full = full_gradient(m, batch)
        active = {"head.weight", "block3.b1", f"block1.{name}"}
        got = backward_truncated(m, batch, active)
        assert set(got) == active
        for n in active:
            assert np.array_equal(got[n], full[n]), n

    def test_token_gradient_is_the_row_wise_scatter(self):
        # uint8 ids, as the corpus gives them, repeating; 63 * d_model wraps a
        # byte, and the lone id 63 gets only -0.0 terms
        embed = TinyAttentionLM(vocab_size=64, d_model=16, depth=0, seed=0).layers[-1]
        rng = np.random.default_rng(6)
        tokens = rng.choice(np.array([0, 5, 40], dtype=np.uint8), size=(8, 16))
        tokens[3, 7] = 63
        g_out = rng.standard_normal((8, 16, 16))
        g_out[rng.random(g_out.shape) < 0.25] = -0.0
        g_out[3, 7] = -0.0
        got, _ = embed.backward(g_out, tokens, {"embed.token"}, False)
        want = np.zeros((64, 16))
        np.add.at(want, tokens.reshape(-1), g_out.reshape(-1, 16))
        assert got["embed.token"].tobytes() == want.tobytes()

    def test_alternating_sequence_lengths(self):
        m = TinyAttentionLM(vocab_size=20, d_model=8, depth=2, context=8, seed=7)
        short, full_len = lm_batch(T=5, seed=1), lm_batch(T=8, seed=1)
        first = (m.forward(short), m.forward(full_len))
        for _ in range(2):
            assert (m.forward(short), m.forward(full_len)) == first
        g = full_gradient(m, short)
        m.forward(full_len)
        rng = np.random.default_rng(1)
        tensors = m.tensors()
        h = 1e-5
        for _ in range(30):
            t = tensors[rng.integers(len(tensors))]
            i = int(rng.integers(t.size))
            orig = t.data[i]
            t.data[i] = orig + h
            lp = m.forward(short)
            t.data[i] = orig - h
            lm = m.forward(short)
            t.data[i] = orig
            assert rel_err(g[t.name][i], (lp - lm) / (2 * h)) <= 1e-5


class _Metered(np.ndarray):
    """An array whose matmuls add their FLOPs, 2*m*k*n per (m,k)@(k,n)
    product, to ``_Metered.flops``; what is computed from it stays metered."""

    flops = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        plain = [np.asarray(a) for a in inputs]
        if ufunc is np.matmul and method == "__call__":
            _Metered.flops += 2 * plain[0].size * plain[1].shape[-1]
        if out is not None:
            getattr(ufunc, method)(*plain, out=tuple(np.asarray(o) for o in out), **kwargs)
            return out[0]
        return np.asarray(getattr(ufunc, method)(*plain, **kwargs)).view(_Metered)


def forward_case(kind):
    """A layer, an input for it, and the (B, T) its cost entries price that input at."""
    x = np.random.default_rng(0).standard_normal
    if kind in ("attention", "lm_head"):
        B, T, d = 3, 5, 7
        lm = TinyAttentionLM(vocab_size=11, d_model=d, depth=1, context=T, seed=2)
        return lm.layers[1 if kind == "attention" else 0], x((B, T, d)), B, T
    layer = MLPModel(dims=(3, 4, 5), seed=2).layers[1 if kind == "mlp_tanh" else 0]
    return layer, x((6, layer.fan_in)), 6, 1


class TestCostModel:
    @pytest.mark.parametrize("kind", ["attention", "mlp_tanh", "mlp_linear", "lm_head"])
    def test_forward_flops_are_the_matmuls_it_runs(self, kind):
        layer, x, B, T = forward_case(kind)
        out, _ = layer.forward(x)
        _Metered.flops = 0
        metered, _ = layer.forward(x.view(_Metered))
        assert np.array_equal(np.asarray(metered), out)
        assert sum(e.fwd_flops for e in layer.cost_entries(0, B, T)) == _Metered.flops
        if kind == "attention":
            d = x.shape[-1]
            proj, mix, ff = 2 * B * T * d * d, 2 * B * T * T * d, 2 * B * T * d * 4 * d
            # the fused q/k/v GEMM, wo, q @ k.T and a @ v, w1 and w2
            assert _Metered.flops == 3 * proj + proj + 2 * mix + 2 * ff

    def test_quadratic_element_count_convention(self):
        m = QuadraticModel(blocks=((10, 1.0, 0.0),), seed=0)
        cm = flops_profile(m, 1)
        e = cm.entries[0]
        assert (e.grad_flops, e.prop_flops) == (10, 0)
        assert cm.total_backward_flops == 10

    def test_mlp_dense_layer_flops(self):
        batch = 16
        m = MLPModel(dims=(2, 16, 2), seed=0)
        cm = flops_profile(m, batch)
        by = {e.name: e for e in cm.entries}
        # output-nearest dense layer: fan_in 16, fan_out 2
        assert by["layer0.weight"].grad_flops == 2 * 16 * 2 * batch
        assert by["layer0.weight"].prop_flops == 2 * 16 * 2 * batch
        assert by["layer0.bias"].grad_flops == batch * 2
        # input-nearest dense layer: fan_in 2, fan_out 16
        assert by["layer1.weight"].grad_flops == 2 * 2 * 16 * batch
        assert by["layer1.weight"].prop_flops == 2 * 2 * 16 * batch

    def test_total_matches_measured_full_backward_exactly(self):
        for model, batch in (
            (MLPModel(dims=(2, 16, 2), seed=0), two_moons_batches(1, 16, seed=0)[0]),
            (
                TinyAttentionLM(vocab_size=20, d_model=8, depth=2, context=8, seed=0),
                lm_batch(),
            ),
        ):
            cm = flops_profile(model, batch.size)
            before = model.tally.backward
            backward_truncated(model, batch, [t.name for t in model.tensors()])
            assert model.tally.backward - before == cm.total_backward_flops

    def test_flops_monotone_in_active_set(self):
        m = TinyAttentionLM(vocab_size=20, d_model=8, depth=2, context=8, seed=0)
        batch = lm_batch()
        names = [t.name for t in m.tensors()]
        rng = np.random.default_rng(7)
        prev = 0
        active: list = []
        order = list(rng.permutation(len(names)))
        for i in order:
            active.append(names[i])
            before = m.tally.backward
            backward_truncated(m, batch, active)
            delta = m.tally.backward - before
            assert delta >= prev
            prev = delta

    def test_tally_charges_each_batch_at_its_own_length(self):
        # a context-16 model: plans price full-context batches, but a batch
        # of shorter sequences runs, and is charged, at its own (B, T)
        m = TinyAttentionLM(vocab_size=20, d_model=8, depth=2, context=16, seed=0)
        tallies = {}
        for T in (4, 16):
            fwd, bwd = m.tally.forward, m.tally.backward
            full_gradient(m, lm_batch(batch=4, T=T))
            tallies[T] = (m.tally.forward - fwd, m.tally.backward - bwd)
        for T, cost in ((4, m.cost_model(4, 4)), (16, m.cost_model(4))):
            assert tallies[T] == (cost.total_forward_flops, cost.total_backward_flops)
        assert tallies[4][0] < tallies[16][0] and tallies[4][1] < tallies[16][1]

    def test_roles_do_not_change_costs(self):
        # two fresh models, since a model keeps the cost model of its first
        # call: one all FO, one split before it is first priced
        for build in (lambda: MLPModel(dims=(2, 16, 2), seed=0),
                      lambda: TinyAttentionLM(vocab_size=20, d_model=8, depth=2, context=8, seed=0)):
            split = build()
            split.assign([t.name for t in split.tensors()[::2]])
            assert flops_profile(split, 8).to_dict() == flops_profile(build(), 8).to_dict()


class TestDeterminismAndErrors:
    def test_identical_inputs_identical_loss(self):
        batch = two_moons_batches(1, 32, seed=9)[0]
        losses = {MLPModel(dims=(2, 16, 2), seed=11).forward(batch) for _ in range(3)}
        assert len(losses) == 1

    def test_shape_mismatch_is_configuration_error(self):
        m = MLPModel(dims=(2, 16, 2), seed=0)
        with pytest.raises(ConfigurationError):
            m.forward(Batch(np.zeros((4, 3)), np.zeros(4, dtype=int)))

    @pytest.mark.parametrize("inputs, targets", [
        (np.zeros((0, 2)), np.zeros(0, dtype=int)),
        (np.zeros((0, 4), dtype=int), np.zeros((0, 4), dtype=int)),
        (np.zeros((2, 0), dtype=int), np.zeros((2, 0), dtype=int)),
    ], ids=["mlp", "lm", "lm-no-positions"])
    def test_empty_batch_is_configuration_error(self, inputs, targets):
        # unchecked, the MLP read it as a non-finite loss and the LM raised
        # a bare numpy error from the token range check
        with pytest.raises(ConfigurationError, match="empty batch"):
            Batch(inputs, targets)

    def test_overflow_carries_layer_index(self):
        # huge embeddings overflow in the first attention block's score
        # matmul, which squares the magnitudes
        m = TinyAttentionLM(vocab_size=10, d_model=8, depth=2, context=8, seed=0)
        tensor_named(m, "embed.token").data[:] = 1e200
        with pytest.raises(NumericOverflowError) as exc:
            m.forward(lm_batch(vocab=10))
        first_block_index = len(m.layers) - 2  # output-first: head, blocks..., embed
        assert exc.value.layer_index == first_block_index

    def test_nonfinite_loss_overflow(self):
        m = MLPModel(dims=(2, 2), seed=0)
        tensor_named(m, "layer0.weight").data[:] = [1.0, -1.0, 0.0, 0.0]  # logits (x0, -x0)
        batch = Batch(np.full((4, 2), 1e308), np.ones(4, dtype=int))
        with pytest.raises(NumericOverflowError, match="non-finite loss") as exc:
            m.forward(batch)
        assert exc.value.layer_index == 0

    def test_lm_token_range_checked(self):
        m = TinyAttentionLM(vocab_size=10, d_model=8, depth=1, context=8, seed=0)
        bad = Batch(np.full((2, 8), 11), np.zeros((2, 8), dtype=int))
        with pytest.raises(ConfigurationError):
            m.forward(bad)

    @pytest.mark.parametrize("case, match", [
        ("class_count", "class ids in"), ("negative", "class ids in"), ("extra_axis", "and targets"),
        ("other_positions", "and targets"), ("float", "class ids in"),
    ])
    @pytest.mark.parametrize("kind", ["mlp", "lm"])
    def test_targets_checked_at_the_boundary(self, kind, case, match):
        # unchecked, an id outside [0, classes) reads a logit of another row
        # or raises a bare IndexError, and misshaped targets a broadcast error
        if kind == "mlp":
            m, classes = MLPModel(dims=(2, 16, 3), seed=0), 3
            batch = two_moons_batches(1, 4, seed=0)[0]
        else:
            m, classes = TinyAttentionLM(vocab_size=8, d_model=4, depth=1, context=4, seed=0), 8
            batch = lm_batch(vocab=8, batch=2, T=4)
        y = batch.targets.copy()
        m.forward(batch)
        if case == "class_count":
            y.flat[0] = classes
        elif case == "negative":
            y.flat[-1] = -1
        elif case == "extra_axis":
            y = y[..., None]
        elif case == "other_positions":
            y = y[:, :-1] if kind == "lm" else np.stack([y, y], axis=1)
        else:
            y = y.astype(float)
        with pytest.raises(ConfigurationError, match=match):
            m.forward(Batch(batch.inputs, y))

    def test_lm_token_ids_must_be_integers(self):
        # cast to int, [1.9, 2.2, 3.7, 4.4] read tokens [1, 2, 3, 4] and gave their loss
        m = TinyAttentionLM(vocab_size=8, d_model=4, depth=1, context=4, seed=0)
        y = np.array([[2, 3, 4, 5]])
        for tokens in ([[1.9, 2.2, 3.7, 4.4]], [[1.0, 2.0, 3.0, 4.0]], [[True, False, True, False]]):
            with pytest.raises(ConfigurationError, match="integer token inputs"):
                m.forward(Batch(np.array(tokens), y))
        want = m.forward(Batch(np.array([[1, 2, 3, 4]]), y))
        for dtype in (np.uint8, np.int32, np.uint64):
            assert m.forward(Batch(np.array([[1, 2, 3, 4]], dtype=dtype), y)) == want

    def test_mlp_inputs_must_be_real_numbers(self):
        # numpy's own conversion raised a bare ValueError for strings and
        # dropped the imaginary part of complex inputs
        m = MLPModel(dims=(2, 16, 2), seed=0)
        for x in ([["a", "b"]], [[1 + 1j, 2]], [[None, 1.0]]):
            with pytest.raises(ConfigurationError, match="real inputs"):
                m.forward(Batch(np.array(x), np.array([0])))
        assert m.forward(Batch(np.array([[1, 2]]), np.array([0]))) == m.forward(Batch(np.array([[1.0, 2.0]]), np.array([0])))

    def test_lm_caps(self):
        with pytest.raises(ConfigurationError):
            TinyAttentionLM(vocab_size=65)
        with pytest.raises(ConfigurationError):
            TinyAttentionLM(depth=5)
        with pytest.raises(ConfigurationError, match="depth must be in"):
            TinyAttentionLM(depth=-1)  # once built a model with no blocks
        assert [t.name for t in TinyAttentionLM(depth=0).tensors()] == ["head.weight", "embed.token", "embed.position"]

    @pytest.mark.parametrize("build", [
        lambda: MLPModel(dims=(2,)),
        lambda: MLPModel(dims=()),
        lambda: QuadraticModel(blocks=()),
    ], ids=["mlp_one_dim", "mlp_no_dims", "quadratic_no_blocks"])
    def test_model_without_tensors_is_configuration_error(self, build):
        # these once raised numpy's bare ValueError from the buffer layout
        with pytest.raises(ConfigurationError, match="at least one parameter tensor"):
            build()

    @pytest.mark.parametrize("build, name", [
        (lambda: TinyAttentionLM(depth=2.5), "depth"),
        (lambda: TinyAttentionLM(vocab_size=10.7, d_model=8.2, context=4.9), "vocab_size"),
        (lambda: TinyAttentionLM(d_model=8.2), "d_model"),
        (lambda: TinyAttentionLM(context=4.9), "context"),
        (lambda: MLPModel(dims=(2.9, 16, 2)), "dims"),
        (lambda: QuadraticModel(blocks=((2.5, 1.0, 0.0),)), "block0 size"),
    ], ids=["lm_depth", "lm_vocab", "lm_d_model", "lm_context", "mlp_dims", "quadratic_block"])
    def test_fractional_size_is_configuration_error(self, build, name):
        # sizes were once truncated: depth 2.5 built 2 blocks, dims 2.9 read 2
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            build()

    def test_numpy_integer_sizes_pass(self):
        lm = TinyAttentionLM(vocab_size=np.int64(10), d_model=np.int32(8), depth=np.int64(1), context=np.uint8(4))
        assert (lm.vocab_size, lm.d_model, lm.depth, lm.context) == (10, 8, 1, 4)
        assert MLPModel(dims=np.array([2, 3, 2])).dims == (2, 3, 2)
        assert QuadraticModel(blocks=((np.int64(3), 1.0, 0.0),)).flat.size == 3


_SMALL = {
    "quadratic": lambda k: QuadraticModel(blocks=[(1 + (k + i) % 4, 1.0, 0.0) for i in range(1 + k % 4)], seed=k),
    "mlp": lambda k: MLPModel(dims=(2, 1 + k % 4, 3, 2)[: 3 + k % 2], seed=k),
    "lm": lambda k: TinyAttentionLM(vocab_size=8, d_model=2 + k % 3, depth=1 + k % 2, context=4, seed=k),
}
_CLONES = {"deepcopy": copy.deepcopy, "pickle": lambda m: pickle.loads(pickle.dumps(m))}


def _layout(m):
    """Each tensor's name and element offset into ``flat``, in buffer order."""
    return sorted(((t.data.ctypes.data - m.flat.ctypes.data) // 8, t.name) for t in m.tensors())


def _packed(tensors):
    """The ``_layout`` of `tensors` laid end to end in the given order."""
    return [(sum(t.size for t in tensors[:i]), t.name) for i, t in enumerate(tensors)]


class TestFlatBuffer:
    """Every tensor's data is a slice of the model's one buffer, ZO tensors
    first, and a noise pass over ``zo`` equals the per-tensor draws bit for bit."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(_SMALL)), st.integers(0, 11), st.sampled_from(["fo", "zo", "mixed"]),
           st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.floats(1e-8, 10.0))
    @example("lm", 1, "zo", 0, 3, 1e-3)
    @example("lm", 1, "fo", 0, 3, 1e-3)
    def test_zo_equals_per_tensor_noise(self, kind, k, mode, bits, seed, scale):
        m = _SMALL[kind](k)
        mask = [mode == "zo" or (mode == "mixed" and bool(bits >> i & 1)) for i in range(len(m.tensors()))]
        m.assign(t.name for t, zo in zip(m.tensors(), mask) if not zo)
        before = [t.data.copy() for t in m.tensors()]
        zo = [t for t, z in zip(m.tensors(), mask) if z]
        # the buffer holds the ZO tensors, then the FO ones, each in tensor
        # order, and zo views exactly the ZO head
        assert _layout(m) == _packed(zo + m.fo)
        assert m.zo.base is m.flat and m.zo.ctypes.data == m.flat.ctypes.data
        assert m.zo.size == sum(t.size for t in zo)
        sq = add_scaled_noise([m.zo], seed, scale)
        draws = [u.reshape(-1) for u in regenerate_noise([t.shape for t in zo], seed)]
        us = iter(draws)
        for t, b, z in zip(m.tensors(), before, mask):
            if z:
                assert np.array_equal(t.data, b + scale * next(us)), t.name
            else:
                assert np.array_equal(t.data, b), t.name
        u = np.concatenate(draws) if draws else np.zeros(0)
        assert sq == float(u @ u)

    @pytest.mark.parametrize("clone", sorted(_CLONES))
    @pytest.mark.parametrize("kind", ["mlp", "lm"])
    def test_copy_keeps_its_own_buffer(self, kind, clone):
        m = {"mlp": lambda: MLPModel(dims=(2, 8, 2), seed=3),
             "lm": lambda: TinyAttentionLM(vocab_size=10, d_model=4, depth=2, context=8, seed=3)}[kind]()
        batch = two_moons_batches(1, 16, seed=0)[0] if kind == "mlp" else lm_batch(vocab=10)
        # unsplit, so both buffers are in tensor order
        c = _CLONES[clone](m)
        for t in c.tensors():
            assert np.shares_memory(t.data, c.flat) and not np.shares_memory(t.data, m.flat), t.name
        original = m.flat.copy()
        add_scaled_noise([c.flat], 11, 1e-2)
        assert np.array_equal(m.flat, original)
        for t, o, u in zip(c.tensors(), m.tensors(), regenerate_noise([t.shape for t in m.tensors()], 11)):
            assert np.array_equal(t.view(), o.view() + 1e-2 * u), t.name
        # a fresh copy of a split model trains like the original, step records and weights alike
        m.assign(t.name for i, t in enumerate(m.tensors()) if i % 3 == 0)
        c = _CLONES[clone](m)
        original = m.flat.copy()
        cfg = OptimizerConfig(eta_fo=0.05, eta_zo=0.005, epsilon=1e-3, alpha=0.1, master_seed=2)
        for step in range(3):
            assert hizfo_step(m, batch, cfg, step).L_ZO == hizfo_step(c, batch, cfg, step).L_ZO
        assert np.array_equal(m.flat, c.flat) and not np.array_equal(m.flat, original)

    @pytest.mark.parametrize("kind", ["mlp", "lm"])
    def test_copy_carries_each_parameter_once(self, kind):
        # the tensors carry the parameters and the buffer is rebuilt from
        # them, so a pickle holds one copy and little else
        m = {"mlp": lambda: MLPModel(dims=(2, 64, 64, 2), seed=0),
             "lm": lambda: TinyAttentionLM(vocab_size=64, d_model=16, depth=2, context=16, seed=0)}[kind]()
        assert len(pickle.dumps(m)) < 1.25 * m.flat.nbytes


def _seed_loss(logits, batch):
    """The cross-entropy as two 2-D gathers, a copied gradient and np.mean:
    the reference the one-pass ``_loss`` must match bit for bit."""
    flat = logits.reshape(-1, logits.shape[-1])
    y = np.asarray(batch.targets).reshape(-1).astype(int)
    rows = np.arange(flat.shape[0])
    shifted = flat - flat.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    nll = np.log(z[:, 0]) - shifted[rows, y]
    g = e / z
    g[rows, y] -= 1.0
    return float(nll.mean()), (g / flat.shape[0]).reshape(logits.shape)


def _eager_forward(m, batch):
    """The oracle: a finite check after every layer, then one on the loss."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = m._inputs(batch)
        caches = []
        for li in range(len(m.layers) - 1, -1, -1):
            h, c = m.layers[li].forward(h)
            if not np.all(np.isfinite(h)):
                raise NumericOverflowError(f"non-finite activations at layer {li}", li)
            caches.append(c)
        loss, g = _seed_loss(h, batch)
    if not np.isfinite(loss):
        raise NumericOverflowError("non-finite loss", 0)
    return loss, (caches, g)


def _outcome(forward, m, batch):
    try:
        return forward(m, batch)
    except NumericOverflowError as e:
        return type(e), str(e), e.layer_index


def _same(a, b):
    """Bit-identical nested tuples and lists of arrays, floats and None."""
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    return type(a) is type(b) and (a == b or (a != a and b != b))


_POISONED = {
    "mlp": (lambda: MLPModel(dims=(2, 6, 5, 2), seed=4), lambda: two_moons_batches(1, 16, seed=2)[0]),
    "lm": (lambda: TinyAttentionLM(vocab_size=10, d_model=4, depth=2, context=8, seed=4),
           lambda: lm_batch(vocab=10)),
}


class TestOneFiniteCheck:
    """One finite check per forward pass raises what a check after every
    layer raised, naming the same layer, and changes nothing else."""

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e200])
    @pytest.mark.parametrize("fill", ["tensor", "element"])
    @pytest.mark.parametrize("kind", sorted(_POISONED))
    def test_poisoned_tensor_fails_like_the_eager_walk(self, kind, fill, value):
        build, make_batch = _POISONED[kind]
        batch = make_batch()
        names = [t.name for t in build().tensors()]
        raised = 0
        for name in names:
            m = build()
            t = tensor_named(m, name)
            if fill == "tensor":
                t.data[:] = value
            else:
                t.data[t.size // 2] = value
            want = _outcome(_eager_forward, m, batch)
            got = _outcome(lambda m, b: m.forward_with_cache(b), m, batch)
            assert _same(got, want), name
            raised += isinstance(want[0], type)
        # the oracle saw overflow, so the check was exercised; tanh squashes
        # the MLP's 1e200 pre-activations and its logits stay finite
        assert raised > 0 or (kind, value) == ("mlp", 1e200)

    @pytest.mark.parametrize("kind", sorted(_POISONED))
    def test_finite_forward_is_bit_identical(self, kind):
        build, make_batch = _POISONED[kind]
        m, batch = build(), make_batch()
        assert _same(m.forward_with_cache(batch), _eager_forward(m, batch))

    def test_minus_inf_logit_off_the_targets_is_caught(self):
        # the loss stays finite when a -inf logit is never a target; the
        # logits themselves are non-finite, so the pass must still fail
        m = MLPModel(dims=(2, 2), seed=0)
        tensor_named(m, "layer0.bias").data[0] = -np.inf
        batch = Batch(np.zeros((3, 2)), np.ones(3, dtype=int))
        assert _outcome(_eager_forward, m, batch)[1:] == ("non-finite activations at layer 0", 0)
        with pytest.raises(NumericOverflowError, match="at layer 0") as exc:
            m.forward(batch)
        assert exc.value.layer_index == 0


class TestLossKernels:
    @pytest.mark.parametrize("shape", [(64, 2), (256, 64), (12, 1), (3, 8, 5)])
    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e308])
    def test_loss_matches_the_two_gather_formula(self, shape, scale):
        rng = np.random.default_rng(shape[0] + shape[-1])
        # every class is a target somewhere
        y = np.arange(math.prod(shape[:-1])).reshape(shape[:-1]) % shape[-1]
        for _ in range(8):
            logits = scale * rng.uniform(-1.0, 1.0, size=shape)
            batch = Batch(np.zeros(shape[:-1]), rng.permuted(y.reshape(-1)).reshape(y.shape))
            with np.errstate(over="ignore", invalid="ignore"):
                loss, g = MLPModel()._loss(logits, batch)
                want_loss, want_g = _seed_loss(logits, batch)
            assert type(loss) is float and _same(loss, want_loss)
            assert g.shape == logits.shape and np.array_equal(g, want_g, equal_nan=True)

    @pytest.mark.parametrize("shape", [(64, 2), (16, 16, 16), (5, 1), (3, 7), (2, 3, 40)])
    def test_row_max_is_max_over_the_last_axis(self, shape):
        x = np.random.default_rng(1).standard_normal(shape)
        flat = x.reshape(-1, shape[-1])
        specials = [np.nan, np.inf, -np.inf]
        for r in range(min(len(flat), 9)):  # NaN, +inf and -inf alone and together in a row
            for k, v in enumerate(specials):
                if r >> k & 1 or r == 8:
                    flat[r, (r + k) % shape[-1]] = v
        flat[-1] = -np.inf
        got = _row_max(x)
        assert got.shape == shape[:-1] + (1,)
        assert np.array_equal(got, x.max(axis=-1, keepdims=True), equal_nan=True)


class TestRoleSplit:
    """The model's one FO/ZO split, set by ``assign`` and read by the steps."""

    def _model(self):
        m = TinyAttentionLM(vocab_size=10, d_model=4, depth=2, context=8, seed=5)
        m.assign(t.name for i, t in enumerate(m.tensors()) if i % 3 == 0)
        return m

    @staticmethod
    def _split(m):
        return m.fo, m.fo_names, m.zo, m.flat

    def test_split_follows_the_roles(self):
        m = self._model()
        split = self._split(m)
        cfg = OptimizerConfig(eta_fo=0.05, eta_zo=0.005, epsilon=1e-3, alpha=0.1, master_seed=2)
        for step in range(3):
            hizfo_step(m, lm_batch(vocab=10), cfg, step)
        assert all(a is b for a, b in zip(self._split(m), split))  # steps reuse it
        # a re-assign replaces the split: tensor 1 joins the FO set
        fo = [t for i, t in enumerate(m.tensors()) if i % 3 == 0 or i == 1]
        m.assign(reversed([t.name for t in fo]))
        assert m.zo is not split[2] and m.flat is not split[3]
        assert m.fo == fo and m.fo_names == [t.name for t in fo]
        zo = [t.name not in m.fo_names for t in m.tensors()]
        # zo views exactly the ZO tensors' data
        assert np.shares_memory(m.zo, m.flat)
        m.zo[:] = np.nan
        for t, z in zip(m.tensors(), zo):
            assert np.isnan(t.data).all() if z else not np.isnan(t.data).any(), t.name

    def test_train_assigns_the_plan_once(self, monkeypatch):
        m = self._model()
        names = [t.name for t in m.tensors()]
        plan = PartitionPlan(names[:2], names[2:], 0.5, 0.0, 0, 0.0)
        calls = []
        assign = type(m).assign
        monkeypatch.setattr(type(m), "assign", lambda self, fo: calls.append(1) or assign(self, fo))
        cfg = OptimizerConfig(eta_fo=0.05, eta_zo=0.005, epsilon=1e-3, max_steps=5, master_seed=2)
        report = train(m, [lm_batch(vocab=10)], cfg, plan, "hizfo")
        assert report.steps_run == 5 and calls == [1] and m.fo_names == names[:2]

    def test_assign_rejects_unknown_names_and_keeps_the_split(self):
        m = self._model()
        split = self._split(m)
        for bad in (["nope"], ["head.weight", "nope"], "head.weight"):
            with pytest.raises(ConfigurationError, match="unknown"):
                m.assign(bad)
            assert all(a is b for a, b in zip(self._split(m), split))

    @pytest.mark.parametrize("kind", sorted(_SMALL))
    def test_a_new_model_is_all_fo(self, kind):
        m = _SMALL[kind](3)
        assert m.fo == m.tensors() and m.fo_names == [t.name for t in m.tensors()] and m.zo.size == 0
        # so the buffer is in tensor order
        assert _layout(m) == _packed(m.tensors())

    @pytest.mark.parametrize("kind", sorted(_SMALL))
    def test_reassign_keeps_every_value_in_a_new_buffer(self, kind):
        m = _SMALL[kind](5)
        for fo in ([t.name for t in m.tensors()][1::2], [m.tensors()[0].name], []):
            old, values = m.flat, [t.data.copy() for t in m.tensors()]
            m.assign(fo)
            for t, v in zip(m.tensors(), values):
                assert np.array_equal(t.data, v), t.name
                assert np.shares_memory(t.data, m.flat) and not np.shares_memory(t.data, old), t.name

    @pytest.mark.parametrize("clone", sorted(_CLONES))
    def test_copy_after_a_step_moves_only_its_own_zo_tensors(self, clone):
        m = self._model()
        fo_names = m.fo_names
        m.assign(t.name for t in m.tensors())
        size = len(pickle.dumps(m))  # all FO
        m.assign(fo_names)
        batch = lm_batch(vocab=10)
        cfg = OptimizerConfig(eta_fo=0.05, eta_zo=0.005, epsilon=1e-3, alpha=0.1, master_seed=2)
        hizfo_step(m, batch, cfg, 0)
        c = _CLONES[clone](m)
        assert len(pickle.dumps(m)) < size + m.flat.nbytes // 2  # the split's views are not copied
        assert c.fo_names == m.fo_names and all(t is tensor_named(c, t.name) for t in c.fo)
        assert c.zo.size == m.zo.size and _layout(c) == _layout(m)
        assert np.shares_memory(c.zo, c.flat) and not np.shares_memory(c.zo, m.flat)
        original = m.flat.copy()
        zo_before = [(t, t.data.copy()) for t in c.tensors() if t.name not in c.fo_names]
        hizfo_step(c, batch, cfg, 1)
        assert np.array_equal(m.flat, original)
        for t, before in zo_before:
            assert not np.array_equal(t.data, before), t.name

    def test_subset_cost_memo_rejects_unknown_names(self):
        cost = MLPModel(dims=(2, 3, 2), seed=0).cost_model(4)
        one, both = cost.subset_backward_flops(["layer0.weight"]), cost.subset_backward_flops(cost.names())
        assert cost.subset_backward_flops({"layer0.weight"}) == one
        assert cost.subset_backward_flops(cost.names()) == both
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                cost.subset_backward_flops(["layer0.weight", "nope"])
        assert cost.subset_backward_flops(["layer0.weight"]) == one
