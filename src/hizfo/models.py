"""The differentiable model zoo and its FLOPs cost model.

Three model kinds, all float64 and fully deterministic given their seed:

* ``QuadraticModel``    -- independent quadratic blocks, closed-form gradients.
* ``MLPModel``          -- dense tanh stack for the synthetic classification task.
* ``TinyAttentionLM``   -- single-head causal attention + MLP blocks, byte-level
                           next-token loss.

Layers are indexed from the model output: layer 0 is output-nearest. A
truncated backward propagates activation gradients from the loss down
through every layer up to and including the deepest layer that contains a
requested tensor, and computes weight gradients only for requested tensors.

FLOPs convention: one multiply-add counts as 2 FLOPs, so a (m,k)@(k,n)
matmul costs 2*m*k*n. Elementwise work (tanh, softmax, masking, scaling)
is not counted. Non-matmul gradient reductions (bias sums, embedding
scatter-adds) are charged one FLOP per touched element. Activation
propagation through a layer is charged whenever the layer is traversed,
including the deepest traversed layer, so the cost of a full backward
equals the sum of all per-tensor entries exactly. The tally counts this
budget-comparable cost; the deepest layer and a frozen prefix that the run
keeps (``_SequentialModel._forward``) run less.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .tensors import Batch, ConfigurationError, NumericOverflowError, ParamTensor, _size


@dataclass
class CostEntry:
    name: str
    layer_index: int
    grad_flops: int   # weight-gradient cost of this tensor
    prop_flops: int   # activation propagation through this tensor's layer (on the layer's first tensor, 0 on the rest)
    fwd_flops: int


class CostModel:
    """Per-tensor backward/forward FLOPs, ordered output-first, and the one
    owner of the subset-cost rule that the planner and the tally share."""

    def __init__(self, entries: list[CostEntry]):
        self.entries = list(entries)
        self.index = {e.name: k for k, e in enumerate(self.entries)}
        if len(self.index) != len(self.entries):
            raise ConfigurationError("duplicate tensor names in cost model")
        self.grad = [e.grad_flops for e in self.entries]
        # cumprop[k]: propagation through every layer down to and including entry k's layer
        self.cumprop = list(itertools.accumulate(e.prop_flops for e in self.entries))
        self.total_backward_flops = int(sum(e.grad_flops + e.prop_flops for e in self.entries))
        self.total_forward_flops = int(sum(e.fwd_flops for e in self.entries))
        self._last = (None, 0)  # the last subset priced and its cost: a step prices one subset

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def subset_backward_flops(self, selected) -> int:
        """Backward FLOPs of a truncated pass that needs exactly `selected`.

        Weight-gradient cost of each selected tensor plus activation
        propagation through every layer from the output down to and
        including the deepest selected tensor's layer.
        """
        selected = set(selected)
        if selected == self._last[0]:
            return self._last[1]
        unknown = selected - self.index.keys()
        if unknown:
            raise ConfigurationError(f"unknown tensors in subset: {sorted(unknown)}")
        if not selected:
            return 0
        # a plain loop: a numpy gather costs more than the sum on these sizes
        pos = [self.index[n] for n in selected]
        self._last = (selected, int(self.cumprop[max(pos)] + sum(self.grad[k] for k in pos)))
        return self._last[1]

    def to_dict(self) -> dict:
        return {
            "tensors": [asdict(e) for e in self.entries],
            "total_backward_flops": self.total_backward_flops,
            "total_forward_flops": self.total_forward_flops,
        }


class FlopsTally:
    """Running operation counts for one model instance."""

    def __init__(self):
        self.forward = 0
        self.backward = 0


def _row_max(x):
    """``x.max(axis=-1, keepdims=True)``, NaN and signed infinities alike:
    numpy reduces short rows slowly but a transposed copy's columns fast."""
    return np.maximum.reduce(x.reshape(-1, x.shape[-1]).T.copy()).reshape(x.shape[:-1] + (1,))


def _init_dense(rng, fan_in, fan_out):
    scale = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


class LayeredModel:
    """Base class: ordered layers (output-nearest first) over ParamTensors,
    each layer pricing its tensors with ``cost_entries(layer_index, B, T)``.
    Every tensor's data is a slice of one float64 buffer, ``flat``, laid out
    by ``assign`` alone: the ZO tensors first, then the FO ones. The tensors
    are written in place between assigns; an assign rebinds every tensor's
    data to a new buffer, so a reference held across it goes stale. A new
    model is all FO, so its buffer is in tensor order."""

    kind = "base"
    context = 1  # the sequence length plans are made at; models without one read T = 1

    def __init__(self):
        self.tally = FlopsTally()
        self._cost_cache: dict[tuple[int, int], CostModel] = {}

    def _register(self, layers_output_first):
        self.layers = layers_output_first
        self._tensors = []
        for i, layer in enumerate(self.layers):
            for t in layer.tensors:
                t.layer_index = i
                self._tensors.append(t)
        if not self._tensors:
            raise ConfigurationError(f"a {self.kind} model needs at least one parameter tensor")
        self._by_name = {t.name: t for t in self._tensors}
        self.assign(self._by_name)

    def __getstate__(self):
        # a copy carries each parameter once, in its tensor, and assign lays
        # the buffer out again when it is restored
        return {k: v for k, v in self.__dict__.items() if k not in ("flat", "zo")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.assign(self.fo_names)

    def tensors(self) -> list[ParamTensor]:
        return self._tensors

    def assign(self, fo_names) -> None:
        """Make the named tensors the FO set and every other tensor ZO: sets
        ``fo`` and ``fo_names``, in tensor order, lays out a new ``flat``, the ZO
        tensors and then the FO ones, each in tensor order, and sets ``zo``, the
        view of its ZO head. Callers must not change them."""
        names = set(fo_names)
        unknown = names - self._by_name.keys()
        if unknown:
            raise ConfigurationError(f"unknown tensors: {sorted(unknown)}")
        self.fo = [t for t in self._tensors if t.name in names]
        self.fo_names = [t.name for t in self.fo]
        order = [t for t in self._tensors if t.name not in names] + self.fo
        self.flat = np.concatenate([t.data for t in order])
        k = 0
        for t in order:
            t.data = self.flat[k : k + t.size]
            k += t.size
        self.zo = self.flat[: self.flat.size - sum(t.size for t in self.fo)]

    # subclasses implement:
    def _forward(self, batch, kept=None):  # -> (loss, cache)
        raise NotImplementedError

    def _backward(self, batch, cache, active: set):  # -> dict name -> grad
        raise NotImplementedError

    def cost_model(self, batch_size: int, T: int | None = None) -> CostModel:
        """FLOPs of one batch of `batch_size` sequences of length `T`, the
        model's context by default; built once per (B, T). Dense layers price
        B*T rows: a model without a context is tallied at T = 1, and a direct
        call with another T prices it at B*T rows."""
        key = (int(batch_size), self.context if T is None else int(T))
        if key not in self._cost_cache:
            self._cost_cache[key] = CostModel(
                [e for li, layer in enumerate(self.layers) for e in layer.cost_entries(li, *key)]
            )
        return self._cost_cache[key]

    def _batch_cost(self, batch: Batch) -> CostModel:
        """The cost model at the batch's own (B, T); T = 1 without a context."""
        return self.cost_model(batch.size, batch.inputs.shape[1] if self.context > 1 else 1)

    def forward(self, batch: Batch) -> float:
        loss, _ = self.forward_with_cache(batch)
        return loss

    def forward_with_cache(self, batch: Batch, kept: dict | None = None):
        """One checked, tallied pass. With `kept` (``_SequentialModel._forward``) it may start
        higher, and its cache then serves only a backward over the FO set."""
        # overflow surfaces as a NumericOverflowError from the finite check,
        # not as numpy runtime warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            loss, cache = self._forward(batch, kept)
        if not np.isfinite(loss):
            raise NumericOverflowError("non-finite loss", 0)
        self.tally.forward += self._batch_cost(batch).total_forward_flops
        return float(loss), cache

    def backward_from_cache(self, batch: Batch, cache, active) -> dict:
        active = set(active)
        if not active:
            return {}
        # the subset cost rejects unknown names before any backward work
        flops = self._batch_cost(batch).subset_backward_flops(active)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            grads = self._backward(batch, cache, active)
        self.tally.backward += flops
        return grads


class QuadraticModel(LayeredModel):
    """Sum of independent quadratic blocks 0.5*sum(c*(theta - target)^2).

    Each block is one tensor in its own layer; gradients are closed-form.
    A block's curvature c is a scalar or one entry per element. The batch
    is ignored, each tensor costs one FLOP per element and there is no
    activation chain to propagate through.
    """

    kind = "quadratic"

    def __init__(self, blocks=((10, 1.0, 0.0),), seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.curvatures = []
        self.targets = []
        layers = []
        for i, (dim, curvature, target) in enumerate(blocks):
            dim = _size(f"block{i} size", dim)
            init = rng.uniform(-1.0, 1.0, size=dim)
            layers.append(_AnalyticLayer([ParamTensor(f"block{i}", (dim,), init)]))
            self.curvatures.append(np.broadcast_to(np.asarray(curvature, float), (dim,)))
            self.targets.append(np.full(dim, float(target)))
        self._register(layers)

    def dummy_batch(self) -> Batch:
        return Batch(np.zeros((1, 1)), np.zeros((1, 1)))

    def _forward(self, batch, kept=None):
        loss = 0.0
        for t, c, tgt in zip(self._tensors, self.curvatures, self.targets):
            d = t.data - tgt
            loss += 0.5 * float(d @ (c * d))
        return loss, None

    def _backward(self, batch, cache, active):
        grads = {}
        for t, c, tgt in zip(self._tensors, self.curvatures, self.targets):
            if t.name in active:
                grads[t.name] = c * (t.data - tgt)
        return grads


class _AnalyticLayer:
    def __init__(self, tensors):
        self.tensors = tensors

    def cost_entries(self, layer_index, batch, T):
        return [CostEntry(t.name, layer_index, t.size, 0, t.size) for t in self.tensors]


class _SequentialModel(LayeredModel):
    """Layers run one after another from the input to the loss head.

    Subclasses check the batch's shapes and convert its inputs in
    ``_inputs``; the layer walk and the cross-entropy loss are shared.
    """

    def _forward(self, batch, kept=None):
        """Loss and cache of one pass, with one finite check for the pass.

        NaN and ±inf in any layer's output reach the loss, except a -inf
        logit off the targets, which the logits' sum catches. Only when that
        check fails are the outputs scanned in forward order; the first
        non-finite one is raised as ``NumericOverflowError``.

        With `kept`, the output of the layers below the deepest FO layer is
        stored in it under ``id(batch)`` as ``(batch, fo, output)``, read-only,
        and read back for the same batch and ``fo`` list. Only a pass that
        passed stores one, so a pass that starts above it scans as a full one.
        """
        h = self._inputs(batch)
        top = start = len(self.layers) - 1
        deepest = top if kept is None else max((t.layer_index for t in self.fo), default=-1)
        b, fo, out = kept.get(id(batch), (None,) * 3) if deepest < top else (None,) * 3
        if b is batch and fo is self.fo:
            start, h = deepest, out
        caches, outs = [None] * (top + 1), [None] * (top + 1)  # caches in forward order, outs by layer
        for li in range(start, -1, -1):
            h, caches[top - li] = self.layers[li].forward(h)
            outs[li] = h
        loss, g_logits = self._loss(h, batch)
        if not np.isfinite(loss + np.add.reduce(h, axis=None)):
            for li in range(start, -1, -1):
                if not np.all(np.isfinite(outs[li])):
                    raise NumericOverflowError(f"non-finite activations at layer {li}", li)
        if start > deepest:  # holding the batch pins its id
            outs[deepest + 1].flags.writeable = False
            kept[id(batch)] = (batch, self.fo, outs[deepest + 1])
        return loss, (caches, g_logits)

    def _loss(self, logits, batch):
        """Mean cross-entropy over every position of ``logits`` (..., classes)
        and its gradient. ``_inputs`` checked the targets' shape; an id that
        is not an integer in [0, classes) is a ConfigurationError."""
        flat = logits.reshape(-1, logits.shape[-1])
        n, C = flat.shape
        # the target entries of the row-major (n, C) arrays, as one flat index;
        # ravel_multi_index also rejects non-integer and out-of-range ids
        try:
            at = np.ravel_multi_index((np.arange(n), batch.targets.reshape(-1)), (n, C))
        except (ValueError, TypeError):
            raise ConfigurationError(f"targets must be integer class ids in [0, {C})") from None
        shifted = flat - _row_max(flat)
        e = np.exp(shifted)
        z = e.sum(axis=1, keepdims=True)
        nll = np.log(z[:, 0]) - shifted.take(at)
        e /= z
        e.reshape(-1)[at] -= 1.0
        e /= n
        return float(nll.sum() / n), e.reshape(logits.shape)

    def _backward(self, batch, cache, active):
        caches, g = cache
        deepest = max(self._by_name[n].layer_index for n in active)
        grads = {}
        for li, c in zip(range(deepest + 1), caches[::-1]):
            layer_grads, g = self.layers[li].backward(g, c, active, li < deepest)
            grads.update(layer_grads)
        return grads


class _DenseLayer:
    """y = act(x @ W [+ b]) over the last axis of x, as one 2-D GEMM over
    every leading row (B rows for the MLP, B*T for the LM head), so y has
    shape (rows, fan_out); backward returns the input gradient, in x's shape,
    unless the layer is the deepest traversed; the cost model charges it anyway."""

    def __init__(self, name, fan_in, fan_out, rng, activation, bias=True):
        self.fan_in = fan_in
        self.fan_out = fan_out
        self.activation = activation
        self.tensors = [ParamTensor(f"{name}.weight", (fan_in, fan_out), _init_dense(rng, fan_in, fan_out))]
        if bias:
            self.tensors.append(ParamTensor(f"{name}.bias", (fan_out,), np.zeros(fan_out)))

    def forward(self, x):
        pre = x.reshape(-1, self.fan_in) @ self.tensors[0].view()
        if len(self.tensors) > 1:
            pre += self.tensors[1].data
        out = np.tanh(pre) if self.activation == "tanh" else pre
        return out, (x, out if self.activation == "tanh" else None)

    def backward(self, g_out, cache, active, propagate):
        x, tanh_out = cache
        g_pre = g_out * (1.0 - tanh_out * tanh_out) if self.activation == "tanh" else g_out
        W = self.tensors[0]
        grads = {}
        if W.name in active:
            grads[W.name] = (x.reshape(-1, self.fan_in).T @ g_pre).reshape(-1)
        if len(self.tensors) > 1 and self.tensors[1].name in active:
            grads[self.tensors[1].name] = g_pre.sum(axis=0)
        return grads, (g_pre @ W.view().T).reshape(x.shape) if propagate else None

    def cost_entries(self, layer_index, batch, T):
        rows = batch * T
        mw = 2 * rows * self.fan_in * self.fan_out
        return [CostEntry(self.tensors[0].name, layer_index, mw, mw, mw)] + [
            CostEntry(b.name, layer_index, rows * self.fan_out, 0, 0) for b in self.tensors[1:]
        ]


class MLPModel(_SequentialModel):
    """Dense tanh stack; the final layer is linear, one logit per class for the cross-entropy."""

    kind = "mlp"

    def __init__(self, dims=(2, 16, 2), seed=0):
        super().__init__()
        self.dims = tuple(_size("dims", d) for d in dims)
        rng = np.random.default_rng(seed)
        n = len(self.dims) - 1
        forward_layers = []
        for i in range(n):
            act = "tanh" if i < n - 1 else None
            # names carry the output-first index so tensor names match layer_index
            forward_layers.append(
                _DenseLayer(f"layer{n - 1 - i}", self.dims[i], self.dims[i + 1], rng, act)
            )
        self._register(forward_layers[::-1])

    def _inputs(self, batch):
        x = np.asarray(batch.inputs)
        if x.dtype.kind not in "biuf" or x.ndim != 2 or x.shape[1] != self.dims[0] \
                or batch.targets.shape != x.shape[:1]:
            raise ConfigurationError(f"mlp expects real inputs (batch, {self.dims[0]}) and targets (batch,), "
                                     f"got {x.dtype} {x.shape} and {batch.targets.shape}")
        return x.astype(np.float64, copy=False)


class _EmbeddingLayer:
    """Token + positional embedding; the deepest layer of the LM."""

    def __init__(self, vocab, context, d_model, rng):
        self.vocab = vocab
        self.context = context
        self.d_model = d_model
        scale = 1.0 / np.sqrt(d_model)
        tok = ParamTensor("embed.token", (vocab, d_model), rng.uniform(-scale, scale, (vocab, d_model)))
        pos = ParamTensor("embed.position", (context, d_model), rng.uniform(-scale, scale, (context, d_model)))
        self.tensors = [tok, pos]

    def forward(self, tokens):
        T = tokens.shape[1]
        out = self.tensors[0].view()[tokens] + self.tensors[1].view()[:T]
        return out, tokens

    def backward(self, g_out, cache, active, propagate):
        tokens = cache
        grads = {}
        tok, pos = self.tensors
        if tok.name in active:
            # intp first: uint8 corpus ids wrap when multiplied by d_model
            cells = tokens.astype(np.intp)[..., None] * self.d_model + np.arange(self.d_model)
            g = np.zeros(self.vocab * self.d_model)
            np.add.at(g, cells.reshape(-1), g_out.reshape(-1))
            grads[tok.name] = g
        if pos.name in active:
            g = np.zeros((self.context, self.d_model))
            g[: tokens.shape[1]] = g_out.sum(axis=0)
            grads[pos.name] = g.reshape(-1)
        return grads, None

    def cost_entries(self, layer_index, batch, T):
        n = batch * T * self.d_model
        tok, pos = self.tensors
        return [
            CostEntry(tok.name, layer_index, n, 0, n),
            CostEntry(pos.name, layer_index, n, 0, n),
        ]


@functools.lru_cache(maxsize=64)
def _future_mask(T):
    """Read-only (T, T) mask of the positions each query may not attend to."""
    mask = ~np.tril(np.ones((T, T), dtype=bool))
    mask.flags.writeable = False
    return mask


class _AttentionBlock:
    """Single-head causal attention plus a tanh MLP, both with residuals."""

    def __init__(self, name, d_model, rng):
        self.d_model = d_model
        self.d_ff = d_ff = 4 * d_model
        mk = lambda n, fi, fo: ParamTensor(f"{name}.{n}", (fi, fo), _init_dense(rng, fi, fo))
        self.tensors = [
            mk("wq", d_model, d_model),
            mk("wk", d_model, d_model),
            mk("wv", d_model, d_model),
            mk("wo", d_model, d_model),
            mk("w1", d_model, d_ff),
            ParamTensor(f"{name}.b1", (d_ff,), np.zeros(d_ff)),
            mk("w2", d_ff, d_model),
            ParamTensor(f"{name}.b2", (d_model,), np.zeros(d_model)),
        ]

    def forward(self, x):
        Wq, Wk, Wv, Wo, W1, b1, W2, b2 = (t.view() for t in self.tensors)
        B, T, d = x.shape
        x2 = x.reshape(B * T, d)
        qkv = (x2 @ np.concatenate((Wq, Wk, Wv), axis=1)).reshape(B, T, 3 * d)
        q, k, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
        s = q @ k.transpose(0, 2, 1)
        s /= np.sqrt(d)
        np.copyto(s, -1e30, where=_future_mask(T))
        s -= _row_max(s)
        a = np.exp(s, out=s)
        a /= a.sum(axis=-1, keepdims=True)
        z = a @ v
        h = z.reshape(B * T, d) @ Wo
        h += x2
        t1 = h @ W1
        t1 += b1
        np.tanh(t1, out=t1)
        out = t1 @ W2
        out += h
        out += b2
        shape = (B, T, -1)
        return out.reshape(shape), (x, q, k, v, a, z, h.reshape(shape), t1.reshape(shape))

    def backward(self, g_out, cache, active, propagate):
        x, q, k, v, a, z, h, t1 = cache
        Wq, Wk, Wv, Wo, W1, b1, W2, b2 = self.tensors
        B, T, d = x.shape
        n = B * T
        # every weight gradient and input gradient is one 2-D GEMM over the
        # (B*T, .) rows; only the attention mixing stays batched per sequence
        g2 = g_out.reshape(n, d)
        t1 = t1.reshape(n, -1)
        grads = {}

        g_u1 = g2 @ W2.view().T
        if W2.name in active:
            grads[W2.name] = (t1.T @ g2).reshape(-1)
        if b2.name in active:
            grads[b2.name] = g2.sum(axis=0)
        g_u1 *= 1.0 - t1 * t1
        if W1.name in active:
            grads[W1.name] = (h.reshape(n, d).T @ g_u1).reshape(-1)
        if b1.name in active:
            grads[b1.name] = g_u1.sum(axis=0)
        if not (propagate or any(W.name in active for W in (Wq, Wk, Wv, Wo))):
            return grads, None  # the attention half feeds only its tensors and the input
        g_h = g_u1 @ W1.view().T
        g_h += g2

        g_z = (g_h @ Wo.view().T).reshape(B, T, d)
        if Wo.name in active:
            grads[Wo.name] = (z.reshape(n, d).T @ g_h).reshape(-1)
        g_a = g_z @ v.transpose(0, 2, 1)
        g_v = a.transpose(0, 2, 1) @ g_z
        g_s = g_a
        g_s -= (g_a * a).sum(axis=-1, keepdims=True)
        g_s *= a
        g_s /= np.sqrt(d)
        g_q = g_s @ k
        g_k = g_s.transpose(0, 2, 1) @ q
        x2 = x.reshape(n, d)
        g_x = g_h
        for W, g in ((Wq, g_q), (Wk, g_k), (Wv, g_v)):
            g = g.reshape(n, d)
            if propagate:
                g_x += g @ W.view().T
            if W.name in active:
                grads[W.name] = (x2.T @ g).reshape(-1)
        return grads, g_x.reshape(B, T, d)

    def cost_entries(self, layer_index, batch, T):
        d, f = self.d_model, self.d_ff
        proj = 2 * batch * T * d * d        # one d x d projection
        mix = 2 * batch * T * T * d         # one attention-pattern matmul
        fc1 = 2 * batch * T * d * f
        # activation propagation: g_t1, g_h(from mlp), g_z, g_a, g_v, g_q, g_k, and into x via Wq/Wk/Wv
        prop = 2 * fc1 + proj + 4 * mix + 3 * proj
        fwd = 4 * proj + 2 * mix + 2 * fc1
        # weight gradients, in tensor order wq wk wv wo w1 b1 w2 b2
        grad = (proj, proj, proj, proj, fc1, batch * T * f, fc1, batch * T * d)
        return [
            CostEntry(t.name, layer_index, g, prop if i == 0 else 0, fwd if i == 0 else 0)
            for i, (t, g) in enumerate(zip(self.tensors, grad))
        ]


class TinyAttentionLM(_SequentialModel):
    """Character-level next-token model: embedding, attention blocks, head.

    Vocabulary is capped at 64 symbols; depth is capped at 4 blocks.
    """

    kind = "attention_lm"

    def __init__(self, vocab_size=64, d_model=16, depth=2, context=16, seed=0):
        super().__init__()
        self.vocab_size = _size("vocab_size", vocab_size)
        self.d_model = _size("d_model", d_model)
        self.depth = _size("depth", depth)
        self.context = _size("context", context)
        if self.vocab_size > 64:
            raise ConfigurationError("vocab_size is capped at 64")
        if not 0 <= self.depth <= 4:
            raise ConfigurationError(f"depth must be in [0, 4], got {depth}")
        rng = np.random.default_rng(seed)
        embed = _EmbeddingLayer(self.vocab_size, self.context, self.d_model, rng)
        blocks = [_AttentionBlock(f"block{i}", self.d_model, rng) for i in range(self.depth)]
        head = _DenseLayer("head", self.d_model, self.vocab_size, rng, None, bias=False)
        # output-first: head, blocks in reverse execution order, embedding
        self._register([head] + blocks[::-1] + [embed])

    def _inputs(self, batch):
        tokens = np.asarray(batch.inputs)
        if tokens.dtype.kind not in "iu" or tokens.ndim != 2 or tokens.shape[1] > self.context \
                or batch.targets.shape != tokens.shape:
            raise ConfigurationError(f"lm expects integer token inputs (batch, T<= {self.context}) and targets "
                                     f"of their shape, got {tokens.dtype} {tokens.shape} and {batch.targets.shape}")
        if tokens.min() < 0 or tokens.max() >= self.vocab_size:
            raise ConfigurationError("token id out of vocabulary range")
        return tokens


def backward_truncated(model: LayeredModel, batch: Batch, active) -> dict:
    """Gradients for `active` tensors through one checked, tallied forward;
    an empty set is a free no-op."""
    active = set(active)
    if not active:
        return {}
    _, cache = model.forward_with_cache(batch)
    return model.backward_from_cache(batch, cache, active)


def flops_profile(model: LayeredModel, batch_size: int = 1) -> CostModel:
    """Deterministic cost model at a reference batch size and the model's context."""
    return model.cost_model(int(batch_size))


def full_gradient(model: LayeredModel, batch: Batch) -> dict:
    return backward_truncated(model, batch, [t.name for t in model.tensors()])

