"""Per-tensor sensitivity scores from a short full-gradient warm-up.

The score of a tensor is the loss increase a first-order model predicts if
its last warm-up update were undone: the negative inner product of the
last applied update with the gradient at the post-update weights, summed
over the tensor's elements. Scores are normalized by the largest absolute
raw score so downstream selection works on a [-1, 1] scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .models import LayeredModel, full_gradient
from .tensors import ConfigurationError, _size


@dataclass
class ImportanceProfile:
    scores: dict[str, float]
    raw_scores: dict[str, float]


def estimate_importance(model: LayeredModel, data, warmup_steps: int, warmup_lr: float) -> ImportanceProfile:
    """Run a few plain gradient-descent steps and score each tensor.

    The model's parameters are restored bit-for-bit before returning, so
    profiling never moves the model that will actually be trained.
    """
    if _size("warmup_steps", warmup_steps) < 1:
        raise ConfigurationError("warmup_steps must be >= 1")
    if not 0 < warmup_lr < np.inf:  # negated, so that NaN fails too
        raise ConfigurationError(f"warmup_lr must be finite and > 0, got {warmup_lr}")
    batches = list(data)
    if not batches:
        raise ConfigurationError("importance estimation needs at least one batch")

    tensors = model.tensors()
    saved = model.flat.copy()
    names = [t.name for t in tensors]
    try:
        stream = itertools.cycle(batches)
        for _ in range(warmup_steps):
            batch, last_update = next(stream), None  # free the last update before this backward
            grads = full_gradient(model, batch)
            last_update = {t.name: -warmup_lr * grads[t.name] for t in tensors}
            for t in tensors:
                t.data += last_update[t.name]
            del grads
        # gradient at the post-update weights, on the batch the update minimized
        grads = full_gradient(model, batch)
        raw = {n: float(-(last_update[n] @ grads[n])) for n in names}
    finally:
        model.flat[:] = saved

    normalizer = max(abs(v) for v in raw.values())
    if normalizer == 0.0:
        scores = {n: 0.0 for n in names}
    else:
        scores = {n: raw[n] / normalizer for n in names}
    return ImportanceProfile(scores=scores, raw_scores=raw)
