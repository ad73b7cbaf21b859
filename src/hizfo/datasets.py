"""Synthetic tasks: two-moons classification and a byte-level char corpus."""

from __future__ import annotations

import numpy as np

from .tensors import Batch, ConfigurationError

OOV = 0  # out-of-vocabulary byte id in char corpora


def two_moons(n: int, noise: float = 0.15, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaved half circles with gaussian noise; labels 0/1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    t_outer = rng.uniform(0.0, np.pi, size=half)
    t_inner = rng.uniform(0.0, np.pi, size=n - half)
    outer = np.stack([np.cos(t_outer), np.sin(t_outer)], axis=1)
    inner = np.stack([1.0 - np.cos(t_inner), 0.5 - np.sin(t_inner)], axis=1)
    x = np.concatenate([outer, inner]) + rng.normal(0.0, noise, size=(n, 2))
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    order = rng.permutation(n)
    return x[order], y[order]


def two_moons_batches(n_batches: int, batch_size: int, noise: float = 0.15, seed: int = 0) -> list[Batch]:
    x, y = two_moons(n_batches * batch_size, noise=noise, seed=seed)
    xs, ys = x.reshape(n_batches, batch_size, 2), y.reshape(n_batches, batch_size)
    return [Batch(xb, yb) for xb, yb in zip(xs, ys)]


class ByteVocab:
    """Byte-level vocabulary capped at 64 ids: the 63 most frequent bytes
    plus one shared out-of-vocabulary id."""

    MAX_SIZE = 64

    def __init__(self, data: bytes):
        counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
        present = np.flatnonzero(counts)
        # most frequent first; the stable sort breaks ties by byte value
        keep = np.sort(present[np.argsort(-counts[present], kind="stable")][: self.MAX_SIZE - 1])
        # ids in byte order from 1; every other byte maps to OOV; 64 ids fit a byte
        self.id_table = np.full(256, OOV, dtype=np.uint8)
        self.id_table[keep] = np.arange(1, keep.size + 1)
        self.size = keep.size + 1

    def encode(self, data: bytes) -> np.ndarray:
        return self.id_table[np.frombuffer(data, dtype=np.uint8)]


class CharCorpus:
    """A UTF-8 file turned into fixed-length next-token windows."""

    def __init__(self, text: bytes, context: int):
        if len(text) < context + 2:
            raise ConfigurationError("corpus too short for the requested context length")
        self.vocab = ByteVocab(text)
        self.ids = self.vocab.encode(text)
        self.context = int(context)

    def batches(self, n_batches: int, batch_size: int, seed: int = 0) -> list[Batch]:
        rng = np.random.default_rng(seed)
        hi = len(self.ids) - self.context - 1
        # one draw of every start gives the numbers of one draw per batch
        starts = rng.integers(0, hi, size=(n_batches, batch_size))
        w = np.lib.stride_tricks.sliding_window_view(self.ids, self.context + 1)[starts]
        x, y = np.ascontiguousarray(w[..., :-1]), np.ascontiguousarray(w[..., 1:])
        return [Batch(xb, yb) for xb, yb in zip(x, y)]
