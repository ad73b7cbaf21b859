"""Parameter tensors, batches and the library's error types."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Bad wiring between components (shape mismatch, unknown tensor, ...)."""


class NumericOverflowError(FloatingPointError):
    """A forward pass produced a non-finite value."""

    def __init__(self, message: str, layer_index: int):
        super().__init__(message)
        self.layer_index = layer_index

    def __reduce__(self):
        # pickle re-calls __init__, which needs layer_index as well as the
        # message; sweep workers send this exception back to their parent
        return type(self), (str(self), self.layer_index)


def _size(name, value) -> int:
    """A size as an int: a float, even an integral one, is rejected, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


class ParamTensor:
    """A named flat array of float64 parameters.

    layer_index counts from the model output: the output-nearest layer is 0.
    The model that registers the tensor sets it.
    """

    __slots__ = ("name", "shape", "data", "layer_index")

    def __init__(self, name, shape, data):
        shape = tuple(_size(f"tensor {name!r} dimension", s) for s in shape)
        if any(s <= 0 for s in shape):
            raise ConfigurationError(f"tensor {name!r}: non-positive dimension in {shape}")
        data = np.asarray(data, dtype=np.float64).reshape(-1)
        if data.size != int(np.prod(shape)):
            raise ConfigurationError(
                f"tensor {name!r}: data length {data.size} != product(shape) {int(np.prod(shape))}"
            )
        self.name = str(name)
        self.shape = shape
        self.data = data
        self.layer_index = 0

    @property
    def size(self) -> int:
        return self.data.size

    def view(self) -> np.ndarray:
        """Data viewed at the declared shape (shares memory)."""
        return self.data.reshape(self.shape)

    def __repr__(self):
        return f"ParamTensor({self.name!r}, shape={self.shape}, layer={self.layer_index})"


@dataclass
class Batch:
    """One batch of inputs/targets; first dimension of both is the batch size."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs)
        self.targets = np.asarray(self.targets)
        if min(self.inputs.ndim, self.targets.ndim) < 1 or self.inputs.shape[0] != self.targets.shape[0]:
            raise ConfigurationError(
                f"batch size mismatch: inputs {self.inputs.shape} vs targets {self.targets.shape}"
            )
        if self.inputs.size == 0:
            raise ConfigurationError(f"empty batch: inputs of shape {self.inputs.shape}")

    @property
    def size(self) -> int:
        return int(self.inputs.shape[0])

