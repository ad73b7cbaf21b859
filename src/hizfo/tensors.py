"""Parameter tensors, batches, and the binary checkpoint format."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np


class Role(IntEnum):
    FO = 0      # updated with exact backpropagated gradients
    ZO = 1      # updated with finite-difference estimates
    FROZEN = 2  # never updated


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


class ParamTensor:
    """A named flat array of float64 parameters with a partition role.

    layer_index counts from the model output: the output-nearest layer is 0.
    Roles are only reassigned when a partition plan is applied, never inside
    an optimization step.
    """

    __slots__ = ("name", "shape", "data", "role", "layer_index")

    def __init__(self, name, shape, data, role=Role.FO, layer_index=0):
        shape = tuple(int(s) for s in shape)
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
        self.role = Role(role)
        self.layer_index = int(layer_index)

    @property
    def size(self) -> int:
        return self.data.size

    def view(self) -> np.ndarray:
        """Data viewed at the declared shape (shares memory)."""
        return self.data.reshape(self.shape)

    def __repr__(self):
        return f"ParamTensor({self.name!r}, shape={self.shape}, role={self.role.name}, layer={self.layer_index})"


@dataclass
class Batch:
    """One batch of inputs/targets; first dimension of both is the batch size."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs)
        self.targets = np.asarray(self.targets)
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ConfigurationError(
                f"batch size mismatch: inputs {self.inputs.shape[0]} vs targets {self.targets.shape[0]}"
            )

    @property
    def size(self) -> int:
        return int(self.inputs.shape[0])


# Checkpoint layout (little-endian):
#   magic "HZFO", u32 version=1, u32 tensor count, then per tensor:
#   u32 name length, UTF-8 name, u8 role, u32 rank, u64 dims..., f64 data...
_MAGIC = b"HZFO"
_VERSION = 1


def save_checkpoint(path, tensors) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(tensors)))
        for t in tensors:
            name = t.name.encode("utf-8")
            f.write(struct.pack("<I", len(name)))
            f.write(name)
            f.write(struct.pack("<BI", int(t.role), len(t.shape)))
            f.write(struct.pack(f"<{len(t.shape)}Q", *t.shape))
            f.write(t.data.astype("<f8").tobytes())


def load_checkpoint(path) -> list[ParamTensor]:
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise ConfigurationError(f"{path}: not a HZFO checkpoint")
        version, count = struct.unpack("<II", f.read(8))
        if version != _VERSION:
            raise ConfigurationError(f"{path}: unsupported checkpoint version {version}")
        tensors = []
        for _ in range(count):
            (name_len,) = struct.unpack("<I", f.read(4))
            name = f.read(name_len).decode("utf-8")
            role, rank = struct.unpack("<BI", f.read(5))
            dims = struct.unpack(f"<{rank}Q", f.read(8 * rank))
            n = int(np.prod(dims)) if dims else 1
            data = np.frombuffer(f.read(8 * n), dtype="<f8").astype(np.float64)
            tensors.append(ParamTensor(name, dims, data, Role(role)))
    return tensors
