import pickle
import struct

import numpy as np
import pytest

from hizfo.rng import add_scaled_noise, noise_generator, regenerate_noise, splitmix64, step_seed
from hizfo.tensors import (
    Batch,
    ConfigurationError,
    NumericOverflowError,
    ParamTensor,
    Role,
    load_checkpoint,
    save_checkpoint,
)


class TestRng:
    def test_step_seeds_deterministic_and_distinct(self):
        seeds = [step_seed(123, i) for i in range(1000)]
        assert seeds == [step_seed(123, i) for i in range(1000)]
        assert len(set(seeds)) == 1000
        assert step_seed(123, 0) != step_seed(124, 0)

    def test_splitmix_is_64_bit(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            step_seed(1, -1)

    def test_noise_regenerates_identically(self):
        a = np.zeros(100)
        b = np.zeros(100)
        add_scaled_noise([a], 42, 1.0)
        add_scaled_noise([b], 42, 1.0)
        assert np.array_equal(a, b)
        assert abs(np.std(a) - 1.0) < 0.2

    def test_add_then_subtract_restores(self):
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(50), rng.standard_normal((4, 5))]
        before = [a.copy() for a in arrays]
        add_scaled_noise(arrays, 7, +1e-3)
        add_scaled_noise(arrays, 7, -1e-3)
        for a, b in zip(arrays, before):
            assert np.max(np.abs(a - b)) < 1e-18 + 4 * np.max(np.spacing(np.abs(b) + 1e-3))

    def test_returned_sum_of_squares(self):
        a = np.zeros(1000)
        sq = add_scaled_noise([a], 5, 1.0)
        assert abs(sq - float(a @ a)) < 1e-9

    def test_regenerate_matches_apply(self):
        shapes = [(10,), (3, 4)]
        us = regenerate_noise(shapes, 9)
        arrays = [np.zeros(s) for s in shapes]
        add_scaled_noise(arrays, 9, 2.0)
        for a, u in zip(arrays, us):
            assert np.allclose(a, 2.0 * u, rtol=0, atol=0)

    def test_generator_streams_independent(self):
        x = noise_generator(1).standard_normal(8)
        y = noise_generator(2).standard_normal(8)
        assert not np.allclose(x, y)


class TestParamTensor:
    def test_length_invariant_enforced(self):
        with pytest.raises(ConfigurationError):
            ParamTensor("t", (2, 3), np.zeros(5))

    def test_positive_dims_enforced(self):
        with pytest.raises(ConfigurationError):
            ParamTensor("t", (2, 0), np.zeros(0))

    def test_view_shares_memory(self):
        t = ParamTensor("t", (2, 2), np.arange(4.0))
        t.view()[0, 0] = 9.0
        assert t.data[0] == 9.0

    def test_batch_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            Batch(np.zeros((3, 2)), np.zeros(4))


class TestNumericOverflowError:
    def test_pickle_roundtrip(self):
        # sweep workers hand the exception back to their parent through pickle
        e = pickle.loads(pickle.dumps(NumericOverflowError("non-finite activations at layer 2", 2)))
        assert type(e) is NumericOverflowError
        assert str(e) == "non-finite activations at layer 2" and e.layer_index == 2


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        tensors = [
            ParamTensor("layer0.weight", (3, 2), np.arange(6.0), Role.FO, 0),
            ParamTensor("embed", (4,), np.linspace(-1, 1, 4), Role.ZO, 1),
        ]
        path = tmp_path / "model.hzfo"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert [t.name for t in loaded] == ["layer0.weight", "embed"]
        for a, b in zip(tensors, loaded):
            assert a.shape == b.shape and a.role == b.role
            assert np.array_equal(a.data, b.data)

    def test_binary_layout(self, tmp_path):
        t = ParamTensor("ab", (2,), [1.5, -2.0], Role.ZO)
        path = tmp_path / "one.hzfo"
        save_checkpoint(path, [t])
        raw = path.read_bytes()
        assert raw[:4] == b"HZFO"
        version, count = struct.unpack_from("<II", raw, 4)
        assert (version, count) == (1, 1)
        (name_len,) = struct.unpack_from("<I", raw, 12)
        assert name_len == 2 and raw[16:18] == b"ab"
        role, rank = struct.unpack_from("<BI", raw, 18)
        assert (role, rank) == (int(Role.ZO), 1)
        (dim,) = struct.unpack_from("<Q", raw, 23)
        assert dim == 2
        assert struct.unpack_from("<2d", raw, 31) == (1.5, -2.0)
        assert len(raw) == 31 + 16

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)
