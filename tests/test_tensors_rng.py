import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hizfo.rng import add_scaled_noise, regenerate_noise, splitmix64, step_seed
from hizfo.tensors import Batch, ConfigurationError, NumericOverflowError, ParamTensor


def philox(seed):
    """The reference stream: a fresh Philox generator keyed by the seed."""
    return np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))


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

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple), min_size=1, max_size=4),
           st.integers(0, 2**64 - 1), st.floats(1e-8, 1.0), st.integers(0, 2**32 - 1))
    def test_perturb_then_restore_within_4_ulp(self, shapes, seed, eps, data_seed):
        rng = np.random.default_rng(data_seed)
        arrays = [rng.standard_normal(s) for s in shapes]
        before = [a.copy() for a in arrays]
        add_scaled_noise(arrays, seed, +eps)
        add_scaled_noise(arrays, seed, -eps)
        for a, b, u in zip(arrays, before, regenerate_noise(shapes, seed)):
            ulp = np.spacing(np.maximum(np.abs(b), np.abs(b + eps * u)))
            assert np.all(np.abs(a - b) <= 4 * ulp)

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

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, step_seed(5, 3)])
    def test_noise_is_the_seed_stream_whatever_was_drawn_before(self, seed):
        for n in (1, 7, 1001):
            want = philox(seed).standard_normal(n)
            a = np.zeros(n)
            add_scaled_noise([a], seed, 1.0)
            assert np.array_equal(a, want)
            add_scaled_noise([np.zeros(3)], seed + 1, 1.0)  # an odd draw of another stream
            regenerate_noise([(5,)], seed ^ 1)
            a[:] = 0.0
            add_scaled_noise([a], seed, 1.0)
            assert np.array_equal(a, want)

    def test_live_generators_stay_independent(self):
        want = philox(8).standard_normal(10)
        g, h = philox(8), philox(8)
        head = g.standard_normal(5)
        add_scaled_noise([np.zeros(4)], 8, 1.0)
        assert np.array_equal(h.standard_normal(10), want)
        assert np.array_equal(np.concatenate([head, g.standard_normal(5)]), want)

    def test_generator_streams_independent(self):
        (x,), (y,) = regenerate_noise([(8,)], 1), regenerate_noise([(8,)], 2)
        assert not np.allclose(x, y)


class TestParamTensor:
    def test_length_invariant_enforced(self):
        with pytest.raises(ConfigurationError):
            ParamTensor("t", (2, 3), np.zeros(5))

    def test_positive_dims_enforced(self):
        with pytest.raises(ConfigurationError):
            ParamTensor("t", (2, 0), np.zeros(0))

    def test_fractional_dims_rejected(self):
        # a float dimension is rejected, not truncated; numpy integers pass
        for shape in ((2.5,), (2.0,), (np.float64(2.0),)):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                ParamTensor("t", shape, np.zeros(2))
        assert ParamTensor("t", (np.int64(2), np.uint8(3)), np.zeros(6)).shape == (2, 3)

    def test_view_shares_memory(self):
        t = ParamTensor("t", (2, 2), np.arange(4.0))
        t.view()[0, 0] = 9.0
        assert t.data[0] == 9.0

    def test_batch_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            Batch(np.zeros((3, 2)), np.zeros(4))

    def test_zero_d_batch_is_configuration_error(self):
        # a 0-d array has no batch dimension; this once raised a bare IndexError
        with pytest.raises(ConfigurationError, match=r"inputs \(\) vs targets \(\)"):
            Batch(np.float64(1.0), np.int64(1))

    def test_zero_d_targets_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match=r"inputs \(2, 2\) vs targets \(\)"):
            Batch(np.zeros((2, 2)), np.int64(1))


class TestNumericOverflowError:
    def test_pickle_roundtrip(self):
        # sweep workers hand the exception back to their parent through pickle
        e = pickle.loads(pickle.dumps(NumericOverflowError("non-finite activations at layer 2", 2)))
        assert type(e) is NumericOverflowError
        assert str(e) == "non-finite activations at layer 2" and e.layer_index == 2

