"""Tests for the utility modules."""

import time
import zipfile

import numpy as np
import pytest

from repro.utils import (
    TimingStats,
    constant_init,
    conv_output_dim,
    gaussian_init,
    get_rng,
    measure_median,
    pool_output_dim,
    seed_all,
    xavier_init,
    zeros_init,
)
from repro.utils.npz import load_npz, save_npz


class TestShapes:
    @pytest.mark.parametrize("h,k,s,p,expected", [
        (224, 3, 1, 1, 224),   # VGG same-conv
        (227, 11, 4, 0, 55),   # AlexNet conv1
        (55, 3, 2, 0, 27),     # AlexNet pool1
        (8, 3, 2, 1, 4),
    ])
    def test_conv_output(self, h, k, s, p, expected):
        assert conv_output_dim(h, k, s, p) == expected

    def test_conv_empty_raises(self):
        with pytest.raises(ValueError):
            conv_output_dim(2, 5, 1, 0)

    @pytest.mark.parametrize("h,k,s,expected", [
        (224, 2, 2, 112), (55, 3, 2, 27), (27, 3, 2, 13), (13, 3, 2, 6),
    ])
    def test_pool_output_matches_caffe_models(self, h, k, s, expected):
        assert pool_output_dim(h, k, s) == expected

    def test_pool_empty_raises(self):
        with pytest.raises(ValueError):
            pool_output_dim(1, 3, 2)


class TestInitializers:
    def test_xavier_bounds_and_grad(self):
        # the weights alone: a training compile allocates the gradient
        # (tests/test_param_grad_storage.py pins it zeroed)
        w = xavier_init(100, 50)
        assert isinstance(w, np.ndarray)
        assert w.shape == (100, 50) and w.dtype == np.float32
        scale = np.sqrt(3.0 / 100)
        assert abs(w).max() <= scale

    def test_gaussian_std(self):
        g = gaussian_init((200, 200), std=0.05)
        assert abs(g.std() - 0.05) < 0.005

    def test_zeros_and_constant(self):
        assert (zeros_init((3, 3)) == 0).all()
        assert (constant_init((2,), 7.0) == 7.0).all()

    def test_seeded_rng_reproducible(self):
        seed_all(5)
        a = get_rng().standard_normal(4)
        seed_all(5)
        b = get_rng().standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_explicit_seed_is_independent(self):
        a = get_rng(9).standard_normal(4)
        b = get_rng(9).standard_normal(4)
        np.testing.assert_array_equal(a, b)


class TestTiming:
    def test_measure_median_positive(self):
        assert measure_median(lambda: sum(range(100)), repeats=3) >= 0

    def test_measure_median_full_returns_stats(self):
        stats = measure_median(lambda: time.sleep(0.002), repeats=5,
                               full=True)
        assert isinstance(stats, TimingStats)
        assert len(stats.samples) == 5
        assert stats.min <= stats.median <= stats.max
        assert stats.stddev >= 0
        assert "median" in str(stats)
        # the plain call returns just the median of the same measurement
        assert stats.median == sorted(stats.samples)[2]

    def test_measure_median_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            measure_median(lambda: None, repeats=0)


class TestNpz:
    """``repro.utils.npz``: the archives it writes read back exactly as
    ``np.load`` reads them, and it refuses what it cannot parse."""

    ARRAYS = {
        "weights": np.arange(12, dtype=np.float32).reshape(3, 4),
        "meta": np.frombuffer(b'{"k": 1}', dtype=np.uint8),
        "text": np.asarray('{"format": "x"}'),
        "scalar": np.float32(2.5),
        "empty": np.zeros((0, 4), np.float32),
        "index": np.arange(5, dtype=np.int64),
    }

    def test_round_trip_matches_np_load(self, tmp_path):
        path = tmp_path / "sub" / "a.npz"
        save_npz(path, self.ARRAYS)
        got = load_npz(path)
        with np.load(path, allow_pickle=False) as ref:
            assert set(got) == set(ref.files) == set(self.ARRAYS)
            for name in ref.files:
                assert got[name].dtype == ref[name].dtype
                np.testing.assert_array_equal(got[name], ref[name])
        assert got["weights"].flags.writeable
        assert list(tmp_path.glob("sub/*.tmp")) == []

    def test_object_arrays_and_foreign_members_are_refused(self, tmp_path):
        path = tmp_path / "obj.npz"
        np.savez(path, o=np.array([{"a": 1}], dtype=object))
        with pytest.raises(ValueError, match="unsupported"):
            load_npz(path)
        with zipfile.ZipFile(path, "w") as z:
            z.writestr("x.npy", b"not an array")
        with pytest.raises(ValueError, match="not an .npy"):
            load_npz(path)
