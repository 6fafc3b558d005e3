"""Tests for connection mapping introspection (§5.1/§5.2 machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import MappingError, analyze_mapping
from repro.core import all_to_all, one_to_one, spatial_window_2d, window_2d


class TestClassification:
    def test_one_to_one(self):
        info = analyze_mapping(one_to_one(3), (4, 6, 6), (4, 6, 6))
        assert info.kind == "one_to_one"
        assert info.window_size == 1
        assert info.shared_sink_dims == frozenset()

    def test_all_to_all(self):
        info = analyze_mapping(all_to_all((3, 4)), (3, 4), (10,))
        assert info.kind == "all_to_all"
        assert info.window_size == 12
        # every sink dim shares the same input set
        assert info.shared_sink_dims == frozenset({0})

    def test_conv_window(self):
        info = analyze_mapping(window_2d(3, 1, 1, 8), (8, 16, 16), (32, 16, 16))
        assert info.kind == "window"
        assert info.window_shape == (8, 3, 3)
        # output channels share the im2col buffer
        assert info.shared_sink_dims == frozenset({0})
        assert info.kept_sink_dims == (1, 2)

    def test_pool_window_keeps_channel(self):
        info = analyze_mapping(spatial_window_2d(2, 2), (8, 16, 16), (8, 8, 8))
        assert info.kind == "window"
        assert info.shared_sink_dims == frozenset()
        assert info.window_shape == (1, 2, 2)


class TestPadding:
    def test_padded_conv(self):
        info = analyze_mapping(window_2d(3, 1, 1, 4), (4, 8, 8), (6, 8, 8))
        assert info.needs_padding
        assert info.padding() == ((0, 0), (1, 1), (1, 1))

    def test_unpadded_conv(self):
        info = analyze_mapping(window_2d(3, 1, 0, 4), (4, 8, 8), (6, 6, 6))
        assert not info.needs_padding

    def test_strided_window_padding(self):
        # kernel 11 stride 4 on 227: last start 54*4=216, 216+11=227 exact
        info = analyze_mapping(window_2d(11, 4, 0, 3), (3, 227, 227),
                               (96, 55, 55))
        assert not info.needs_padding


class TestWindowStarts:
    def test_start_at_matches_mapping(self):
        mapping = window_2d(3, 2, 1, 4)
        info = analyze_mapping(mapping, (4, 17, 17), (6, 8, 8))
        for idx in [(0, 0, 0), (3, 5, 2), (5, 7, 7)]:
            got = mapping(*idx)
            for d, wd in enumerate(info.dims):
                entry = got[d]
                start = entry if isinstance(entry, int) else entry.start
                assert wd.start_at(idx) == start


class TestGatherFallback:
    def test_non_affine_gathers(self):
        def weird(i):
            return (range(i * i, i * i + 2),)

        info = analyze_mapping(weird, (100,), (6,))
        assert info.kind == "gather"
        assert info.gather_indices.shape == (6, 2)
        assert list(info.gather_indices[3]) == [9, 10]

    def test_gather_disabled_raises(self):
        def weird(i):
            return (range(i * i, i * i + 2),)

        with pytest.raises(MappingError):
            analyze_mapping(weird, (100,), (6,), allow_gather=False)

    def test_non_uniform_window_rejected(self):
        def ragged(i):
            return (range(0, i + 1),)

        with pytest.raises(MappingError):
            analyze_mapping(ragged, (10,), (4,))


class TestMalformedMappings:
    def test_wrong_rank(self):
        with pytest.raises(MappingError):
            analyze_mapping(lambda i: (i, i), (8,), (4,))

    def test_stepped_range(self):
        with pytest.raises(MappingError):
            analyze_mapping(lambda i: (range(0, 8, 2),), (8,), (4,))

    def test_bad_entry_type(self):
        with pytest.raises(MappingError):
            analyze_mapping(lambda i: ("x",), (8,), (4,))


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.integers(1, 4),
    stride=st.integers(1, 3),
    pad=st.integers(0, 2),
    channels=st.integers(1, 5),
    out=st.integers(2, 7),
)
def test_affine_fit_roundtrip(kernel, stride, pad, channels, out):
    """Property: affine windows are recovered exactly — the fitted model
    reproduces the user mapping at every sink index."""
    src_h = (out - 1) * stride + kernel  # unpadded extent covering sink
    mapping = window_2d(kernel, stride, pad, channels)
    info = analyze_mapping(mapping, (channels, src_h, src_h), (3, out, out))
    assert info.kind in ("window", "all_to_all")
    for c in range(3):
        for y in range(out):
            for x in range(out):
                expected = mapping(c, y, x)
                for d, wd in enumerate(info.dims):
                    e = expected[d]
                    start = e if isinstance(e, int) else e.start
                    length = 1 if isinstance(e, int) else len(e)
                    assert wd.start_at((c, y, x)) == start
                    assert wd.length == length


@settings(max_examples=30, deadline=None)
@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3))
def test_one_to_one_recognized_for_any_rank(shape):
    shape = tuple(shape)
    info = analyze_mapping(one_to_one(len(shape)), shape, shape)
    # size-1 dims make identity indistinguishable from all_to_all, which
    # is semantically identical there
    if all(d > 1 for d in shape):
        assert info.kind == "one_to_one"
    assert info.window_size == 1
    assert not info.needs_padding
