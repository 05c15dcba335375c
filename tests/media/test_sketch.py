"""Tests for sketch extraction and its wire codec."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media import sketch
from repro.media.images import collaboration_scene, to_rgb
from repro.media.sketch import (
    SketchError,
    _rle_decode,
    _rle_encode,
    decode_sketch,
    extract_sketch,
    sobel_magnitude,
)


class TestSobel:
    def test_flat_image_no_gradient(self):
        mag = sobel_magnitude(np.full((16, 16), 100.0))
        assert np.allclose(mag, 0.0)

    def test_vertical_edge_detected(self):
        img = np.zeros((16, 16))
        img[:, 8:] = 255.0
        mag = sobel_magnitude(img)
        assert mag[:, 7:9].max() > 0
        assert np.allclose(mag[:, :4], 0.0)

    def test_color_collapsed_to_gray(self):
        rgb = to_rgb(collaboration_scene(32, 32))
        assert sobel_magnitude(rgb).shape == (32, 32)

    def test_bad_ndim(self):
        with pytest.raises(SketchError):
            sobel_magnitude(np.zeros(10))


class TestExtract:
    def test_scene_produces_features(self):
        sk = extract_sketch(collaboration_scene(128, 128))
        assert 0.0 < sk.mask.mean() < 0.5  # sparse but non-empty

    def test_reduction_factor_2000x_regime(self):
        """The paper's 'up to 2000 times lesser data' claim."""
        sk = extract_sketch(to_rgb(collaboration_scene(256, 256)))
        assert sk.reduction_factor() > 2000.0

    def test_larger_images_reduce_more(self):
        small = extract_sketch(to_rgb(collaboration_scene(128, 128)))
        large = extract_sketch(to_rgb(collaboration_scene(512, 512)))
        assert large.reduction_factor() > small.reduction_factor()

    def test_explicit_downsample(self):
        """A 64x64 image is halved to the 32-pixel sketch side."""
        sk = extract_sketch(collaboration_scene(64, 64))
        assert sk.shape == (32, 32)

    def test_downsample_too_large_rejected(self):
        with mock.patch.object(sketch, "SKETCH_SIDE", 2), pytest.raises(SketchError):
            extract_sketch(collaboration_scene(32, 32))

    def test_bad_percentile(self):
        with pytest.raises(SketchError):
            extract_sketch(collaboration_scene(32, 32), edge_percentile=40.0)

    def test_to_image(self):
        sk = extract_sketch(collaboration_scene(64, 64))
        img = sk.to_image()
        assert img.dtype == np.uint8
        assert set(np.unique(img)) <= {0, 255}


class TestWireCodec:
    def test_roundtrip(self):
        sk = extract_sketch(collaboration_scene(128, 128))
        assert np.array_equal(decode_sketch(sk.encoded, sk.shape), sk.mask)

    def test_empty_encoding_rejected(self):
        with pytest.raises(SketchError):
            decode_sketch(b"", (4, 4))

    def test_an_area_over_the_cap_is_refused_before_allocating(self):
        # a well-formed encoding of an all-zero 1025x1024 mask: one run
        encoded = b"R" + _rle_encode(np.zeros(1025 * 1024, dtype=bool))
        tracemalloc.start()
        try:
            with pytest.raises(SketchError, match="outside"):
                decode_sketch(encoded, (1025, 1024))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        at_cap = b"R" + _rle_encode(np.zeros(1024 * 1024, dtype=bool))
        assert decode_sketch(at_cap, (1024, 1024)).shape == (1024, 1024)

    @pytest.mark.parametrize("shape", [(0, 4), (4, -1), (-4, -4)])
    def test_an_empty_or_negative_geometry_is_refused(self, shape):
        with pytest.raises(SketchError):
            decode_sketch(b"R\x00\x10", shape)

    def test_unknown_format_rejected(self):
        with pytest.raises(SketchError):
            decode_sketch(b"Zxxxx", (4, 4))

    @settings(max_examples=50)
    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    def test_rle_roundtrip_property(self, bits):
        arr = np.array(bits, dtype=bool)
        assert np.array_equal(_rle_decode(_rle_encode(arr), arr.size), arr)

    def test_rle_truncation_detected(self):
        data = _rle_encode(np.array([True] * 10))
        with pytest.raises(SketchError):
            _rle_decode(data, 100)  # declared size exceeds stream

    def test_bitpack_length_mismatch_detected(self):
        sk = extract_sketch(np.arange(32 * 32).reshape(32, 32) % 7 * 40.0, edge_percentile=50.0)
        assert sk.encoded[:1] == b"P"
        for damaged in (sk.encoded[:-1], sk.encoded + b"\x00"):
            with pytest.raises(SketchError):
                decode_sketch(damaged, sk.shape)

    def test_rle_overrun_detected(self):
        data = _rle_encode(np.array([True] * 10))
        with pytest.raises(SketchError):
            _rle_decode(data, 5)  # run exceeds declared size
