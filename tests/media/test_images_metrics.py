"""Tests for synthetic image generators and quality metrics."""

import numpy as np
import pytest

from repro.media.images import ImageError, collaboration_scene, to_rgb
from repro.media.metrics import bpp, compression_ratio, mse, psnr, raw_bits


class TestGenerators:
    def test_dtypes_and_shapes(self):
        img = collaboration_scene(32, 48)
        assert img.dtype == np.uint8
        assert img.shape == (32, 48)

    def test_scene_has_structures(self):
        img = collaboration_scene(128, 128)
        assert img.max() > 200 and img.min() < 50  # disk and rectangle

    def test_too_small_rejected(self):
        with pytest.raises(ImageError):
            collaboration_scene(4, 4)

    def test_to_rgb(self):
        rgb = to_rgb(collaboration_scene(32, 32))
        assert rgb.shape == (32, 32, 3)
        assert rgb.dtype == np.uint8
        with pytest.raises(ImageError):
            to_rgb(rgb)


class TestMetrics:
    def test_mse_zero_for_identical(self):
        img = collaboration_scene(32, 32)
        assert mse(img, img) == 0.0

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_psnr_infinite_for_identical(self):
        img = collaboration_scene(32, 32)
        assert psnr(img, img) == float("inf")

    def test_psnr_known_value(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 255.0)
        assert psnr(a, b) == pytest.approx(0.0)

    def test_raw_bits(self):
        assert raw_bits((64, 64)) == 64 * 64 * 8
        assert raw_bits((64, 64, 3)) == 64 * 64 * 3 * 8

    def test_bpp_shares_pixel_denominator(self):
        assert bpp(6400, (64, 64)) == pytest.approx(6400 / 4096)
        # color channels don't change the denominator
        assert bpp(6400, (64, 64, 3)) == pytest.approx(6400 / 4096)

    def test_compression_ratio(self):
        assert compression_ratio(4096 * 8, (64, 64)) == pytest.approx(1.0)
        assert compression_ratio(0, (64, 64)) == float("inf")

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            bpp(100, (0, 64))
