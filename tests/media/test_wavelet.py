"""Tests for the 2-D Haar DWT."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media.wavelet import (
    WaveletError,
    haar_dwt2,
    haar_idwt2,
    max_levels,
)


class TestShapes:
    def test_max_levels(self):
        assert max_levels((64, 64)) == 6
        assert max_levels((64, 48)) == 4
        assert max_levels((7, 8)) == 0

    def test_indivisible_shape_rejected(self):
        with pytest.raises(WaveletError):
            haar_dwt2(np.zeros((6, 8)), 2)

    def test_bad_levels_rejected(self):
        with pytest.raises(WaveletError):
            haar_dwt2(np.zeros((8, 8)), 0)

    def test_non_2d_rejected(self):
        with pytest.raises(WaveletError):
            haar_dwt2(np.zeros((8, 8, 3)), 1)


class TestTransform:
    def test_constant_image_concentrates_in_ll(self):
        x = np.full((8, 8), 5.0)
        c = haar_dwt2(x, 3)
        assert c[0, 0] == pytest.approx(5.0 * 8)  # orthonormal: mean * sqrt(N)
        assert np.allclose(c.ravel()[1:], 0.0)

    def test_energy_preserved(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 32))
        c = haar_dwt2(x, 4)
        assert np.sum(c * c) == pytest.approx(np.sum(x * x))

    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 255, (64, 64))
        for levels in (1, 2, 5):
            assert np.allclose(haar_idwt2(haar_dwt2(x, levels), levels), x)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16))
        assert np.allclose(
            haar_dwt2(2 * a + 3 * b, 2),
            2 * haar_dwt2(a, 2) + 3 * haar_dwt2(b, 2),
        )

    @settings(max_examples=20)
    @given(st.integers(0, 10000))
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-100, 100, (16, 16))
        assert np.allclose(haar_idwt2(haar_dwt2(x, 3), 3), x)

    def test_horizontal_edge_excites_lh(self):
        x = np.zeros((8, 8))
        x[:3, :] = 10.0  # boundary splits a 2x2 analysis block -> LH detail
        c = haar_dwt2(x, 1)
        assert np.abs(c[4:, :4]).sum() > 0  # LH1: bottom-left quadrant
        assert np.abs(c[:4, 4:]).sum() == pytest.approx(0.0)  # HL1: top-right
