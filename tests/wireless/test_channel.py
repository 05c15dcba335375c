"""Tests for path loss and noise models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.wireless import channel
from repro.wireless.channel import ChannelError, NoiseModel, PathLossModel


class TestPathLoss:
    def test_unit_distance_gain_is_k(self):
        m = PathLossModel(alpha=4.0, k=2.5)
        assert m.gain(1.0) == pytest.approx(2.5)

    def test_power_law(self):
        m = PathLossModel(alpha=4.0, k=1.0)
        assert m.gain(2.0) == pytest.approx(1.0 / 16.0)
        assert m.gain(10.0) == pytest.approx(1e-4)

    def test_vectorized(self):
        m = PathLossModel(alpha=2.0, k=1.0)
        g = m.gain(np.array([1.0, 2.0, 4.0]))
        assert np.allclose(g, [1.0, 0.25, 0.0625])

    def test_min_distance_clamp(self):
        m = PathLossModel(alpha=4.0, k=1.0)
        assert m.gain(0.001) == m.gain(channel.MIN_DISTANCE) == m.gain(1.0)

    def test_invalid_params(self):
        with pytest.raises(ChannelError):
            PathLossModel(alpha=0)
        with pytest.raises(ChannelError):
            PathLossModel(k=-1)

    @given(st.floats(min_value=1.0, max_value=1e4))
    def test_distance_gain_inverse(self, d):
        m = PathLossModel(alpha=4.0, k=1e6)
        assert m.distance_for_gain(m.gain(d)) == pytest.approx(d, rel=1e-9)

    def test_monotone_decreasing(self):
        m = PathLossModel(alpha=3.0, k=1.0)
        d = np.linspace(1, 200, 50)
        g = m.gain(d)
        assert np.all(np.diff(g) < 0)


class TestNoise:
    def test_sigma2_formula(self):
        n = NoiseModel(reference_power=1.0, snr_ref_db=40.0)
        assert n.sigma2 == pytest.approx(1e-4)

    def test_invalid(self):
        with pytest.raises(ChannelError):
            NoiseModel(reference_power=0)
