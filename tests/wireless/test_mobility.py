"""Tests for mobility traces."""

import numpy as np
import pytest

from repro.wireless.mobility import PiecewiseLinearTrace, approach_and_retreat


class TestPiecewise:
    def test_interpolation(self):
        t = PiecewiseLinearTrace([(0, 100.0), (2, 50.0), (4, 100.0)])
        assert t.distances().tolist() == [100.0, 75.0, 50.0, 75.0, 100.0]

    def test_iteration(self):
        t = PiecewiseLinearTrace([(0, 10.0), (1, 20.0)])
        assert list(t) == [10.0, 20.0]

    def test_waypoint_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearTrace([(0, 10.0)])
        with pytest.raises(ValueError):
            PiecewiseLinearTrace([(2, 10.0), (1, 20.0)])
        with pytest.raises(ValueError):
            PiecewiseLinearTrace([(0, 10.0), (0, 20.0)])
        with pytest.raises(ValueError):
            PiecewiseLinearTrace([(0, 10.0), (1, -5.0)])


class TestApproachRetreat:
    def test_paper_defaults(self):
        """100 m in to 50 m over points 0-3, back out over 3-5."""
        d = approach_and_retreat().distances()
        assert len(d) == 6
        assert d[0] == 100.0
        assert d[3] == 50.0
        assert d[5] == 100.0
        assert np.all(np.diff(d[:4]) < 0)  # approaching
        assert np.all(np.diff(d[3:]) > 0)  # retreating
