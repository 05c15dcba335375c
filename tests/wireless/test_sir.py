"""Tests for the SIR computation (paper Eq. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.wireless.sir import from_db, sir, sir_db, sir_matrix, to_db

positive_floats = st.floats(min_value=1e-6, max_value=1e6)


class TestDbConversion:
    def test_known_values(self):
        assert to_db(10.0) == pytest.approx(10.0)
        assert to_db(1.0) == pytest.approx(0.0)
        assert from_db(3.0) == pytest.approx(1.9952623)

    @given(positive_floats)
    def test_inverse(self, x):
        assert from_db(to_db(x)) == pytest.approx(x, rel=1e-9)


class TestSir:
    def test_two_equal_clients_no_noise(self):
        g = sir(np.array([1.0, 1.0]), np.array([1.0, 1.0]), sigma2=0.0)
        assert np.allclose(g, [1.0, 1.0])  # each sees only the other

    def test_eq1_hand_computed(self):
        # P = [2, 1], g = [0.5, 0.25], sigma2 = 0.05
        # rx = [1.0, 0.25]; SIR_0 = 1.0/(0.25+0.05); SIR_1 = 0.25/(1.0+0.05)
        g = sir(np.array([2.0, 1.0]), np.array([0.5, 0.25]), 0.05)
        assert g[0] == pytest.approx(1.0 / 0.30)
        assert g[1] == pytest.approx(0.25 / 1.05)

    def test_single_client_noise_only(self):
        g = sir(np.array([2.0]), np.array([0.1]), sigma2=0.05)
        assert g[0] == pytest.approx(4.0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            sir(np.array([1.0]), np.array([1.0]), sigma2=0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sir(np.array([1.0, 2.0]), np.array([1.0]), 0.1)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            sir(np.array([-1.0, 1.0]), np.array([1.0, 1.0]), 0.1)
        with pytest.raises(ValueError):
            sir(np.array([1.0, 1.0]), np.array([1.0, 1.0]), -0.1)

    @settings(max_examples=50)
    @given(
        st.lists(positive_floats, min_size=2, max_size=8),
        st.lists(positive_floats, min_size=2, max_size=8),
        positive_floats,
    )
    def test_invariants(self, powers, gains, sigma2):
        n = min(len(powers), len(gains))
        p = np.array(powers[:n])
        g = np.array(gains[:n])
        s = sir(p, g, sigma2)
        assert np.all(s > 0)
        # raising one client's power can only hurt the others
        p2 = p.copy()
        p2[0] *= 2.0
        s2 = sir(p2, g, sigma2)
        assert s2[0] >= s[0] * 0.999
        assert np.all(s2[1:] <= s[1:] * 1.001)

    def test_interference_dominates_far_client(self):
        """The paper's asymmetry: near client crushes the far one."""
        gains = np.array([1e-2, 1e-4])  # near, far
        s = sir_db(np.array([1.0, 1.0]), gains, 1e-6)
        assert s[0] > 15.0
        assert s[1] < -15.0


class TestMultiCell:
    def test_shape_and_reference(self):
        powers = np.array([1.0, 1.0, 1.0])
        G = np.array([[1e-2, 1e-3, 1e-4], [1e-4, 1e-3, 1e-2]])
        s = sir_matrix(powers, G, np.array([1e-6, 1e-6]))
        assert s.shape == (2, 3)
        # client 0 is strong at BS 0, weak at BS 1
        assert s[0, 0] > s[1, 0]

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            sir_matrix(np.ones(3), np.ones((2, 4)), np.ones(2))
