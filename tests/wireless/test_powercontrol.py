"""Tests for the Goodman–Mandayam power economics.

``reference_powercontrol.py`` keeps ``uniform_power_scaling`` as it was
when FIG9b computed it from path gains beside the base station; the
property below pins the base station's SIR, and the utility of that SIR,
equal to it on two-client cells.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.experiments import fig9
from repro.experiments.fig8 import build_two_client_cell
from repro.wireless.channel import NoiseModel, PathLossModel
from repro.wireless import powercontrol
from repro.wireless.powercontrol import frame_success_rate, utility
from repro.wireless.sir import sir_db

from .reference_powercontrol import uniform_power_scaling


@pytest.fixture
def cell():
    pathloss = PathLossModel(alpha=4.0, k=1e6)
    gains = np.array([pathloss.gain(d) for d in (60.0, 90.0, 120.0)])
    sigma2 = NoiseModel(reference_power=1.0, snr_ref_db=40.0).sigma2
    return gains, sigma2


class TestFrameSuccess:
    def test_monotone_in_sir(self):
        gamma = np.linspace(0.1, 20.0, 50)
        f = frame_success_rate(gamma)
        assert np.all(np.diff(f) > 0)

    def test_bounds(self):
        f = frame_success_rate(np.array([0.0, 100.0]))
        assert f[0] == pytest.approx(0.0)
        assert f[1] == pytest.approx(1.0, abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            frame_success_rate(np.array([-1.0]))


class TestUtility:
    def test_positive(self, cell):
        gains, sigma2 = cell
        u = utility(sir_db(np.ones(3), gains, sigma2), np.ones(3))
        assert np.all(u >= 0)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            utility(np.zeros(3), np.array([0.0, 1.0, 1.0]))


class TestUniformScaling:
    def test_goodman_mandayam_claim(self, cell):
        """Scaling all powers down raises everyone's bits/joule."""
        gains, sigma2 = cell
        out = uniform_power_scaling(np.full(3, 2.0), gains, sigma2, factor=0.5)
        assert np.all(out["utility_after"] >= out["utility_before"])

    def test_sir_dips_slightly_with_noise(self, cell):
        gains, sigma2 = cell
        out = uniform_power_scaling(np.full(3, 2.0), gains, sigma2, factor=0.5)
        assert np.all(out["sir_db_after"] <= out["sir_db_before"])
        # but only slightly: interference-limited regime
        assert np.all(out["sir_db_before"] - out["sir_db_after"] < 1.0)

    def test_no_noise_sir_invariant(self, cell):
        gains, _ = cell
        out = uniform_power_scaling(np.full(3, 2.0), gains, 0.0, factor=0.25)
        assert np.allclose(out["sir_db_after"], out["sir_db_before"])

    def test_bad_factor(self, cell):
        gains, sigma2 = cell
        with pytest.raises(ValueError):
            uniform_power_scaling(np.ones(3), gains, sigma2, factor=0.0)


def _same(value, expected, power=None):
    """Equal to 1e-12 relative.  Below about -35 dB the frame success
    rate under a utility is subnormal and carries no relative precision,
    so a utility is compared to within the one such a rate gives at
    ``power``."""
    floor = 0.0
    if power is not None:
        floor = sys.float_info.min * powercontrol.INFO_BITS * powercontrol.RATE_BPS
        floor /= powercontrol.FRAME_LENGTH * power
    return math.isclose(value, expected, rel_tol=1e-12, abs_tol=floor)


def _assert_scaling_equals_reference(distances, powers, factor):
    """The base station's SIR before and after a uniform power cut, and
    the utility of that SIR, equal the gain-based reference."""
    powers = np.array(powers)
    fw, bs, *clients, _wired = build_two_client_cell(*distances)
    snaps = []
    for scale in (1.0, factor):
        for client, power in zip(clients, powers * scale):
            client.set_power(power)
        fw.run_for(0.5)
        snaps.append(bs.evaluate_qos())

    pathloss = PathLossModel(alpha=4.0, k=1e6)
    gains = np.array([pathloss.gain(d) for d in distances])
    sigma2 = NoiseModel(reference_power=1.0, snr_ref_db=40.0).sigma2
    ref = uniform_power_scaling(powers, gains, sigma2, factor)
    for phase, snap, phase_powers in zip(("before", "after"), snaps, (powers, powers * factor)):
        for i, client in enumerate(clients):
            sir, _tier = snap.for_client(client.name)
            assert _same(sir, ref[f"sir_db_{phase}"][i])
            u = float(utility(sir, phase_powers[i]))
            assert _same(u, ref[f"utility_{phase}"][i], phase_powers[i])


# The six-decimal channel report (``WirelessClient.report_channel_state``)
# carries every value drawn here exactly: distances and powers in thousandths,
# and so is the factor, so a scaled power has six decimals.
@given(
    distances=st.tuples(st.integers(30_000, 200_000), st.integers(30_000, 200_000)),
    powers=st.tuples(st.integers(100, 4_000), st.integers(100, 4_000)),
    factor=st.integers(1, 1_000),
)
@example(  # FIG9b's own geometry
    distances=tuple(int(d * 1_000) for d in fig9.SCALING_DISTANCES),
    powers=(int(fig9.SCALING_POWER * 1_000),) * 2,
    factor=int(fig9.SCALING_FACTOR * 1_000),
)
@example(  # client B at -18 dB, where ``1 - exp(-gamma/2)`` loses digits
    distances=(30_000, 72_875), powers=(100, 100), factor=1
)
def test_base_station_scaling_equals_reference(distances, powers, factor):
    _assert_scaling_equals_reference(
        tuple(d / 1_000 for d in distances), tuple(p / 1_000 for p in powers), factor / 1_000
    )


@pytest.mark.xfail(
    strict=True,
    reason="the channel report sends distance and power as six-decimal text, so off"
    " that grid the base station's SIR is not the gain-based one (CHANGES.md FOUND)",
)
@given(
    distances=st.tuples(st.floats(30.0, 200.0), st.floats(30.0, 200.0)),
    powers=st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0)),
    factor=st.floats(0.0, 1.0, exclude_min=True),
)
@example(distances=(100 / 3, 200 / 1.7), powers=(1 / 3, 2**0.5), factor=1 / 3)
def test_base_station_scaling_equals_reference_off_the_report_grid(distances, powers, factor):
    _assert_scaling_equals_reference(distances, powers, factor)
