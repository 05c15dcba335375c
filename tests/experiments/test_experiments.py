"""Shape tests for the figure reproductions (fast, reduced sweeps).

The benchmarks run the full-size experiments; here we assert the paper's
qualitative shapes on smaller parameterizations so the suite stays quick.
"""

import numpy as np
import pytest

from repro.core.policies import ModalityTier
from repro.experiments import (
    ExperimentResult,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig9_scaling,
    run_fig10,
    solve_join_geometry,
)
from repro.wireless.channel import NoiseModel, PathLossModel


class TestHarness:
    def test_add_row_validates_columns(self):
        r = ExperimentResult("X", "t", columns=("a", "b"))
        r.add_row(a=1, b=2)
        with pytest.raises(KeyError):
            r.add_row(a=1, z=9)

    def test_format_table_renders(self):
        r = ExperimentResult("X", "title", columns=("a",))
        r.add_row(a=1.234)
        r.note("hello")
        text = r.format_table()
        assert "X: title" in text and "1.23" in text and "hello" in text

    def test_format_handles_special_floats(self):
        r = ExperimentResult("X", "t", columns=("a",))
        r.add_row(a=float("inf"))
        r.add_row(a=float("nan"))
        r.add_row(a=None)
        assert r.format_table()  # no crash


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6(fault_levels=[30, 60, 100], image_size=32)

    def test_packets_non_increasing_powers_of_two(self, result):
        packets = [row["packets"] for row in result.rows]
        assert packets == sorted(packets, reverse=True)
        assert set(packets) <= {0, 1, 2, 4, 8, 16}
        assert packets[0] == 16 and packets[-1] == 1

    def test_cr_rises_as_packets_fall(self, result):
        crs = [row["compression_ratio"] for row in result.rows]
        assert crs == sorted(crs)

    def test_bpp_falls(self, result):
        bpps = [row["bpp"] for row in result.rows]
        assert bpps == sorted(bpps, reverse=True)
        assert bpps[0] == pytest.approx(2.2, rel=0.1)


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7(cpu_levels=[30, 70, 100], image_size=32)

    def test_packets_reach_zero(self, result):
        packets = [row["packets"] for row in result.rows]
        assert packets[0] == 16
        assert packets[-1] == 0

    def test_color_bpp_range(self, result):
        bpps = [row["bpp"] for row in result.rows]
        assert bpps[0] == pytest.approx(14.3, rel=0.1)
        assert bpps[-1] == 0.0

    def test_cr_near_paper_at_full_quality(self, result):
        crs = [row["compression_ratio"] for row in result.rows]
        assert crs[0] == pytest.approx(1.68, rel=0.1)  # 24 / 14.3
        assert crs[-1] is None  # zero packets: undefined


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8()

    def test_a_sir_peaks_at_closest_point(self, result):
        sirs = [row["sir_a_db"] for row in result.rows]
        assert int(np.argmax(sirs)) == 3  # the 50 m point
        assert sirs[0] == pytest.approx(sirs[5], abs=0.2)  # symmetric trace

    def test_b_sir_mirrors_a(self, result):
        sa = np.array([row["sir_a_db"] for row in result.rows])
        sb = np.array([row["sir_b_db"] for row in result.rows])
        assert np.all(np.diff(sa[:4]) > 0)
        assert np.all(np.diff(sb[:4]) < 0)

    def test_tiers_cross_thresholds(self, result):
        tiers_a = [row["tier_a"] for row in result.rows]
        assert tiers_a[0] == "TEXT_ONLY"
        assert tiers_a[3] == "FULL_IMAGE"


class TestFig9:
    def test_power_sweep_monotone(self):
        result = run_fig9(power_steps=[0.5, 1.0, 2.0, 4.0])
        sa = [row["sir_a_db"] for row in result.rows]
        sb = [row["sir_b_db"] for row in result.rows]
        assert sa == sorted(sa)
        assert sb == sorted(sb, reverse=True)

    def test_goodman_mandayam_utility_improves(self):
        result = run_fig9_scaling(factor=0.5)
        for row in result.rows:
            assert row["utility_after"] > row["utility_before"]
            assert row["power_after"] == row["power_before"] / 2

    def test_distance_beats_power(self):
        """Halving distance is worth 16x power (alpha=4) vs 2x for power."""
        pl = PathLossModel(alpha=4.0, k=1e6)
        gain_ratio_distance = pl.gain(40.0) / pl.gain(80.0)
        assert gain_ratio_distance == pytest.approx(16.0)
        assert gain_ratio_distance > 2.0  # doubling power gives only 2x


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig10()

    def test_each_join_degrades_sir(self, result):
        sirs = [row["sir_a_linear"] for row in result.rows]
        assert sirs == sorted(sirs, reverse=True)

    def test_paper_drop_percentages(self, result):
        drops = [row["drop_vs_prev_pct"] for row in result.rows]
        assert drops[0] is None
        assert drops[1] == pytest.approx(90.0, abs=2.0)
        assert drops[2] == pytest.approx(23.0, abs=2.0)

    def test_geometry_solver_inverts(self):
        pl = PathLossModel(alpha=4.0, k=1e6)
        noise = NoiseModel(reference_power=1.0, snr_ref_db=40.0)
        d2, d3 = solve_join_geometry(pl, noise, power=1.0, drop2=0.5, drop3=0.5)
        # verify by direct computation
        s2 = noise.sigma2
        sir_alone = pl.gain(60.0) / s2
        sir_with_2 = pl.gain(60.0) / (pl.gain(d2) + s2)
        assert 1 - sir_with_2 / sir_alone == pytest.approx(0.5, abs=1e-6)


class TestFig8Dataflow:
    def test_modality_follows_tier(self):
        from repro.experiments.fig8 import run_fig8_dataflow

        result = run_fig8_dataflow()
        for row in result.rows:
            if row["tier_a"] == "FULL_IMAGE":
                assert row["session_got_packets"]
            elif row["tier_a"] != "NOTHING":
                assert row["session_got_text"]
                assert not row["session_got_packets"]
