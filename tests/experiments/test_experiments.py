"""Shape tests for the figure reproductions.

``TestPaperShapes`` asserts the paper's qualitative shapes on the
full-size experiments, each run once, and ``test_report_is_pinned``
pins every row ``python -m repro.experiments`` prints for them; the
other classes check the shapes on reduced sweeps through each runner's
parameters.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.policies import ModalityTier
from repro.experiments import __main__ as cli
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


#: the runners whose output ``report.txt`` holds, in its order
REPORTED = ("fig6", "fig7", "fig8", "fig9", "fig10", "multicast")


@pytest.fixture(scope="module")
def full():
    """Each reported experiment at full size, run once: name -> results."""
    return {name: cli._RUNNERS[name]() for name in REPORTED}


def test_report_is_pinned(full, monkeypatch, capsys):
    """Every row the report prints, at its printed precision.

    ``report.txt`` is the output of ``python -m repro.experiments fig6
    fig7 fig8 fig9 fig10 multicast``; a change that moves a row rewrites
    it with that command and says why.
    """
    for name in REPORTED:
        monkeypatch.setitem(cli._RUNNERS, name, lambda name=name: full[name])
    assert cli.main(list(REPORTED)) == 0
    assert capsys.readouterr().out == (Path(__file__).parent / "report.txt").read_text()


class TestPaperShapes:
    """The full-size experiments against the paper's Sec. 6 anchors."""

    def test_fig6_page_fault_sweep(self, full):
        (result,) = full["fig6"]
        packets = [row["packets"] for row in result.rows]
        bpps = [row["bpp"] for row in result.rows]
        crs = [row["compression_ratio"] for row in result.rows]

        # paper shape 1: packets 16 -> 1, powers of two, monotone non-increasing
        assert packets[0] == 16
        assert packets[-1] == 1
        assert packets == sorted(packets, reverse=True)
        assert set(packets) == {16, 8, 4, 2, 1}

        # paper shape 2: compression ratio rises as packets fall (3.6 -> 131 reported)
        assert crs == sorted(crs)
        assert crs[0] == pytest.approx(3.6, rel=0.15)
        assert crs[-1] > 10 * crs[0]

        # paper shape 3: BPP falls (2.1 -> 0.1 reported)
        assert bpps == sorted(bpps, reverse=True)
        assert bpps[0] == pytest.approx(2.2, rel=0.15)
        assert bpps[-1] < 0.2

    def test_fig7_cpu_load_sweep(self, full):
        (result,) = full["fig7"]
        packets = [row["packets"] for row in result.rows]
        bpps = [row["bpp"] for row in result.rows]
        crs = [row["compression_ratio"] for row in result.rows if row["compression_ratio"] is not None]

        # packets drop from 16 all the way to 0 at saturation
        assert packets[0] == 16
        assert packets[-1] == 0
        assert packets == sorted(packets, reverse=True)

        # BPP anchors: ~14.3 at full quality, <1 at one packet, 0 at zero
        assert bpps[0] == pytest.approx(14.3, rel=0.1)
        one_packet_rows = [r for r in result.rows if r["packets"] == 1]
        assert one_packet_rows and one_packet_rows[0]["bpp"] == pytest.approx(0.9, rel=0.3)
        assert bpps[-1] == 0.0

        # CR anchors: ~1.6 at 16 packets, tens at 1 packet (paper: 1.6 -> 32.7)
        assert crs[0] == pytest.approx(1.68, rel=0.1)
        assert 15.0 < crs[-1] < 60.0

    def test_fig8_distance_sweep(self, full):
        result, _dataflow = full["fig8"]
        sa = np.array([row["sir_a_db"] for row in result.rows])
        sb = np.array([row["sir_b_db"] for row in result.rows])
        tiers_a = [row["tier_a"] for row in result.rows]
        tiers_b = [row["tier_b"] for row in result.rows]

        # approaching (points 0-3) monotonically improves A and degrades B
        assert np.all(np.diff(sa[:4]) > 0)
        assert np.all(np.diff(sb[:4]) < 0)
        # retreating mirrors
        assert np.all(np.diff(sa[3:]) < 0)
        assert np.all(np.diff(sb[3:]) > 0)
        # the trace is symmetric: endpoints match
        assert sa[0] == pytest.approx(sa[-1], abs=0.2)

        # "changes the SIR considerably": >10 dB swing for A
        assert sa.max() - sa.min() > 10.0

        # tier transitions: A crosses from degraded up to FULL_IMAGE at 50 m
        assert tiers_a[0] != "FULL_IMAGE"
        assert tiers_a[3] == "FULL_IMAGE"
        # B loses service as A gets close (interference)
        assert tiers_b[3] in ("TEXT_ONLY", "NOTHING")

    def test_fig8_uplink_dataflow(self, full):
        """The narrative behind Fig. 8: the BS forwards whatever modality the
        sender's SIR supports — packets at full tier, text otherwise."""
        _sweep, result = full["fig8"]
        for row in result.rows:
            if row["tier_a"] == "FULL_IMAGE":
                assert row["session_got_packets"]
            elif row["tier_a"] != "NOTHING":
                assert row["session_got_text"] and not row["session_got_packets"]
        # the sweep exercises both regimes
        tiers = {row["tier_a"] for row in result.rows}
        assert "FULL_IMAGE" in tiers and len(tiers) >= 2

    def test_fig9_power_sweep(self, full):
        result, _scaling = full["fig9"]
        sa = np.array([row["sir_a_db"] for row in result.rows])
        sb = np.array([row["sir_b_db"] for row in result.rows])
        assert np.all(np.diff(sa) > 0)   # A rises with its power
        assert np.all(np.diff(sb) < 0)   # B falls (A is B's interference)

        # crossing the 4 dB image threshold happens inside the sweep
        tiers = [row["tier_a"] for row in result.rows]
        assert tiers[0] != "FULL_IMAGE" and tiers[-1] == "FULL_IMAGE"

    def test_fig9_goodman_mandayam_scaling(self, full):
        _sweep, result = full["fig9"]
        for row in result.rows:
            # paper: "net utility ... is increased for all the clients"
            assert row["utility_after"] > row["utility_before"]
            # SIR dips only marginally (interference-limited regime)
            assert row["sir_db_before"] - row["sir_db_after"] < 0.5

    def test_fig10_join_degradation(self, full):
        (result,) = full["fig10"]
        sirs = [row["sir_a_linear"] for row in result.rows]
        drops = [row["drop_vs_prev_pct"] for row in result.rows]

        # every join strictly degrades the incumbent
        assert sirs == sorted(sirs, reverse=True)

        # the paper's percentages (geometry solved for them; see DESIGN.md)
        assert drops[1] == pytest.approx(90.0, abs=2.0)
        assert drops[2] == pytest.approx(23.0, abs=2.0)

        # session-size limit: with both interferers in, A's SIR is a tiny
        # fraction of its solo value
        assert sirs[-1] < 0.1 * sirs[0]

    def test_multicast_tree_reduction(self, full):
        """MCAST: a group send costs one packet per tree edge, >= 5x fewer
        than flat fan-out at 256 members, and both deliver to every member."""
        (result,) = full["multicast"]
        by_m = {row["members"]: row for row in result.rows}
        row = by_m[256]
        # the counters are deterministic, so they are pinned exactly:
        # (flat, tree, delivered) packets per send at each group size
        assert {
            m: (r["flat_tx_per_send"], r["tree_tx_per_send"], r["delivered_each"]) for m, r in by_m.items()
        } == {16: (102, 39, 16), 64: (408, 87, 64), 256: (1632, 279, 256)}
        # tree cost is exactly one transmission per tree edge
        assert row["tree_tx_per_send"] == row["tree_edges"]
        # the acceptance criterion: >=5x packet reduction at M=256
        assert row["flat_tx_per_send"] >= 5 * row["tree_tx_per_send"]
        # and the gap widens with group size
        reductions = [by_m[m]["reduction"] for m in sorted(by_m)]
        assert reductions == sorted(reductions)
