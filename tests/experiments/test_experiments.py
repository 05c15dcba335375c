"""Shape tests for the figure reproductions.

``TestPaperShapes`` asserts each paper claim's predicate (the one the
report prints as ``holds`` / ``FAILS``) and the paper's other anchors on
the full-size experiments, each run once, and ``test_report_is_pinned``
pins every row ``python -m repro.experiments`` prints for them; the
other classes check behaviour the claims do not cover, some on reduced
sweeps that patch a runner's module constants.
"""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.policies import ModalityTier
from repro.experiments import __main__ as cli
from repro.experiments import fig6, fig7, fig8, fig9, fig10
from repro.experiments import (
    ExperimentResult,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig10,
    solve_join_geometry,
)
from repro.experiments.harness import Claim
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

    def test_claims_print_their_verdict_before_the_notes(self):
        r = ExperimentResult(
            "X",
            "t",
            columns=("a",),
            claims=[
                Claim("paper: a is 1", lambda rows: rows[0]["a"] == 1),
                Claim("paper: a > 1", lambda rows: rows[0]["a"] > 1),
            ],
        )
        r.add_row(a=1)
        r.note("prose")
        assert r.format_table().splitlines()[-3:] == [
            "  note: paper: a is 1: holds",
            "  note: paper: a > 1: FAILS",
            "  note: prose",
        ]

    def test_format_handles_special_floats(self):
        r = ExperimentResult("X", "t", columns=("a",))
        r.add_row(a=float("inf"))
        r.add_row(a=float("nan"))
        r.add_row(a=None)
        assert r.format_table()  # no crash


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        with mock.patch.object(fig6, "FAULT_LEVELS", (30, 60, 100)), mock.patch.object(
            fig6, "IMAGE_SIZE", 32
        ):
            return run_fig6()

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
        with mock.patch.object(fig7, "CPU_LEVELS", (30, 70, 100)), mock.patch.object(
            fig7, "IMAGE_SIZE", 32
        ):
            return run_fig7()

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

    def test_geometry_solver_inverts(self):
        pl = PathLossModel(alpha=4.0, k=1e6)
        noise = NoiseModel(reference_power=1.0, snr_ref_db=40.0)
        with mock.patch.object(fig10, "DROP2", 0.5), mock.patch.object(fig10, "DROP3", 0.5):
            d2, d3 = solve_join_geometry(pl, noise)
        # verify by direct computation
        s2 = noise.sigma2
        sir_alone = pl.gain(60.0) / s2
        sir_with_2 = pl.gain(60.0) / (pl.gain(d2) + s2)
        assert 1 - sir_with_2 / sir_alone == pytest.approx(0.5, abs=1e-6)


#: the runners whose output ``report.txt`` holds, in its order
REPORTED = ("fig6", "fig7", "fig8", "fig9", "fig10", "multicast")
REPORT = Path(__file__).parent / "report.txt"


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
    assert capsys.readouterr().out == REPORT.read_text()


def test_report_states_paper_claims_only_as_computed_claims(full):
    """Every ``note: paper...`` line of the report is a :class:`Claim`
    printed with its verdict, so an unchecked prose claim cannot come
    back, and every claim holds."""
    claim_lines = {
        f"  note: {claim.line(result.rows)}"
        for results in full.values()
        for result in results
        for claim in result.claims
    }
    paper_lines = [line for line in REPORT.read_text().splitlines() if line.startswith("  note: paper")]
    assert sorted(paper_lines) == sorted(claim_lines)
    assert all(line.endswith(": holds") for line in paper_lines)


def test_report_is_ascii():
    """``python -m repro.experiments`` prints under a C locale."""
    assert REPORT.read_bytes().isascii()


#: each claim, with rows that break it in one place
COUNTEREXAMPLES = [
    (fig6.PACKETS_CLAIM, [{"packets": 16}, {"packets": 6}, {"packets": 1}]),
    (fig7.PACKETS_CLAIM, [{"packets": 16}, {"packets": 4}, {"packets": 1}]),
    (fig8.SWING_CLAIM, [{"sir_a_db": -3.9}, {"sir_a_db": 0.0}, {"sir_a_db": 3.0}, {"sir_a_db": 5.9}]),
    (
        fig8.TIER_CLAIM,
        [{"sir_a_db": 4.5, "sir_b_db": -4.0, "tier_a": "TEXT_AND_SKETCH", "tier_b": "TEXT_ONLY"}],
    ),
    (
        fig8.TIER_CLAIM,
        [{"sir_a_db": 3.0, "sir_b_db": -4.0, "tier_a": "TEXT_ONLY", "tier_b": "TEXT_AND_SKETCH"}],
    ),
    (fig8.MODALITY_CLAIM, [{"tier_a": "TEXT_ONLY", "session_got_packets": False, "session_got_text": False}]),
    (fig9.SIR_CLAIM, [{"sir_a_db": 1.0, "sir_b_db": 1.0}, {"sir_a_db": 2.0, "sir_b_db": 1.0}]),
    (fig9.UTILITY_CLAIM, [{"utility_gain": 1.5}, {"utility_gain": 1.0}]),
    (fig10.DROP_CLAIM, [{"drop_vs_prev_pct": None}, {"drop_vs_prev_pct": 90.0}, {"drop_vs_prev_pct": 25.5}]),
]


@pytest.mark.parametrize(
    "claim, rows",
    COUNTEREXAMPLES,
    ids=["FIG6", "FIG7", "FIG8-swing", "FIG8-image", "FIG8-order", "FIG8b", "FIG9", "FIG9b", "FIG10"],
)
def test_each_claim_fails_on_a_counterexample(claim, rows):
    assert not claim.holds(rows)
    assert claim.line(rows).endswith(": FAILS")


class TestPaperShapes:
    """The full-size experiments against the paper's Sec. 6 anchors."""

    def test_fig6_page_fault_sweep(self, full):
        (result,) = full["fig6"]
        packets = [row["packets"] for row in result.rows]
        bpps = [row["bpp"] for row in result.rows]
        crs = [row["compression_ratio"] for row in result.rows]

        # paper shape 1: packets 16 -> 1, powers of two, monotone non-increasing,
        # visiting every rung of the ladder
        assert fig6.PACKETS_CLAIM.holds(result.rows)
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
        bpps = [row["bpp"] for row in result.rows]
        crs = [row["compression_ratio"] for row in result.rows if row["compression_ratio"] is not None]

        # packets drop from 16 all the way to 0 at saturation
        assert fig7.PACKETS_CLAIM.holds(result.rows)

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
        assert fig8.SWING_CLAIM.holds(result.rows)

        # tiers rise with SIR, image from 4 dB; A crosses from degraded up
        # to FULL_IMAGE at 50 m
        assert fig8.TIER_CLAIM.holds(result.rows)
        assert tiers_a[0] != "FULL_IMAGE"
        assert tiers_a[3] == "FULL_IMAGE"
        # B loses service as A gets close (interference)
        assert tiers_b[3] in ("TEXT_ONLY", "NOTHING")

    def test_fig8_uplink_dataflow(self, full):
        """The narrative behind Fig. 8: the BS forwards whatever modality the
        sender's SIR supports — packets at full tier, text otherwise."""
        _sweep, result = full["fig8"]
        assert fig8.MODALITY_CLAIM.holds(result.rows)
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
        # A rises with its power; B falls (A is B's interference)
        assert fig9.SIR_CLAIM.holds(result.rows)

        # crossing the 4 dB image threshold happens inside the sweep
        tiers = [row["tier_a"] for row in result.rows]
        assert tiers[0] != "FULL_IMAGE" and tiers[-1] == "FULL_IMAGE"

    def test_fig9_goodman_mandayam_scaling(self, full):
        _sweep, result = full["fig9"]
        # paper: "net utility ... is increased for all the clients"
        assert fig9.UTILITY_CLAIM.holds(result.rows)
        for row in result.rows:
            assert row["power_after"] == row["power_before"] * fig9.SCALING_FACTOR
            # SIR dips only marginally (interference-limited regime)
            assert row["sir_db_before"] - row["sir_db_after"] < 0.5

    def test_fig10_join_degradation(self, full):
        (result,) = full["fig10"]
        sirs = [row["sir_a_linear"] for row in result.rows]

        # every join strictly degrades the incumbent
        assert sirs == sorted(sirs, reverse=True)

        # the paper's percentages (geometry solved for them; see DESIGN.md)
        assert fig10.DROP_CLAIM.holds(result.rows)

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
