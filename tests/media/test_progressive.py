"""Tests for progressive packetization and receiver assembly."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.media.images import collaboration_scene, to_rgb
from repro.media.metrics import psnr
from repro.media.progressive import (
    MAX_RECEIVED_PIXELS,
    PACKET_COUNTS,
    ImagePacket,
    ImagePacketError,
    ProgressiveImage,
    ReceivedImage,
)


@pytest.fixture(scope="module")
def gray_prog():
    return ProgressiveImage(collaboration_scene(64, 64), n_packets=16, target_bpp=2.2)


@pytest.fixture(scope="module")
def color_prog():
    return ProgressiveImage(
        to_rgb(collaboration_scene(64, 64)), n_packets=16, target_bpp=14.3
    )


class TestPacketization:
    def test_packet_count(self, gray_prog):
        assert len(gray_prog.packets()) == 16

    def test_bits_partition_stream(self, gray_prog):
        pkts = gray_prog.packets()
        assert sum(p.n_bits for p in pkts) == gray_prog.total_bits

    def test_color_packets_carry_three_chunks(self, color_prog):
        for p in color_prog.packets():
            assert len(p.chunks) == 3

    def test_wire_roundtrip(self, gray_prog):
        p = gray_prog.packets()[5]
        rt = ImagePacket.from_bytes(p.to_bytes())
        assert rt.index == p.index
        assert rt.total == p.total
        assert rt.chunks == p.chunks

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ProgressiveImage(collaboration_scene(64, 64), n_packets=0)
        with pytest.raises(ValueError):
            ProgressiveImage(np.zeros((2, 2, 2, 2)))


def received(prog):
    """A receiver that holds every packet of ``prog``."""
    rx = ReceivedImage(*prog.shape[:2], prog.channels, prog.levels, prog.t0_exps, prog.n_packets)
    for p in prog.packets():
        rx.add_packet(p)
    return rx


class TestReports:
    """The paper's metrics of a reception, as a receiver reports them."""

    def test_bpp_scales_with_packets(self, gray_prog):
        rx = received(gray_prog)
        reports = [rx.report(gray_prog.image, k) for k in PACKET_COUNTS]
        bpps = [r.bpp for r in reports]
        assert bpps == sorted(bpps)
        assert reports[-1].bpp == pytest.approx(2.2, rel=0.05)

    def test_compression_ratio_inverse_of_bpp(self, gray_prog):
        r = received(gray_prog).report(gray_prog.image, 16)
        assert r.compression_ratio == pytest.approx(8.0 / r.bpp, rel=1e-6)

    def test_color_cr_uses_24bpp_raw(self, color_prog):
        r = received(color_prog).report(color_prog.image, 16)
        assert r.compression_ratio == pytest.approx(24.0 / r.bpp, rel=1e-6)

    def test_psnr_improves_with_packets(self, gray_prog):
        rx = received(gray_prog)
        reports = [rx.report(gray_prog.image, k) for k in (1, 4, 16)]
        assert reports[0].psnr_db < reports[1].psnr_db < reports[2].psnr_db

    def test_zero_packets(self, gray_prog):
        r = received(gray_prog).report(gray_prog.image, 0)
        assert r.bits_used == 0
        assert r.compression_ratio == float("inf")

    def test_out_of_range_clamped(self, gray_prog):
        assert received(gray_prog).report(gray_prog.image, 99).packets_used == 16


class TestReceivedImage:
    def test_full_reception_matches_sender_reconstruction(self, gray_prog):
        rx = ReceivedImage(64, 64, 1, gray_prog.levels, gray_prog.t0_exps, 16)
        for p in gray_prog.packets():
            rx.add_packet(p)
        assert rx.usable_prefix == 16
        assert np.allclose(rx.reconstruct(), gray_prog.reconstruct(16))

    def test_gap_limits_usable_prefix(self, gray_prog):
        rx = ReceivedImage(64, 64, 1, gray_prog.levels, gray_prog.t0_exps, 16)
        pkts = gray_prog.packets()
        for i in (0, 1, 2, 5, 6):
            rx.add_packet(pkts[i])
        assert rx.received == 5
        assert rx.usable_prefix == 3

    def test_gap_fill_extends_prefix(self, gray_prog):
        rx = ReceivedImage(64, 64, 1, gray_prog.levels, gray_prog.t0_exps, 16)
        pkts = gray_prog.packets()
        for i in (0, 1, 3):
            rx.add_packet(pkts[i])
        assert rx.usable_prefix == 2
        rx.add_packet(pkts[2])
        assert rx.usable_prefix == 4

    def test_duplicates_idempotent(self, gray_prog):
        rx = ReceivedImage(64, 64, 1, gray_prog.levels, gray_prog.t0_exps, 16)
        p0 = gray_prog.packets()[0]
        rx.add_packet(p0)
        rx.add_packet(p0)
        assert rx.received == 1

    def test_mismatched_total_rejected(self, gray_prog):
        rx = ReceivedImage(64, 64, 1, gray_prog.levels, gray_prog.t0_exps, 8)
        with pytest.raises(ImagePacketError):
            rx.add_packet(gray_prog.packets()[0])

    def test_channel_count_validation(self, gray_prog):
        with pytest.raises(ImagePacketError):
            ReceivedImage(64, 64, 3, gray_prog.levels, gray_prog.t0_exps, 16)

    @pytest.mark.parametrize(
        "geometry",
        [
            dict(levels=0),
            dict(levels=-1),
            dict(height=63, width=63),
            dict(width=0),
            dict(t0_exps=(5000,)),
            dict(n_packets=0),
            dict(height=2048, width=1024, levels=1),
        ],
        ids=",".join,
    )
    def test_wire_supplied_geometry_is_checked_at_construction(self, geometry):
        # each of these used to surface only at reconstruct(), as IndexError,
        # "negative shift count", a numpy reshape error or OverflowError
        good = dict(height=64, width=64, channels=1, levels=5, t0_exps=(12,), n_packets=16)
        with pytest.raises(ImagePacketError):
            ReceivedImage(**{**good, **geometry})

    def test_hostile_depth_is_refused_before_any_shift(self):
        # 1 << 2**28 alone is a 32 MiB integer
        tracemalloc.start()
        try:
            with pytest.raises(ImagePacketError):
                ReceivedImage(64, 64, 1, 2**28, (12,), 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("height,width", [(1024, 1024), (2048, 512)])
    def test_an_area_up_to_the_cap_is_accepted(self, height, width):
        assert height * width == MAX_RECEIVED_PIXELS
        assert ReceivedImage(height, width, 1, 1, (12,), 16).height == height

    @given(st.integers(1, 300), st.integers(1, 300), st.integers(-2, 12))
    def test_accepted_depths_are_those_the_pyramid_divides(self, height, width, levels):
        divides = levels >= 1 and height % (1 << levels) == 0 and width % (1 << levels) == 0
        try:
            ReceivedImage(height, width, 1, levels, (12,), 16)
        except ImagePacketError:
            assert not divides
        else:
            assert divides

    def test_packet_with_the_wrong_chunk_count_rejected(self, gray_prog, color_prog):
        rx = ReceivedImage(64, 64, 1, gray_prog.levels, gray_prog.t0_exps, 16)
        with pytest.raises(ImagePacketError):
            rx.add_packet(color_prog.packets()[0])

    def test_color_reception(self, color_prog):
        img = color_prog.image
        rx = ReceivedImage(64, 64, 3, color_prog.levels, color_prog.t0_exps, 16)
        for p in color_prog.packets()[:8]:
            rx.add_packet(p)
        rep = rx.report(original=img)
        assert rep.packets_used == 8
        assert rep.psnr_db > 20.0

    def test_report_without_original_has_nan_psnr(self, gray_prog):
        rx = ReceivedImage(64, 64, 1, gray_prog.levels, gray_prog.t0_exps, 16)
        rx.add_packet(gray_prog.packets()[0])
        assert np.isnan(rx.report().psnr_db)


class TestEmbeddedStream:
    """Why one embedded stream: every client tier is a prefix of it."""

    def test_rate_distortion_curve_at_128(self):
        img = collaboration_scene(128, 128)
        rx = received(ProgressiveImage(img, n_packets=16, target_bpp=2.2))
        psnrs = [rx.report(img, k).psnr_db for k in PACKET_COUNTS]
        assert all(b >= a - 0.25 for a, b in zip(psnrs, psnrs[1:]))  # monotone-ish
        assert psnrs[-1] > 35.0

    def test_one_embedded_stream_costs_fewer_bits_than_fixed_re_encodes(self):
        """Serving K quality tiers, a fixed-quality design runs the coder K
        times; the embedded design runs it once and truncates."""
        img = collaboration_scene(64, 64)
        tiers = (1, 4, 16)
        fixed_bits = sum(
            ProgressiveImage(img, n_packets=16, target_bpp=2.2 * k / 16).total_bits for k in tiers
        )
        embedded = ProgressiveImage(img, n_packets=16, target_bpp=2.2)
        assert embedded.total_bits < fixed_bits
        for k in tiers:
            assert psnr(img, embedded.reconstruct(k)) > 15.0
