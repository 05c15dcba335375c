"""Tests for the headless applications (chat, whiteboard, image viewer)."""

import dataclasses

import numpy as np
import pytest

from repro.apps.chat import ChatArea
from repro.apps.imageviewer import MAX_PRE_ANNOUNCE_IMAGES, ImageViewer
from repro.apps.whiteboard import Whiteboard
from repro.core.events import ChatEvent, ImagePacketEvent, TextShareEvent, WhiteboardEvent
from repro.media.images import collaboration_scene, to_rgb
from repro.media.metrics import psnr
from repro.media.progressive import ImagePacketError


class TestChatArea:
    def test_compose_does_not_render(self):
        chat = ChatArea("alice")
        chat.compose("draft")
        assert chat.lines == []

    def test_on_chat_renders(self):
        chat = ChatArea("alice")
        chat.on_chat(ChatEvent(author="bob", text="hi"), time=1.0)
        assert chat.transcript == ["bob: hi"]

    def test_text_share_rendered_with_ref(self):
        chat = ChatArea("alice")
        chat.on_text_share(TextShareEvent(ref_id="img-1", text="a scene"), time=1.0)
        assert chat.transcript == ["[img-1]: a scene"]

    def test_lines_keep_time(self):
        chat = ChatArea("a")
        line = chat.on_chat(ChatEvent(author="b", text="x"), time=3.5)
        assert line.time == 3.5


class TestWhiteboard:
    def test_draw_then_objects(self):
        wb = Whiteboard("alice")
        wb.draw("s1", (0.0, 1.0), time=0.1)
        assert wb.objects() == {"s1": [0.0, 1.0]}

    def test_erase_removes(self):
        wb = Whiteboard("alice")
        wb.draw("s1", (0.0,), time=0.1)
        erase = WhiteboardEvent(object_id="s1", op="erase", author="bob", version=2, timestamp=0.2)
        assert wb.on_event(erase, time=0.3)
        assert wb.objects() == {}

    def test_remote_event_applied(self):
        wb = Whiteboard("alice")
        ev = WhiteboardEvent(object_id="s9", op="draw", points=(5.0,),
                             author="bob", version=1, timestamp=0.5)
        assert wb.on_event(ev, time=0.6)
        assert wb.objects() == {"s9": [5.0]}

    def test_replica_convergence_symmetric(self):
        """Two replicas exchanging concurrent events converge."""
        wa, wb = Whiteboard("alice"), Whiteboard("bob")
        ev_a = wa.draw("s", (1.0,), time=1.0)
        ev_b = wb.draw("s", (2.0,), time=1.0)
        wa.on_event(ev_b, time=1.1)
        wb.on_event(ev_a, time=1.1)
        assert wa.objects()["s"] == wb.objects()["s"] == [2.0]  # bob wins tie
        assert wa.conflicts == 1

    def test_stale_remote_loses(self):
        wb = Whiteboard("alice")
        wb.draw("s", (1.0,), time=5.0)
        wb.draw("s", (2.0,), time=6.0)  # version 2
        stale = WhiteboardEvent(object_id="s", op="draw", points=(9.0,),
                                author="bob", version=1, timestamp=9.0)
        assert not wb.on_event(stale, time=9.1)
        assert wb.objects()["s"] == [2.0]


class TestImageViewerSender:
    def test_share_produces_announce_and_packets(self):
        viewer = ImageViewer("alice", n_packets=16, target_bpp=2.2)
        announce, packets = viewer.share("img", collaboration_scene(64, 64))
        assert announce.n_packets == 16
        assert announce.channels == 1
        assert len(announce.t0_exps) == 1
        assert announce.description
        assert len(packets) == 16
        assert all(p.image_id == "img" for p in packets)

    def test_color_share(self):
        viewer = ImageViewer("alice", target_bpp=14.3)
        announce, _ = viewer.share("img", to_rgb(collaboration_scene(64, 64)))
        assert announce.channels == 3
        assert len(announce.t0_exps) == 3


class TestImageViewerReceiver:
    @pytest.fixture
    def shared(self):
        sender = ImageViewer("alice", n_packets=16, target_bpp=2.2)
        img = collaboration_scene(64, 64)
        announce, packets = sender.share("img", img)
        return img, announce, packets

    def test_full_budget_reception(self, shared):
        img, announce, packets = shared
        rx = ImageViewer("bob")
        rx.on_announce(announce)
        accepted = sum(rx.on_packet(p) for p in packets)
        assert accepted == 16
        assert psnr(img, rx.reconstruct("img")) > 35.0

    def test_budget_rejects_excess(self, shared):
        _, announce, packets = shared
        rx = ImageViewer("bob")
        rx.set_packet_budget(4)
        rx.on_announce(announce)
        accepted = sum(rx.on_packet(p) for p in packets)
        assert accepted == 4
        assert rx.viewed["img"].report().packets_used == 4

    def test_budget_clamped_to_range(self):
        rx = ImageViewer("bob", n_packets=16)
        rx.set_packet_budget(99)
        assert rx.packet_budget == 16
        rx.set_packet_budget(-1)
        assert rx.packet_budget == 0

    def test_packets_before_announce_buffered(self, shared):
        img, announce, packets = shared
        rx = ImageViewer("bob")
        for p in packets[:5]:
            rx.on_packet(p)  # announce not yet seen
        rx.on_announce(announce)
        assert rx.viewed["img"].assembly.usable_prefix == 5

    def test_pre_announce_stash_is_bounded_in_image_ids(self, shared):
        # image_id arrives off the wire: a lost announce, or a hostile stream
        # of fresh ids, must not grow the stash forever
        _, announce, packets = shared
        rx = ImageViewer("bob")
        for p in packets[:5]:
            rx.on_packet(p)
        for i in range(10_000):
            rx.on_packet(ImagePacketEvent(image_id=f"ghost-{i}", packet_index=0, packet_total=16, payload=b""))
            if i == MAX_PRE_ANNOUNCE_IMAGES // 2:  # "img" is still stashed: drains as ever
                rx.on_announce(announce)
                assert rx.viewed["img"].assembly.usable_prefix == 5
        assert len(rx._pre_announce) == MAX_PRE_ANNOUNCE_IMAGES
        assert next(iter(rx._pre_announce)) == f"ghost-{10_000 - MAX_PRE_ANNOUNCE_IMAGES}"  # oldest went first
        for _ in range(100):  # the per-id cap stands
            rx.on_packet(ImagePacketEvent(image_id="ghost-9999", packet_index=0, packet_total=16, payload=b""))
        assert len(rx._pre_announce["ghost-9999"]) == 64

    def test_duplicate_announce_idempotent(self, shared):
        _, announce, packets = shared
        rx = ImageViewer("bob")
        v1 = rx.on_announce(announce)
        rx.on_packet(packets[0])
        v2 = rx.on_announce(announce)
        assert v1 is v2
        assert v2.assembly.usable_prefix == 1

    def test_offered_vs_accepted_counters(self, shared):
        _, announce, packets = shared
        rx = ImageViewer("bob")
        rx.set_packet_budget(2)
        rx.on_announce(announce)
        for p in packets:
            rx.on_packet(p)
        view = rx.viewed["img"]
        assert view.packets_offered == 16
        assert view.packets_accepted == 2

    def test_a_repeated_packet_index_is_accepted_once(self, shared):
        # a history replay, or a late original after its repair
        _, announce, packets = shared
        rx = ImageViewer("bob")
        rx.on_announce(announce)
        assert rx.on_packet(packets[0]) is True
        assert rx.on_packet(packets[0]) is False
        view = rx.viewed["img"]
        assert (view.packets_offered, view.packets_accepted) == (2, 1)
        assert view.assembly.received == 1

    @pytest.mark.parametrize(
        ("source", "header"),
        [(15, {"packet_index": 0}), (0, {"packet_total": 8})],
        ids=["index", "total"],
    )
    def test_a_payload_that_is_not_its_events_packet_is_refused(self, shared, source, header):
        # the budget reads the event's header, the assembly the payload's
        _, announce, packets = shared
        rx = ImageViewer("bob")
        rx.set_packet_budget(1)
        rx.on_announce(announce)
        forged = dataclasses.replace(packets[source], **header)
        with pytest.raises(ImagePacketError, match="payload is packet"):
            rx.on_packet(forged)
        assert rx.viewed["img"].assembly.received == 0
