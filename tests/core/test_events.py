"""Tests for the collaboration event model and its codecs."""

import pytest
from hypothesis import given, strategies as st

from repro.core import events
from repro.core.events import (
    ChatEvent,
    EventError,
    ImagePacketEvent,
    ImageShareAnnounce,
    JoinEvent,
    LeaveEvent,
    PowerControlRequest,
    ProfileUpdateEvent,
    SketchShareEvent,
    SpeechShareEvent,
    TextShareEvent,
    WhiteboardEvent,
    decode_event,
)

ALL_EVENTS = [
    ChatEvent(author="a", text="héllo"),
    WhiteboardEvent(object_id="s1", op="draw", points=(1.0, 2.0, 3.5, -4.25), author="b"),
    WhiteboardEvent(object_id="s2", op="erase", author="c"),
    ImageShareAnnounce("img", 64, 48, 3, 16, 12345, "a scene", 4, (7, 6, 5)),
    ImagePacketEvent("img", 3, 16, b"\x00\x01payload\xff"),
    TextShareEvent(ref_id="img", text="description"),
    SketchShareEvent(ref_id="img", sketch_h=32, sketch_w=32, encoded=b"Rdata"),
    SpeechShareEvent(ref_id="img", sample_rate=8000, samples_u8=b"\x80" * 100),
    JoinEvent(client_id="c", objective="triage"),
    LeaveEvent(client_id="c"),
    ProfileUpdateEvent(client_id="c", changes=(("modality", "text"), ("battery", "20"))),
    PowerControlRequest(client_id="c", new_power=0.5, reason="sir high"),
]


class TestRoundtrip:
    @pytest.mark.parametrize("event", ALL_EVENTS, ids=lambda e: type(e).__name__)
    def test_body_roundtrip(self, event):
        assert decode_event(event.kind, event.to_body()) == event

    def test_unknown_kind(self):
        with pytest.raises(EventError):
            decode_event("no-such-kind", b"")

    def test_truncated_body(self):
        body = ChatEvent(author="abc", text="def").to_body()
        with pytest.raises(EventError):
            decode_event("chat", body[:3])


class TestFixedLayoutTable:
    def test_peer_sized_layouts_are_never_compiled_into_the_table(self):
        size = len(events._STRUCTS)
        for nexp in range(1000):
            exps = tuple(range(nexp))
            event = ImageShareAnnounce("img", 8, 8, 1, 16, 64, "d", 3, exps)
            assert decode_event(event.kind, event.to_body()) == event
            # the count says more exponents than the body holds
            with pytest.raises(EventError):
                decode_event(event.kind, event.to_body()[:-1] if exps else event.to_body()[:-4])
        assert len(events._STRUCTS) == size


class TestHeaders:
    def test_chat_headers(self):
        h = ChatEvent(author="a", text="hi").headers()
        assert h["modality"] == "text"

    def test_image_share_headers(self):
        e = ImageShareAnnounce("img", 64, 64, 1, 16, 999, "d", 5, (7,))
        h = e.headers()
        assert h == {
            "modality": "image",
            "image_id": "img",
            "n_packets": 16,
            "size_bits": 999,
        }

    def test_sketch_headers_expose_size(self):
        e = SketchShareEvent(ref_id="x", encoded=b"12345")
        assert e.headers()["size_bytes"] == 5

    def test_whiteboard_headers(self):
        e = WhiteboardEvent(object_id="o", op="move")
        assert e.headers()["op"] == "move"


class TestPropertyRoundtrips:
    @given(st.text(max_size=50), st.text(max_size=500))
    def test_chat_property(self, author, text):
        e = ChatEvent(author=author, text=text)
        assert decode_event("chat", e.to_body()) == e

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=64), max_size=20))
    def test_whiteboard_points_property(self, points):
        e = WhiteboardEvent(object_id="o", points=tuple(points))
        assert decode_event("whiteboard", e.to_body()) == e

    @given(st.binary(max_size=1000), st.integers(0, 65535))
    def test_image_packet_property(self, payload, idx):
        e = ImagePacketEvent("id", idx, 65536, payload)
        assert decode_event("image-packet", e.to_body()) == e

    @given(st.lists(st.tuples(st.text(max_size=10), st.text(max_size=10)), max_size=6))
    def test_profile_update_property(self, changes):
        e = ProfileUpdateEvent(client_id="c", changes=tuple(changes))
        assert decode_event("profile-update", e.to_body()) == e
