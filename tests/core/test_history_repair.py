"""Tests for session-history replay and NACK-based image repair."""

import pytest

from repro.core.events import HistoryRequest, ImageRepairRequest, decode_event
from repro.core.framework import CollaborationFramework
from repro.media.images import collaboration_scene


@pytest.fixture
def fw():
    return CollaborationFramework("htest", objective="history test")


class TestEventCodecs:
    def test_history_request_roundtrip(self):
        e = HistoryRequest(client_id="late", since=12.5, kinds=("chat", "whiteboard"))
        assert decode_event(e.kind, e.to_body()) == e

    def test_repair_request_roundtrip(self):
        e = ImageRepairRequest(client_id="c", image_id="img", packet_indices=(3, 7, 11))
        assert decode_event(e.kind, e.to_body()) == e


class TestHistoryReplay:
    def test_late_joiner_catches_up(self, fw):
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.5)
        a.send_chat("early message 1")
        b.send_chat("early message 2")
        a.draw("s1", (1.0, 2.0))
        fw.run_for(0.5)

        carol = fw.add_wired_client("carol")
        carol.join()
        fw.run_for(0.5)
        assert carol.chat.transcript == []  # missed everything

        carol.request_history()
        fw.run_for(1.0)
        assert "alice: early message 1" in carol.chat.transcript
        assert "bob: early message 2" in carol.chat.transcript
        assert carol.whiteboard.objects() == {"s1": [1.0, 2.0]}

    def test_replay_is_addressed_to_requester_only(self, fw):
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.5)
        a.send_chat("one")
        fw.run_for(0.5)
        bob_lines = len(b.chat.transcript)
        carol = fw.add_wired_client("carol")
        carol.join()
        fw.run_for(0.2)
        carol.request_history()
        fw.run_for(1.0)
        assert len(b.chat.transcript) == bob_lines  # bob saw no duplicates

    def test_kind_filter(self, fw):
        a = fw.add_wired_client("alice")
        a.join()
        b = fw.add_wired_client("bob")
        b.join()
        fw.run_for(0.5)
        a.send_chat("chatline")
        a.draw("s1", (9.0,))
        fw.run_for(0.5)
        carol = fw.add_wired_client("carol")
        carol.join()
        fw.run_for(0.2)
        carol.request_history(kinds=("whiteboard",))
        fw.run_for(1.0)
        assert carol.chat.transcript == []
        assert "s1" in carol.whiteboard.objects()

    def test_since_filter(self, fw):
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.5)
        a.send_chat("old")
        fw.run_for(2.0)
        cutoff = fw.now
        a.send_chat("new")
        fw.run_for(0.5)
        carol = fw.add_wired_client("carol")
        carol.join()
        fw.run_for(0.2)
        carol.request_history(since=cutoff)
        fw.run_for(1.0)
        assert any("new" in l for l in carol.chat.transcript)
        assert not any("old" in l for l in carol.chat.transcript)

    def test_non_serving_peer_stays_silent(self, fw):
        a = fw.add_wired_client("alice")
        a.serve_history = False
        a.join()
        fw.run_for(0.2)
        a.send_chat("unarchived for others")
        fw.run_for(0.5)
        carol = fw.add_wired_client("carol")
        carol.join()
        fw.run_for(0.2)
        carol.request_history()
        fw.run_for(1.0)
        assert carol.chat.transcript == []


class TestImageRepair:
    def test_missing_packets_repaired(self, fw):
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.5)
        img = collaboration_scene(64, 64)
        a.share_image("map", img)
        fw.run_for(2.0)
        view = b.viewer.viewed["map"]
        # simulate loss: drop two mid-stream packets from the assembly
        del view.assembly._packets[5]
        del view.assembly._packets[9]
        assert view.assembly.usable_prefix == 5

        missing = b.request_image_repair("map")
        assert missing == (5, 9)
        fw.run_for(1.0)
        assert view.assembly.usable_prefix == 16

    def test_no_request_when_complete(self, fw):
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.5)
        a.share_image("map", collaboration_scene(64, 64))
        fw.run_for(2.0)
        assert b.request_image_repair("map") == ()

    def test_repair_respects_budget(self, fw):
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.5)
        b.viewer.set_packet_budget(4)
        a.share_image("map", collaboration_scene(64, 64))
        fw.run_for(2.0)
        view = b.viewer.viewed["map"]
        del view.assembly._packets[2]
        missing = b.request_image_repair("map")
        assert missing == (2,)  # only within the 4-packet budget
        fw.run_for(1.0)
        assert view.assembly.usable_prefix == 4

    def test_unknown_image_noop(self, fw):
        b = fw.add_wired_client("bob")
        assert b.request_image_repair("ghost") == ()

    def test_repair_unicast_semantics(self, fw):
        """Only the requester receives the repair packets."""
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        c = fw.add_wired_client("carol")
        for x in (a, b, c):
            x.join()
        fw.run_for(0.5)
        a.share_image("map", collaboration_scene(64, 64))
        fw.run_for(2.0)
        carol_offered = c.viewer.viewed["map"].packets_offered
        view = b.viewer.viewed["map"]
        del view.assembly._packets[3]
        b.request_image_repair("map")
        fw.run_for(1.0)
        assert c.viewer.viewed["map"].packets_offered == carol_offered


class TestHostileRequesterIds:
    """``request.client_id`` is wire input: it is quoted, never spliced."""

    @pytest.fixture
    def session(self, fw):
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        m = fw.add_wired_client("mallory")
        for x in (a, b, m):
            x.join()
        fw.run_for(0.5)
        a.send_chat("secret")
        fw.run_for(0.5)
        return fw, a, b, m

    def test_selector_injection_does_not_widen_the_replay_audience(self, session):
        fw, a, b, m = session
        bob_lines = len(b.chat.transcript)
        m._publish_event(HistoryRequest(client_id="x' or role == 'participant"))
        fw.run_for(1.0)  # nobody is called that: the replay reaches no one
        assert len(b.chat.transcript) == bob_lines
        assert m.chat.transcript == ["alice: secret"]

    def test_quote_in_id_no_longer_kills_the_event_loop(self, session):
        fw, a, b, m = session
        m._publish_event(HistoryRequest(client_id="bo'b"))
        fw.run_for(1.0)  # raised SelectorError out of the scheduler before
        assert a.endpoint.decode_failures == b.endpoint.decode_failures == 0

    def test_unquotable_id_is_dropped_and_counted(self, session):
        fw, a, b, m = session
        m._publish_event(HistoryRequest(client_id="""b'o"b"""))
        m._publish_event(
            ImageRepairRequest(client_id="""b'o"b""", image_id="map", packet_indices=(0,))
        )
        fw.run_for(1.0)
        assert a.endpoint.decode_failures == 1  # history only: alice shared no image
        a.share_image("map", collaboration_scene(64, 64))
        fw.run_for(2.0)
        m._publish_event(
            ImageRepairRequest(client_id="""b'o"b""", image_id="map", packet_indices=(0,))
        )
        fw.run_for(1.0)
        assert a.endpoint.decode_failures == 2

    def test_unencodable_reaction_is_counted_not_raised(self, session):
        fw, a, b, m = session
        from repro.messaging.serialization import WireError

        def refuse(message):
            raise WireError("unencodable header value")

        a.lock_coordinator = True
        a.endpoint.publish = refuse  # the grant announcement cannot be sent
        m.request_lock("s1")
        fw.run_for(1.0)
        assert a.endpoint.decode_failures == 1
