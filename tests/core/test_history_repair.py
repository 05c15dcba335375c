"""Tests for session-history replay, the one way a peer gets back what it missed."""

import pytest

from repro.core.events import HistoryRequest, decode_event
from repro.core.framework import CollaborationFramework
from repro.media.images import collaboration_scene


@pytest.fixture
def fw():
    return CollaborationFramework("htest", objective="history test")


class TestEventCodecs:
    def test_history_request_roundtrip(self):
        e = HistoryRequest(client_id="late", since=12.5, kinds=("chat", "whiteboard"))
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

    def test_late_joiner_gets_each_message_once_from_three_archivists(self, fw):
        peers = [fw.add_wired_client(n) for n in ("alice", "bob", "carol")]
        for x in peers:
            x.join()
        fw.run_for(0.5)
        peers[0].send_chat("hi")
        peers[0].share_image("map", collaboration_scene(64, 64))
        fw.run_for(2.0)
        dave = fw.add_wired_client("dave")
        dave.join()
        fw.run_for(0.5)
        dave.request_history()  # all three peers archive and answer
        fw.run_for(2.0)
        assert dave.chat.transcript == ["alice: hi"]
        view = dave.viewer.viewed["map"]
        assert view.packets_accepted == view.assembly.received == 16
        # own join and request, then chat + announce + 16 packets, once each
        assert len(dave.archive) == 20

    def test_peer_that_heard_it_live_drops_the_replay(self, fw):
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.5)
        a.send_chat("hi")
        a.draw("s1", (1.0, 2.0))
        fw.run_for(0.5)
        assert b.chat.transcript == ["alice: hi"]
        b.request_history()
        fw.run_for(1.0)
        assert b.chat.transcript == ["alice: hi"]
        assert b.whiteboard.arbiter.total_conflicts == 0


def lose_the_share(fw, receiver, image_id="map"):
    """Share an image from alice while ``receiver``'s access link drops everything."""
    link = fw.network.link(receiver.name, "lan-switch")
    link.loss = 1.0
    fw.wired_clients["alice"].share_image(image_id, collaboration_scene(64, 64))
    fw.run_for(2.0)
    link.loss = 0.0
    assert image_id not in receiver.viewer.viewed


class TestImageRepair:
    """Image packets lost on the wire come back with the session history."""

    def test_missing_packets_repaired(self, fw):
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.5)
        lose_the_share(fw, b)
        b.request_history()
        fw.run_for(1.0)
        view = b.viewer.viewed["map"]
        assert view.assembly.usable_prefix == 16 and view.packets_offered == 16

    def test_repair_respects_budget(self, fw):
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        a.join()
        b.join()
        fw.run_for(0.5)
        b.viewer.set_packet_budget(4)
        lose_the_share(fw, b)
        b.request_history()
        fw.run_for(1.0)
        assert b.viewer.viewed["map"].assembly.usable_prefix == 4  # only within the 4-packet budget

    def test_repair_unicast_semantics(self, fw):
        """Only the requester receives the replayed packets."""
        a = fw.add_wired_client("alice")
        b = fw.add_wired_client("bob")
        c = fw.add_wired_client("carol")
        for x in (a, b, c):
            x.join()
        fw.run_for(0.5)
        lose_the_share(fw, b)
        carol_offered = c.viewer.viewed["map"].packets_offered
        b.request_history()
        fw.run_for(1.0)
        assert b.viewer.viewed["map"].assembly.usable_prefix == 16
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
        fw.run_for(1.0)
        assert a.endpoint.decode_failures == b.endpoint.decode_failures == 1

    def test_unencodable_reaction_is_counted_not_raised(self, session):
        fw, a, b, m = session
        from repro.messaging.serialization import WireError

        def refuse(messages):
            raise WireError("unencodable header value")

        a.endpoint.publish_many = refuse  # the history replay cannot be sent
        m.request_history()
        fw.run_for(1.0)
        assert a.endpoint.decode_failures == 1
