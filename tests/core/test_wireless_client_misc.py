"""Additional wireless-client behaviour tests."""

import pytest

from repro.core.events import ChatEvent
from repro.core.framework import CollaborationFramework
from repro.core.matching import Decision, interpret


@pytest.fixture
def cell():
    fw = CollaborationFramework("wcm")
    wired = fw.add_wired_client("wired")
    bs = fw.add_base_station("bs")
    w = fw.add_wireless_client("w", bs, distance=50.0, tx_power=1.0)
    wired.join()
    fw.run_for(0.2)
    return fw, wired, bs, w


def test_uplink_is_addressed_to_the_base_station(cell):
    """What a mobile sends up the radio names its base station: the BS's
    own profile accepts it, a wired peer's refuses it."""
    _, wired, bs, w = cell
    sent = []
    send = w.link.send
    w.link.send = lambda message, dest: sent.append(message) or send(message, dest)
    w.send_event(ChatEvent(author="w", text="up"))
    w.report_channel_state()
    assert [m.kind for m in sent] == ["chat", "profile-update"]
    for msg in sent:
        headers = msg.effective_headers()
        assert interpret(msg.selector, headers, bs.profile).decision is Decision.ACCEPT
        assert interpret(msg.selector, headers, wired.profile).decision is Decision.REJECT


class TestChannelReporting:
    def test_move_validation(self, cell):
        _, _, _, w = cell
        with pytest.raises(ValueError):
            w.move_to(0.0)
        with pytest.raises(ValueError):
            w.move_to(-5.0)

    def test_power_validation(self, cell):
        _, _, _, w = cell
        with pytest.raises(ValueError):
            w.set_power(0.0)

    def test_battery_drains_with_sends(self, cell):
        fw, _, _, w = cell
        start = w.battery
        for _ in range(20):
            w.send_event(ChatEvent(author="w", text="ping"))
        assert w.battery < start
        assert w.battery == pytest.approx(start - 20 * 0.05 * w.tx_power)

    def test_battery_never_negative(self, cell):
        fw, _, _, w = cell
        w.battery = 0.01
        for _ in range(10):
            w.send_event(ChatEvent(author="w", text="x"))
        assert w.battery == 0.0

    def test_battery_reported_to_bs(self, cell):
        fw, _, bs, w = cell
        w.battery = 42.0
        w.report_channel_state()
        fw.run_for(0.5)
        assert bs.attachments["w"].battery == pytest.approx(42.0)

    def test_modality_counts_shape(self, cell):
        _, _, _, w = cell
        counts = w.modality_counts()
        assert set(counts) == {"text", "sketch", "image_packets", "announces"}


class TestUplinkEventOrdering:
    def test_multiple_chats_keep_order(self, cell):
        fw, wired, bs, w = cell
        for i in range(5):
            w.send_event(ChatEvent(author="w", text=f"msg {i}"))
        fw.run_for(2.0)
        got = [l for l in wired.chat.transcript if l.startswith("w:")]
        assert got == [f"w: msg {i}" for i in range(5)]

    def test_two_wireless_clients_relay_through_bs(self, cell):
        fw, wired, bs, w = cell
        w2 = fw.add_wireless_client("w2", bs, distance=55.0)
        bs.evaluate_qos()
        w.send_event(ChatEvent(author="w", text="to everyone"))
        fw.run_for(2.0)
        kinds = [type(e).__name__ for _, e in w2.received_events]
        assert "ChatEvent" in kinds
        assert "w: to everyone" in wired.chat.transcript
