"""Decode-safety hardening suite.

Every hand-rolled decoder in the repo must turn malformed wire bytes —
truncations, bit flips, invalid UTF-8, hostile nesting — into its
*declared* error class (``EventError``, ``ImagePacketError``,
``WireError``, ``BerError``), never an uncaught ``IndexError`` /
``struct.error`` / ``UnicodeDecodeError`` / ``RecursionError``; and the
dispatch layers must count those failures and keep running.
"""

import dataclasses
import random
import struct
import warnings

import numpy as np
import pytest

from repro.analysis.diagnostics import DiagnosticWarning
from repro.analysis.wirefuzz import default_registry
from repro.apps.imageviewer import ImageViewer
from repro.core.basestation import MIN_POWER
from repro.core.events import (
    ChatEvent,
    EventError,
    ImagePacketEvent,
    ImageShareAnnounce,
    PowerControlRequest,
    ProfileUpdateEvent,
    decode_event,
)
from repro.core.framework import CollaborationFramework
from repro.core.wireless_client import reportable
from repro.core.matching import Decision, MatchResult
from repro.core.selectors import Selector
from repro.media.images import collaboration_scene
from repro.media.progressive import ImagePacket, ImagePacketError
from repro.messaging.broker import Delivery
from repro.messaging.message import MessageId, SemanticMessage, next_message_id
from repro.messaging.rtp import RtpPacket
from repro.messaging.serialization import WireError, decode_message, encode_message
from repro.messaging.transport import SemanticWire
from repro.network.udp import DatagramSocket
from repro.snmp.ber import BerError, Integer, Sequence, decode, encode

EVENT_PAIRS = [p for p in default_registry() if p.name.startswith("events.")]


class TestEventBodies:
    @pytest.mark.parametrize("pair", EVENT_PAIRS, ids=[p.name for p in EVENT_PAIRS])
    def test_truncation_at_every_offset_raises_event_error(self, pair):
        body = pair.encode(pair.sample(random.Random(7)))
        for cut in range(len(body)):
            try:
                pair.decode(body[:cut])
            except EventError:
                pass  # the declared failure mode

    def test_invalid_utf8_raises_event_error(self):
        body = ChatEvent(author="a", text="é").to_body()
        assert body.endswith(b"\xc3\xa9")
        mangled = body[:-2] + b"\xff\xff"  # same length, invalid UTF-8
        with pytest.raises(EventError):
            decode_event("chat", mangled)

    def test_unknown_kind_raises_event_error(self):
        with pytest.raises(EventError):
            decode_event("no-such-kind", b"")


class TestImagePackets:
    def test_truncation_at_every_offset_raises_image_packet_error(self):
        pkt = ImagePacket(index=1, total=4, chunks=((b"abcdef", 48), (b"xyz", 24)))
        raw = pkt.to_bytes()
        for cut in range(len(raw)):
            try:
                ImagePacket.from_bytes(raw[:cut])
            except ImagePacketError:
                pass

    def test_oversized_chunk_length_raises(self):
        pkt = ImagePacket(index=0, total=1, chunks=((b"ab", 16),))
        raw = bytearray(pkt.to_bytes())
        # chunk header is (bits u32, len u32) at offset 5; the length
        # field at offset 9 claims more bytes than exist
        struct.pack_into(">I", raw, 9, 10_000)
        with pytest.raises(ImagePacketError):
            ImagePacket.from_bytes(bytes(raw))


    def test_more_bits_than_bytes_raises(self):
        raw = bytearray(ImagePacket(index=0, total=1, chunks=((b"ab", 16),)).to_bytes())
        struct.pack_into(">I", raw, 5, 17)  # the bits field: 17 bits in 2 bytes
        with pytest.raises(ImagePacketError):
            ImagePacket.from_bytes(bytes(raw))

    def test_bytes_after_the_last_chunk_raise(self):
        raw = ImagePacket(index=0, total=1, chunks=((b"ab", 16),)).to_bytes()
        with pytest.raises(ImagePacketError):
            ImagePacket.from_bytes(raw + b"\x00")


class TestHostileImageShares:
    """Image events that decode as events but that the viewer must refuse:
    each is one counted drop at every peer, the scheduler keeps running,
    and a later well-formed share still reconstructs."""

    #: announce fields no pyramid, packet count or float threshold exists for
    BAD_GEOMETRY = [
        dict(levels=0),
        dict(levels=-1, description="negative depth"),
        dict(height=63, width=63),
        dict(height=0),
        dict(t0_exps=(5000,)),
        dict(t0_exps=(3, 3), channels=1),
        dict(n_packets=0),
    ]

    @pytest.fixture
    def session(self):
        fw = CollaborationFramework("t", objective="hostile image shares", seed=0)
        alice, bob = fw.add_wired_client("alice"), fw.add_wired_client("bob")
        bs = fw.add_base_station("bs")
        alice.join()
        bob.join()
        fw.run_for(0.5)
        return fw, alice, bob, bs

    @staticmethod
    def _share_and_check(fw, alice, bob, image_id):
        image = collaboration_scene(32, 32, seed=4)
        alice.share_image(image_id, image)
        fw.run_for(0.5)
        want = alice.viewer.shared[image_id].reconstruct(16)
        np.testing.assert_array_equal(bob.viewer.reconstruct(image_id), want)

    @pytest.mark.parametrize(
        "payload",
        [
            b"\x00\x01",  # shorter than a packet header
            ImagePacket(0, 4, ((b"ab", 16),)).to_bytes(),  # advertises another packet count
            ImagePacket(16, 16, ((b"ab", 16),)).to_bytes(),  # index out of range
            ImagePacket(0, 16, ((b"ab", 16), (b"cd", 16))).to_bytes(),  # a chunk too many
        ],
        ids=["short-header", "other-total", "index-out-of-range", "extra-chunk"],
    )
    def test_malformed_packet_of_an_announced_image_is_counted_and_dropped(self, session, payload):
        fw, alice, bob, bs = session
        self._share_and_check(fw, alice, bob, "img-1")
        before = bob.endpoint.wire.decode_failures, bs.endpoint.wire.decode_failures
        alice._publish_event(ImagePacketEvent(image_id="img-1", packet_index=0, packet_total=16, payload=payload))
        fw.run_for(0.5)  # raised ImagePacketError out of the scheduler before
        assert bob.endpoint.wire.decode_failures == before[0] + 1
        assert bs.endpoint.wire.decode_failures == before[1] + 1
        self._share_and_check(fw, alice, bob, "img-2")

    def test_a_payload_that_is_not_its_events_packet_is_counted_and_dropped(self, session):
        # the budget gate reads the event's index, the assembly filed the
        # payload's own: packet 15 rode in under index 0
        fw, alice, bob, bs = session
        announce, packets = ImageViewer("mallory").share("img-x", collaboration_scene(32, 32, seed=4))
        alice._publish_event(announce)
        fw.run_for(0.5)
        before = bob.endpoint.wire.decode_failures, bs.endpoint.wire.decode_failures
        alice._publish_event(dataclasses.replace(packets[0], payload=packets[15].payload))
        fw.run_for(0.5)
        assert bob.endpoint.wire.decode_failures == before[0] + 1
        assert bs.endpoint.wire.decode_failures == before[1] + 1
        assert bob.viewer.viewed["img-x"].assembly.received == bs.viewer.viewed["img-x"].assembly.received == 0
        self._share_and_check(fw, alice, bob, "img-2")

    @pytest.mark.parametrize("fields", BAD_GEOMETRY, ids=[",".join(f) for f in BAD_GEOMETRY])
    def test_announce_with_impossible_geometry_is_counted_and_dropped(self, session, fields):
        self._announce_is_counted_and_dropped(session, fields)

    @pytest.mark.parametrize(
        "fields",
        [dict(levels=2**31 - 1), dict(height=8192, width=8192, levels=1)],
        ids=["huge-depth", "huge-area"],
    )
    def test_announce_too_large_to_assemble_is_counted_and_dropped(self, session, fields):
        # the depth built a 256 MiB integer at every peer before it was
        # refused; the area was accepted, and one packet then made the base
        # station reconstruct 64 Mpixel
        self._announce_is_counted_and_dropped(session, fields)

    def _announce_is_counted_and_dropped(self, session, fields):
        fw, alice, bob, bs = session
        good = dict(image_id="evil", height=32, width=32, channels=1, n_packets=16, levels=4, t0_exps=(11,))
        before = bob.endpoint.wire.decode_failures, bs.endpoint.wire.decode_failures
        alice._publish_event(ImageShareAnnounce(**{**good, **fields}))
        fw.run_for(0.5)
        assert bob.endpoint.wire.decode_failures == before[0] + 1
        assert bs.endpoint.wire.decode_failures == before[1] + 1
        assert "evil" not in bob.viewer.viewed and "evil" not in bs.viewer.viewed
        self._share_and_check(fw, alice, bob, "img-after")

    def test_malformed_uplink_packet_is_counted_at_the_radio_side(self, session):
        fw, alice, bob, bs = session
        mobile = fw.add_wireless_client("mob", bs, distance=20.0)
        bs.evaluate_qos()
        bad = ImagePacketEvent(image_id="up", packet_index=0, packet_total=16, payload=b"\x00\x01")
        announce = ImageShareAnnounce(
            image_id="up", height=32, width=32, channels=1, n_packets=16, levels=4, t0_exps=(11,)
        )
        for event in (announce, bad, ChatEvent(author="mob", text="still here")):
            mobile.send_event(event)
        fw.run_for(0.5)
        assert bs.radio.wire.decode_failures == 1
        assert any(isinstance(e, ChatEvent) and e.text == "still here" for _, e in bob.events_received)


class TestRadioControlInputs:
    """Channel reports and power requests arrive as strings and floats over
    the radio: one that names no real distance, power or battery is one
    counted drop, and changes nothing in the cell."""

    @pytest.fixture
    def cell(self):
        fw = CollaborationFramework("t", objective="radio control inputs", seed=0)
        bs = fw.add_base_station("bs")
        m1 = fw.add_wireless_client("m1", bs, distance=40.0)
        m2 = fw.add_wireless_client("m2", bs, distance=60.0)
        fw.run_for(0.5)
        return fw, bs, m1, m2

    @pytest.mark.parametrize(
        "changes",
        [
            (("distance", "abc"),),
            (("distance", "0"),),
            (("distance", "-5"),),
            (("distance", "nan"),),
            (("tx_power", "inf"),),
            (("tx_power", "0"),),
            (("battery", "-1"),),
            (("battery", "nan"),),
            (("distance", "30"), ("modality", "speech"), ("tx_power", "nan")),
        ],
        ids=lambda c: ",".join(f"{k}={v}" for k, v in c),
    )
    def test_bad_channel_report_is_counted_and_changes_nothing(self, cell, changes):
        fw, bs, m1, m2 = cell
        before = bs.evaluate_qos()
        state = [(a.distance, a.tx_power, a.battery, a.profile_attrs.snapshot()) for a in bs.attachments.values()]
        failures = bs.radio.wire.decode_failures
        m1.send_event(ProfileUpdateEvent(client_id="m1", changes=changes))
        fw.run_for(0.5)  # "abc" raised ValueError out of the scheduler before
        assert bs.radio.wire.decode_failures == failures + 1
        assert [(a.distance, a.tx_power, a.battery, a.profile_attrs.snapshot()) for a in bs.attachments.values()] == state
        after = bs.evaluate_qos()
        assert (after.sir_db, after.tiers) == (before.sir_db, before.tiers)

    def test_good_channel_report_still_applies(self, cell):
        fw, bs, m1, _ = cell
        m1.send_event(ProfileUpdateEvent(client_id="m1", changes=(("distance", "30"), ("battery", "0"))))
        fw.run_for(0.5)
        assert (bs.attachments["m1"].distance, bs.attachments["m1"].battery) == (30.0, 0.0)
        assert bs.radio.wire.decode_failures == 0

    @pytest.mark.parametrize("power", [-1.0, 0.0, 1e-7, float("nan"), float("inf")])
    def test_impossible_power_request_is_counted_and_ignored(self, cell, power):
        fw, bs, m1, _ = cell
        request = PowerControlRequest(client_id="m1", new_power=power, reason="hostile")
        bs.radio.send(request.to_message("bs", "true"), m1.link.address)
        fw.run_for(0.5)
        assert m1.link.wire.decode_failures == 1
        assert m1.tx_power == 1.0 and m1.power_requests == 0
        assert bs.attachments["m1"].tx_power == 1.0

    def test_legitimate_power_request_still_applies(self, cell):
        fw, bs, m1, _ = cell
        bs.radio.send(PowerControlRequest(client_id="m1", new_power=0.25).to_message("bs", "true"), m1.link.address)
        fw.run_for(0.5)
        assert m1.tx_power == bs.attachments["m1"].tx_power == 0.25
        assert m1.link.wire.decode_failures == 0

    def test_mobile_holds_only_values_its_report_carries(self, cell):
        # reports give six decimals: 1e-7 would reach the BS as "0.000000"
        # and the whole report would be dropped as hostile
        fw, bs, m1, _ = cell
        with pytest.raises(ValueError):
            m1.set_power(1e-7)
        with pytest.raises(ValueError):
            m1.move_to(4e-7)
        with pytest.raises(ValueError):
            fw.add_wireless_client("m3", bs, tx_power=1e-7)
        assert reportable(MIN_POWER)  # the least power the BS ever asks for
        m1.set_power(1e-6)
        m1.move_to(1e-6)
        fw.run_for(0.5)
        att = bs.attachments["m1"]
        assert (att.tx_power, att.distance) == (m1.tx_power, m1.distance) == (1e-6, 1e-6)
        assert bs.radio.wire.decode_failures == 0


class TestSemanticMessages:
    @staticmethod
    def _message(selector_text="load < 50"):
        return SemanticMessage(
            MessageId("ali", 1),
            Selector(selector_text),
            {"k": "v"},
            body=b"hello",
            kind="chat",
            sender="ali",
        )

    def test_unparseable_selector_raises_wire_error(self):
        raw = encode_message(self._message())
        bad = raw.replace(b"load < 50", b"load <<< 0")
        with pytest.raises(WireError):
            decode_message(bad)

    def test_truncation_at_every_offset_raises_wire_error(self):
        raw = encode_message(self._message())
        for cut in range(len(raw)):
            try:
                decode_message(raw[:cut])
            except WireError:
                pass


def _ber_len(n: int) -> bytes:
    if n < 0x80:
        return bytes([n])
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


class TestBer:
    def test_hostile_nesting_raises_ber_error_not_recursion(self):
        blob = encode(Integer(1))
        for _ in range(200):  # 200 nested SEQUENCEs; the depth cap is 32
            blob = b"\x30" + _ber_len(len(blob)) + blob
        with pytest.raises(BerError):
            decode(blob)

    def test_legitimate_nesting_still_decodes(self):
        value = Sequence((Integer(1), Sequence((Integer(2),))))
        decoded, used = decode(encode(value))
        assert decoded == value and used > 0


class TestDispatchCounters:
    """A malformed delivery increments the counter; the loop keeps going."""

    @pytest.fixture
    def client(self):
        fw = CollaborationFramework("t", objective="decode hardening", seed=0)
        client = fw.add_wired_client("alice")
        client.join()
        fw.run_for(0.5)
        return client

    @staticmethod
    def _delivery(body):
        # a fresh id each: a client drops an id its archive already holds
        msg = SemanticMessage(
            next_message_id("mallory"),
            Selector("true"),
            {},
            body=body,
            kind="chat",
            sender="mallory",
        )
        return Delivery(message=msg, result=MatchResult(decision=Decision.ACCEPT))

    def test_client_counts_and_survives(self, client):
        before = client.endpoint.decode_failures
        client._on_delivery(self._delivery(b"\x00"))
        assert client.endpoint.decode_failures == before + 1
        # the dispatch loop is still alive: a well-formed event lands
        ok = ChatEvent(author="bob", text="still here")
        client._on_delivery(self._delivery(ok.to_body()))
        assert any(
            isinstance(e, ChatEvent) and e.text == "still here"
            for _, e in client.events_received
        )

    def test_undecodable_body_leaves_its_id_for_an_intact_copy(self, client):
        # a damaged copy, then the intact one under the same id (as a
        # history replay brings it): the intact copy lands and is archived
        intact = ChatEvent(author="bob", text="hello").to_message("bob", "true")
        damaged = dataclasses.replace(intact, body=b"\xff\xff\xff\xff")
        before = client.endpoint.decode_failures
        client._on_delivery(Delivery(message=damaged, result=MatchResult(decision=Decision.ACCEPT)))
        assert client.endpoint.decode_failures == before + 1
        assert intact.msg_id not in client.archive
        for _ in range(2):  # the second is a duplicate: dropped before decoding
            client._on_delivery(Delivery(message=intact, result=MatchResult(decision=Decision.ACCEPT)))
        assert [e.text for _, e in client.events_received if isinstance(e, ChatEvent)] == ["hello"]
        assert [m for _, m in client.archive.replay() if m.msg_id == intact.msg_id] == [intact]
        assert client.endpoint.decode_failures == before + 1

    @pytest.mark.parametrize(
        "kind, body",
        [
            # the body layouts the session-lock and image-repair events
            # had: a peer on an older build may still send them
            ("lock-request", b"\x00\x00\x00\x03bob\x00\x00\x00\x02s1"),
            ("lock-release", b"\x00\x00\x00\x03bob\x00\x00\x00\x02s1"),
            ("lock-grant", b"\x00\x00\x00\x03bob\x00\x00\x00\x02s1\x01"),
            ("image-repair", b"\x00\x00\x00\x03bob\x00\x00\x00\x03map\x00\x00\x00\x01\x00\x00\x00\x05"),
        ],
        ids=["lock-request", "lock-release", "lock-grant", "image-repair"],
    )
    def test_retired_lock_kinds_are_counted_and_dropped(self, kind, body):
        fw = CollaborationFramework("t", objective="decode hardening", seed=0)
        alice = fw.add_wired_client("alice")
        bob = fw.add_wired_client("bob")
        for c in (alice, bob):
            c.join()
        fw.run_for(0.5)
        before = alice.endpoint.decode_failures, len(alice.events_received)
        chat = ChatEvent(author="bob", text="x").to_message("bob", bob.session.selector_text())
        bob.endpoint.publish(dataclasses.replace(chat, kind=kind, body=body))
        fw.run_for(0.5)  # must not raise out of the scheduler
        assert alice.endpoint.decode_failures == before[0] + 1
        assert len(alice.events_received) == before[1]
        bob.send_chat("still here")
        fw.run_for(0.5)
        assert alice.chat.transcript[-1] == "bob: still here"

    def test_wireless_client_counts_and_survives(self):
        # a corrupt event body arriving over the radio leg (BS -> mobile)
        fw = CollaborationFramework("t", objective="decode hardening", seed=0)
        bs = fw.add_base_station("bs")
        mobile = fw.add_wireless_client("mob", bs)
        corrupt = self._delivery(b"\x00").message
        ok = self._delivery(ChatEvent(author="bob", text="still here").to_body()).message
        for msg in (corrupt, ok):
            bs.radio.send(msg, mobile.link.address)
        fw.run_for(0.5)  # raised AttributeError out of the scheduler before
        assert mobile.link.decode_failures == 1
        assert [e.text for _, e in mobile.received_events] == ["still here"]


class TestOneWireStack:
    """Wired endpoint, mobile link and the base station's radio side run
    the same wire stack: the same hostile datagrams get the same counted
    drops and the same warnings on each, and traffic goes on."""

    #: (datagram, what its drop is reported as — None: accepted)
    HOSTILE = [
        (RtpPacket(9, 1, 0, 1, 0, b"payload").encode()[:10], "an undecodable RTP fragment"),
        (RtpPacket(9, 2, 0, 1, 1, b"\xffnot a message").encode(), "an undecodable message payload"),
        (RtpPacket(9, 3, 0, 3, 2, b"a").encode(), None),
        (RtpPacket(9, 3, 1, 4, 3, b"b").encode(), "an undecodable RTP fragment"),  # frag_count moved
    ]

    @pytest.fixture
    def deployment(self):
        fw = CollaborationFramework("t", objective="one wire stack", seed=0)
        alice = fw.add_wired_client("alice")
        bs = fw.add_base_station("bs")
        mobile = fw.add_wireless_client("mob", bs)
        alice.join()
        fw.run_for(0.5)
        bs.evaluate_qos()
        return fw, alice, bs, mobile

    @staticmethod
    def _chats(events):
        return [e.text for _, e in events if isinstance(e, ChatEvent)]

    @pytest.mark.parametrize("attachment", ["wired endpoint", "mobile link", "bs radio side"])
    def test_same_drops_same_warnings_and_traffic_goes_on(self, deployment, attachment):
        fw, alice, bs, mobile = deployment
        hello = ChatEvent(author="x", text="still here")
        # (the attachment under fire, a peer socket to fire from, its
        # address, a good message through it, where that message lands)
        wire, sock, address, send_good, landed = {
            "wired endpoint": (
                alice.endpoint,
                bs.radio.sock,
                alice.endpoint.address,
                lambda: bs.endpoint.publish(hello.to_message("bs", "true")),
                lambda: self._chats(alice.events_received),
            ),
            "mobile link": (
                mobile.link,
                bs.radio.sock,
                mobile.link.address,
                lambda: bs.radio.send(hello.to_message("bs", "true"), mobile.link.address),
                lambda: self._chats(mobile.received_events),
            ),
            "bs radio side": (
                bs.radio,
                mobile.link.sock,
                bs.wireless_address,
                lambda: mobile.send_event(hello),
                lambda: self._chats(alice.events_received),
            ),
        }[attachment]
        before = wire.decode_failures
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for datagram, _ in self.HOSTILE:
                sock.sendto(datagram, address)
            fw.run_for(0.5)
        expected = [what for _, what in self.HOSTILE if what is not None]
        assert wire.decode_failures == before + len(expected) == before + 3
        assert [str(w.message) for w in caught] == [
            f"endpoint {wire.address[0]}: dropped {what}" for what in expected
        ]
        send_good()
        fw.run_for(0.5)
        assert landed() == ["still here"]


class TestFormerNackDatagrams:
    """``b"RNAK"`` used to open a retransmission request.  The wire has no
    such datagram any more: one is an RTP fragment from source 0x524E414B
    or it is malformed, and either way nothing is sent back."""

    @staticmethod
    def _request(ssrc, msg_seq, indices):
        """The retired layout: magic, (ssrc, msg_seq, n) then n u16 indices."""
        return b"RNAK" + struct.pack(f">IIH{len(indices)}H", ssrc, msg_seq, len(indices), *indices)

    @pytest.mark.parametrize("fill", [b"\x00", b"\xff"], ids=["zeros", "ones"])
    def test_every_length_is_a_counted_warned_drop(self, fill):
        surfaced = []
        wire = SemanticWire(("h", 1), surfaced.append)
        for length in range(33):
            with pytest.warns(DiagnosticWarning, match="undecodable RTP fragment"):
                assert wire.ingest(b"RNAK" + fill * length) is False
            assert wire.decode_failures == length + 1
        assert not surfaced and not wire.reassembler._partial

    def test_a_well_formed_request_is_answered_by_nobody(self):
        fw = CollaborationFramework("t", objective="no fragment repair", seed=0)
        alice, bob = fw.add_wired_client("alice"), fw.add_wired_client("bob")
        for c in (alice, bob):
            c.join()
        alice.send_chat("x" * 4000)  # alice's message 1, several fragments: once repairable
        fw.run_for(0.5)
        heard = []
        probe = DatagramSocket(fw.network, "bob")
        probe.bind_ephemeral()
        probe.on_receive = lambda data, src: heard.append(data)
        sent = alice.endpoint.sent_fragments, fw.network.packets_sent
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # frag_count reads the low half of msg_seq: 1 → "fragment 0 of 1",
            # whose empty payload is no message; 0 and 65536 → no fragment at all
            for msg_seq in (1, 0, 65536):
                probe.sendto(self._request(alice.endpoint.ssrc, msg_seq, (0,)), alice.endpoint.address)
            fw.run_for(1.0)
        assert [str(w.message).split("dropped ")[1] for w in caught] == [
            "an undecodable message payload",
            "an undecodable RTP fragment",
            "an undecodable RTP fragment",
        ]
        assert alice.endpoint.decode_failures == 3
        assert not heard
        assert (alice.endpoint.sent_fragments, fw.network.packets_sent) == (sent[0], sent[1] + 3)
