"""Tests for semantic messages and the wire codec."""

import pytest
from hypothesis import given, strategies as st

from repro.core.selectors import Selector
from repro.messaging.message import MessageId, SemanticMessage, next_message_id
from repro.messaging.serialization import WireError, _zigzag, decode_message, encode_message


class TestMessage:
    def test_create_mints_unique_ids(self):
        a = SemanticMessage.create("alice", "true")
        b = SemanticMessage.create("alice", "true")
        assert a.msg_id != b.msg_id
        assert a.msg_id.sender == "alice"

    def test_effective_headers_injects_kind(self):
        m = SemanticMessage.create("a", "true", headers={"x": 1}, kind="chat")
        eff = m.effective_headers()
        assert eff["kind"] == "chat"
        assert eff["x"] == 1

    def test_explicit_kind_header_wins(self):
        m = SemanticMessage.create("a", "true", headers={"kind": "custom"}, kind="chat")
        assert m.effective_headers()["kind"] == "custom"

    def test_selector_string_compiled(self):
        m = SemanticMessage.create("a", "role == 'medic'")
        assert isinstance(m.selector, Selector)

    def test_size(self):
        m = SemanticMessage.create("a", "true", body=b"12345")
        assert len(m.body) == 5

    def test_message_id_ordering(self):
        assert MessageId("a", 1) < MessageId("a", 2)
        assert str(MessageId("a", 3)) == "a#3"


header_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.lists(
        st.one_of(st.integers(-1000, 1000), st.text(max_size=10), st.booleans()),
        max_size=5,
    ),
)


class TestWireCodec:
    def test_roundtrip_simple(self):
        m = SemanticMessage.create(
            "alice",
            "role == 'medic' and battery >= 20",
            headers={"modality": "image", "size_kb": 120, "urgent": True},
            body=b"\x00\x01\xffpayload",
            kind="image-share",
        )
        rt = decode_message(encode_message(m))
        assert rt.msg_id == m.msg_id
        assert rt.kind == m.kind
        assert rt.sender == m.sender
        assert rt.selector.text == m.selector.text
        assert rt.headers == m.headers
        assert rt.body == m.body

    @given(st.dictionaries(st.text(min_size=1, max_size=20), header_values, max_size=8),
           st.binary(max_size=500))
    def test_roundtrip_property(self, headers, body):
        m = SemanticMessage.create("s", "true", headers=headers, body=body)
        rt = decode_message(encode_message(m))
        assert rt.headers == m.headers
        assert rt.body == body

    def test_deterministic_encoding(self):
        """Same logical message -> identical wire bytes (header order)."""
        a = SemanticMessage(MessageId("s", 1), Selector("true"), {"b": 1, "a": 2})
        b = SemanticMessage(MessageId("s", 1), Selector("true"), {"a": 2, "b": 1})
        assert encode_message(a) == encode_message(b)

    def test_bad_magic_rejected(self):
        with pytest.raises(WireError):
            decode_message(b"XXjunk")

    def test_bad_version_rejected(self):
        m = encode_message(SemanticMessage.create("s", "true"))
        corrupted = m[:2] + bytes([99]) + m[3:]
        with pytest.raises(WireError):
            decode_message(corrupted)

    def test_overlong_varint_rejected(self):
        # the id length's varint runs ten continuation bytes: past 64 bits
        with pytest.raises(WireError, match="varint too long"):
            decode_message(b"SM\x01" + b"\x80" * 10 + b"\x01")

    def test_truncated_body_rejected(self):
        m = encode_message(SemanticMessage.create("s", "true", body=b"x" * 100))
        with pytest.raises(WireError):
            decode_message(m[:-10])

    def test_unicode_content(self):
        m = SemanticMessage.create("sénder", "true", headers={"note": "héllo wörld"})
        rt = decode_message(encode_message(m))
        assert rt.sender == "sénder"
        assert rt.headers["note"] == "héllo wörld"

    def test_nested_list_rejected_at_encode(self):
        m = SemanticMessage(
            MessageId("s", 1), Selector("true"), {"bad": [[1, 2]]}
        )
        with pytest.raises(WireError):
            encode_message(m)


class TestIntegerRange:
    """A header integer arrives as itself, or is refused at publish."""

    @given(st.integers(-(2**80), 2**80))
    def test_round_trips_or_is_refused_at_encode(self, value):
        m = SemanticMessage.create("s", "true", headers={"n": value, "l": [value]})
        try:
            data = encode_message(m)
        except WireError:
            assert not -(2**69) <= value < 2**69
            return
        assert -(2**69) <= value < 2**69
        assert decode_message(data).headers == {"n": value, "l": [value]}

    @pytest.mark.parametrize("value", [-(2**63) - 1, -(2**64), 2**69 - 1, -(2**69)])
    def test_values_past_int64_arrive_unchanged(self, value):
        m = SemanticMessage.create("s", "true", headers={"n": value})
        assert decode_message(encode_message(m)).headers["n"] == value

    @pytest.mark.parametrize("value", [2**69, -(2**69) - 1, 2**80, -(2**80)])
    def test_values_no_receiver_could_read_are_refused(self, value):
        with pytest.raises(WireError, match="outside"):
            encode_message(SemanticMessage.create("s", "true", headers={"n": value}))

    @given(st.integers(-(2**63), 2**69 - 1))
    def test_bytes_are_unchanged_where_the_64_bit_zigzag_was_right(self, value):
        assert _zigzag(value) == ((value << 1) ^ (value >> 63) if value < 0 else value << 1)
