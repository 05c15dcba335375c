"""Tests for the BER codec, including hypothesis round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.snmp.ber import (
    BerError,
    Counter32,
    Counter64,
    EndOfMibView,
    Gauge32,
    Integer,
    IpAddress,
    NoSuchInstance,
    NoSuchObject,
    Null,
    ObjectIdentifierValue,
    OctetString,
    Sequence,
    TaggedPdu,
    TimeTicks,
    decode,
    decode_length,
    decode_oid_body,
    encode,
    encode_length,
    encode_oid_body,
)


class TestLength:
    def test_short_form(self):
        assert encode_length(0) == b"\x00"
        assert encode_length(127) == b"\x7f"

    def test_long_form(self):
        assert encode_length(128) == b"\x81\x80"
        assert encode_length(65535) == b"\x82\xff\xff"

    def test_negative_rejected(self):
        with pytest.raises(BerError):
            encode_length(-1)

    def test_indefinite_rejected(self):
        with pytest.raises(BerError):
            decode_length(b"\x80", 0)

    @given(st.integers(min_value=0, max_value=2**24))
    def test_roundtrip(self, n):
        data = encode_length(n)
        value, offset = decode_length(data, 0)
        assert value == n
        assert offset == len(data)


class TestInteger:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, b"\x02\x01\x00"),
            (127, b"\x02\x01\x7f"),
            (128, b"\x02\x02\x00\x80"),
            (-1, b"\x02\x01\xff"),
            (-129, b"\x02\x02\xff\x7f"),
            (256, b"\x02\x02\x01\x00"),
        ],
    )
    def test_known_encodings(self, value, expected):
        assert encode(Integer(value)) == expected

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_roundtrip(self, v):
        decoded, _ = decode(encode(Integer(v)))
        assert decoded == Integer(v)


class TestUnsigned:
    def test_gauge_range_checked(self):
        with pytest.raises(BerError):
            Gauge32(-1)
        with pytest.raises(BerError):
            Gauge32(2**32)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_counter32_roundtrip(self, v):
        decoded, _ = decode(encode(Counter32(v)))
        assert decoded == Counter32(v)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_counter64_roundtrip(self, v):
        decoded, _ = decode(encode(Counter64(v)))
        assert decoded == Counter64(v)

    def test_high_bit_value_gets_pad_octet(self):
        # 0x80000000 must not decode as negative
        decoded, _ = decode(encode(Gauge32(0x80000000)))
        assert decoded.value == 0x80000000

    def test_timeticks_roundtrip(self):
        decoded, _ = decode(encode(TimeTicks(360000)))
        assert decoded == TimeTicks(360000)


class TestOctetString:
    @given(st.binary(max_size=2048))
    def test_roundtrip(self, raw):
        decoded, _ = decode(encode(OctetString(raw)))
        assert decoded == OctetString(raw)

    def test_text_helper(self):
        assert OctetString("héllo".encode()).text() == "héllo"


class TestOid:
    def test_known_encoding(self):
        # 1.3.6.1.2.1 -> 2b 06 01 02 01
        assert encode_oid_body((1, 3, 6, 1, 2, 1)) == b"\x2b\x06\x01\x02\x01"

    def test_multibyte_arc(self):
        # arc 840 -> 0x86 0x48
        body = encode_oid_body((1, 2, 840))
        assert body == b"\x2a\x86\x48"
        assert decode_oid_body(body) == (1, 2, 840)

    def test_short_oid_rejected(self):
        with pytest.raises(BerError):
            encode_oid_body((1,))

    def test_truncated_multibyte_rejected(self):
        with pytest.raises(BerError):
            decode_oid_body(b"\x2a\x86")  # continuation bit set at end

    # X.690 §8.19.4: the first subidentifier is 40*X+Y, in base 128
    @pytest.mark.parametrize(
        "arcs,body",
        [
            ((2, 48), b"\x81\x00"),
            ((2, 200), b"\x82\x18"),
            ((2, 999, 1), b"\x88\x37\x01"),
        ],
    )
    def test_first_subidentifier_above_127(self, arcs, body):
        assert encode_oid_body(arcs) == body
        assert decode_oid_body(body) == arcs

    def test_in_tree_oids_unchanged(self):
        # every arc below 2.x packs into one octet, as before the §8.19.4 fix
        assert encode_oid_body((1, 3, 6, 1, 4, 1, 4392, 1, 1, 0)) == bytes(
            [0x2B, 6, 1, 4, 1, 0xA2, 0x28, 1, 1, 0]
        )
        assert encode_oid_body((2, 47)) == b"\x7f"

    @pytest.mark.parametrize("arcs", [(3, 0), (1, 40), (0, 40), (-1, 5), (1, -1), (1, 3, -6)])
    def test_invalid_arcs_raise_ber_error(self, arcs):
        with pytest.raises(BerError):
            encode_oid_body(arcs)

    def test_truncated_first_subidentifier_rejected(self):
        with pytest.raises(BerError):
            decode_oid_body(b"\x88")

    @given(
        st.tuples(
            st.integers(0, 2),
            st.integers(0, 39),
        ),
        st.lists(st.integers(0, 2**28), max_size=10),
    )
    def test_roundtrip(self, head, tail):
        arcs = head + tuple(tail)
        decoded, _ = decode(encode(ObjectIdentifierValue(arcs)))
        assert decoded.arcs == arcs

    @given(st.integers(0, 2**40), st.lists(st.integers(0, 2**28), max_size=10))
    def test_roundtrip_under_arc_2(self, second, tail):
        arcs = (2, second, *tail)
        decoded, _ = decode(encode(ObjectIdentifierValue(arcs)))
        assert decoded.arcs == arcs


class TestIpAddress:
    def test_from_string(self):
        assert str(IpAddress.from_string("10.0.0.1")) == "10.0.0.1"

    def test_bad_string(self):
        with pytest.raises(BerError):
            IpAddress.from_string("256.1.1.1")
        with pytest.raises(BerError):
            IpAddress.from_string("1.2.3")

    def test_wrong_length_rejected(self):
        with pytest.raises(BerError):
            IpAddress(b"\x01\x02")

    def test_roundtrip(self):
        decoded, _ = decode(encode(IpAddress(b"\xc0\xa8\x01\x02")))
        assert str(decoded) == "192.168.1.2"


class TestConstructed:
    def test_sequence_roundtrip(self):
        seq = Sequence((Integer(1), OctetString(b"x"), Null()))
        decoded, _ = decode(encode(seq))
        assert decoded == seq

    def test_nested_sequence(self):
        inner = Sequence((Integer(5),))
        outer = Sequence((inner, inner))
        decoded, _ = decode(encode(outer))
        assert decoded == outer

    def test_pdu_roundtrip(self):
        pdu = TaggedPdu(0xA0, (Integer(1), Integer(0), Integer(0), Sequence(())))
        decoded, _ = decode(encode(pdu))
        assert decoded == pdu

    def test_varbind_exceptions(self):
        for exc in (NoSuchObject(), NoSuchInstance(), EndOfMibView()):
            decoded, _ = decode(encode(exc))
            assert decoded == exc


class TestMalformed:
    def test_truncated_tag(self):
        with pytest.raises(BerError):
            decode(b"")

    def test_truncated_body(self):
        with pytest.raises(BerError):
            decode(b"\x02\x05\x01")

    def test_unknown_tag(self):
        with pytest.raises(BerError):
            decode(b"\x1f\x01\x00")

    def test_empty_integer_body(self):
        with pytest.raises(BerError):
            decode(b"\x02\x00")
