"""Tests for bit-level I/O."""

import pytest
from hypothesis import given, strategies as st

from .bitstream import BitReader, BitWriter, OutOfBits


class TestWriter:
    def test_single_bits_pack_msb_first(self):
        w = BitWriter()
        for b in (1, 0, 1, 1, 0, 0, 0, 1):
            w.write_bit(b)
        assert w.getvalue() == bytes([0b10110001])

    def test_partial_byte_zero_padded(self):
        w = BitWriter()
        w.write_bit(1)
        w.write_bit(1)
        assert w.getvalue() == bytes([0b11000000])
        assert w.bits_written == 2

    def test_write_bits_value(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits(0b01, 2)
        assert w.bits_written == 5
        assert w.getvalue() == bytes([0b10101000])

    def test_write_bits_overflow_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(8, 3)

    def test_getvalue_idempotent(self):
        w = BitWriter()
        w.write_bits(0b1101, 4)
        assert w.getvalue() == w.getvalue()


class TestReader:
    def test_reads_back_bits(self):
        r = BitReader(bytes([0b10110001]))
        assert [r.read_bit() for _ in range(8)] == [1, 0, 1, 1, 0, 0, 0, 1]

    def test_out_of_bits(self):
        r = BitReader(b"\xff", bit_limit=3)
        for _ in range(3):
            r.read_bit()
        with pytest.raises(OutOfBits):
            r.read_bit()

    def test_bit_limit_caps_at_data(self):
        r = BitReader(b"\xff", bit_limit=100)
        assert r.bits_remaining == 8

    def test_read_bits_value(self):
        r = BitReader(bytes([0b10101000]))
        assert r.read_bits(3) == 0b101
        assert r.read_bits(2) == 0b01

    def test_position_tracking(self):
        r = BitReader(b"\x00\x00")
        r.read_bits(5)
        assert r.bits_read == 5
        assert r.bits_remaining == 11


class TestRoundtrip:
    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_bit_sequence_roundtrip(self, bits):
        w = BitWriter()
        for b in bits:
            w.write_bit(b)
        r = BitReader(w.getvalue(), bit_limit=len(bits))
        assert [r.read_bit() for _ in range(len(bits))] == bits
        with pytest.raises(OutOfBits):
            r.read_bit()

    @given(st.lists(st.tuples(st.integers(0, 2**16 - 1), st.integers(16, 20)), max_size=30))
    def test_value_roundtrip(self, pairs):
        w = BitWriter()
        for value, width in pairs:
            w.write_bits(value, width)
        r = BitReader(w.getvalue())
        for value, width in pairs:
            assert r.read_bits(width) == value
