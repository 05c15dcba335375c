"""Bit-level I/O for the embedded coders.

The embedded zerotree coder produces a *prefix-decodable* bitstream: any
truncation yields a valid (coarser) reconstruction.  :class:`BitReader`
therefore raises :class:`OutOfBits` instead of padding — the decoder
treats exhaustion as "stop refining here".
"""

from __future__ import annotations

__all__ = ["BitWriter", "BitReader", "OutOfBits"]


class OutOfBits(EOFError):
    """The reader hit the end of the (possibly truncated) stream."""


class BitWriter:
    """Accumulates bits MSB-first into a bytes buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0
        self._nacc = 0
        self.bits_written = 0

    def write_bit(self, bit: int) -> None:
        """Append one bit (0 or 1)."""
        self._acc = (self._acc << 1) | (1 if bit else 0)
        self._nacc += 1
        self.bits_written += 1
        if self._nacc == 8:
            self._bytes.append(self._acc)
            self._acc = 0
            self._nacc = 0

    def write_bits(self, value: int, count: int) -> None:
        """Append ``count`` bits of ``value``, MSB first."""
        if count < 0 or (value >> count):
            raise ValueError(f"value {value} does not fit in {count} bits")
        for shift in range(count - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def getvalue(self) -> bytes:
        """The stream so far, zero-padded to a byte boundary."""
        out = bytearray(self._bytes)
        if self._nacc:
            out.append(self._acc << (8 - self._nacc))
        return bytes(out)


class BitReader:
    """Reads bits MSB-first from a bytes buffer.

    ``bit_limit`` optionally caps the readable bits below ``8*len(data)``
    (used when a byte-aligned packetization carries a bit-exact length).
    """

    def __init__(self, data: bytes, bit_limit: int | None = None) -> None:
        self._data = data
        self._pos = 0
        self._limit = 8 * len(data) if bit_limit is None else min(bit_limit, 8 * len(data))

    @property
    def bits_read(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return self._limit - self._pos

    def read_bit(self) -> int:
        """Read one bit; raises :class:`OutOfBits` at stream end."""
        if self._pos >= self._limit:
            raise OutOfBits
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, count: int) -> int:
        """Read ``count`` bits as an unsigned integer, MSB first."""
        v = 0
        for _ in range(count):
            v = (v << 1) | self.read_bit()
        return v
