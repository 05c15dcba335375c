"""Known-good twins of ``wire_bad.py``: one codec per bounds-guard idiom.

The corpus gate insists this file stays silent — WIRE002 must not
regress into flagging decoders that check the buffer's length before
they read.
"""

import struct

GOOD_FRAME_MAGIC = b"GF"


class WireCleanError(ValueError):
    pass


def encode_beacon(kind: int, value: int) -> bytes:
    return struct.pack(">B", kind) + struct.pack(">I", value)


def decode_beacon(raw: bytes) -> tuple:
    """Guarded twin of ``decode_probe``: bounds checked before reading."""
    if len(raw) < 5:
        raise WireCleanError("truncated beacon")
    kind = raw[0]
    (value,) = struct.unpack_from(">I", raw, 1)
    return kind, value


def encode_gauge(version: int, value: int) -> bytes:
    return bytes([version]) + value.to_bytes(4, "big")


def decode_gauge(raw: bytes) -> int:
    """Guarded twin of ``decode_counter``: its int.from_bytes slice is
    read only after the length is checked."""
    if len(raw) < 5:
        raise WireCleanError("truncated gauge")
    start = 1
    return int.from_bytes(raw[start : start + 4], "big")


def encode_ledger(rows: list) -> bytes:
    out = bytearray()
    out += struct.pack(">B", len(rows))
    for value in rows:
        out += struct.pack(">I", value)
    return bytes(out)


def decode_ledger(raw: bytes) -> list:
    """A length guard before the count, and one per row."""
    if len(raw) < 1:
        raise WireCleanError("truncated ledger")
    (count,) = struct.unpack_from(">B", raw, 0)
    values = []
    pos = 1
    for _ in range(count):
        if pos + 4 > len(raw):
            raise WireCleanError("truncated row")
        (value,) = struct.unpack_from(">I", raw, pos)
        values.append(value)
        pos += 4
    return values


class GoodFrame:
    """An exact-length guard."""

    def __init__(self, seq: int) -> None:
        self.seq = seq

    def to_bytes(self) -> bytes:
        return GOOD_FRAME_MAGIC + struct.pack(">H", self.seq)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "GoodFrame":
        if len(raw) != 4:
            raise WireCleanError("bad frame length")
        if raw[:2] != GOOD_FRAME_MAGIC:
            raise WireCleanError("bad frame magic")
        (seq,) = struct.unpack_from(">H", raw, 2)
        return cls(seq)


def encode_labels(labels: list) -> bytes:
    out = bytearray()
    for label in labels:
        out += struct.pack(">H", label)
    return bytes(out)


def decode_labels(raw: bytes) -> list:
    """The ``while`` condition bounds every read in its body."""
    labels = []
    pos = 0
    while pos + 2 <= len(raw):
        (label,) = struct.unpack_from(">H", raw, pos)
        labels.append(label)
        pos += 2
    return labels
