"""Known-bad wire-format corpus: two seeded WIRE002 violations.

The codec pairs below are minimal and self-contained; the golden set in
``expected_diagnostics.json`` pins exactly which line the rule fires
on.  The corrected twins live in ``wire_clean.py``.
"""

import struct


def encode_probe(kind: int, value: int) -> bytes:
    return struct.pack(">B", kind) + struct.pack(">I", value)


def decode_probe(raw: bytes) -> tuple:
    """WIRE002: raw reads with no len() bounds guard anywhere."""
    kind = raw[0]
    (value,) = struct.unpack_from(">I", raw, 1)
    return kind, value


def encode_counter(version: int, value: int) -> bytes:
    return bytes([version]) + value.to_bytes(4, "big")


def decode_counter(raw: bytes) -> int:
    """WIRE002: a fixed-width int.from_bytes slice with no len() guard
    reads a short buffer as a smaller number instead of failing."""
    start = 1
    return int.from_bytes(raw[start : start + 4], "big")
