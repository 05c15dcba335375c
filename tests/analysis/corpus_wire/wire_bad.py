"""Known-bad wire-format corpus: one seeded WIRE002 violation.

The codec pair below is minimal and self-contained; the golden set in
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
