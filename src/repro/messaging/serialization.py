"""Compact binary wire codec for semantic messages.

A from-scratch, deterministic format (no pickle — the substrate must not
execute peer-controlled bytecode; no JSON — bodies are binary):

========== ==========================================================
section    encoding
========== ==========================================================
magic      ``b"SM"`` + version byte (1)
msg id     varstr sender + varint seq
kind       varstr
sender     varstr
selector   varstr (source text; receivers re-compile)
headers    varint count, then (varstr name, typed value) pairs
body       varint length + raw bytes
========== ==========================================================

Typed values: 1-byte tag then payload — ``s`` UTF-8 varstr, ``i`` zigzag
varint, ``f`` 8-byte IEEE754 big-endian, ``b`` 0/1, ``l`` varint count +
items (no nesting, matching the attribute model).
"""

from __future__ import annotations

import struct
from typing import Any

from ..core.attributes import AttributeValue
from ..core.matching_engine import compile_selector
from ..core.selectors import SelectorError
from .message import MessageId, SemanticMessage

__all__ = ["encode_message", "decode_message", "WireError"]

_MAGIC = b"SM"
_VERSION = 1


class WireError(ValueError):
    """Raised on corrupt or unsupported wire data."""


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise WireError(f"varint must be non-negative, got {value}")
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise WireError("truncated varint")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not (b & 0x80):
            return result, pos
        shift += 7
        if shift > 63:
            raise WireError("varint too long")


def _zigzag(v: int) -> int:
    return (v << 1) ^ (v >> 63) if v < 0 else v << 1


def _unzigzag(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


def _write_str(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    _write_varint(out, len(raw))
    out += raw


def _read_str(data: bytes, pos: int) -> tuple[str, int]:
    n, pos = _read_varint(data, pos)
    if pos + n > len(data):
        raise WireError("truncated string")
    raw = data[pos : pos + n]
    try:
        return raw.decode("utf-8"), pos + n
    except UnicodeDecodeError as exc:
        raise WireError("wire string is not valid UTF-8") from exc


def _write_value(out: bytearray, value: Any, allow_list: bool = True) -> None:
    if isinstance(value, bool):
        out += b"b"
        out.append(1 if value else 0)
    elif isinstance(value, int):
        out += b"i"
        _write_varint(out, _zigzag(value))
    elif isinstance(value, float):
        out += b"f"
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        out += b"s"
        _write_str(out, value)
    elif isinstance(value, (list, tuple)) and allow_list:
        out += b"l"
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item, allow_list=False)
    else:
        raise WireError(f"unencodable header value: {value!r}")


def _read_value(data: bytes, pos: int, allow_list: bool = True) -> tuple[Any, int]:
    if pos >= len(data):
        raise WireError("truncated value tag")
    tag = data[pos : pos + 1]
    pos += 1
    if tag == b"b":
        if pos >= len(data):
            raise WireError("truncated bool")
        return data[pos] != 0, pos + 1
    if tag == b"i":
        v, pos = _read_varint(data, pos)
        return _unzigzag(v), pos
    if tag == b"f":
        if pos + 8 > len(data):
            raise WireError("truncated float")
        return struct.unpack(">d", data[pos : pos + 8])[0], pos + 8
    if tag == b"s":
        return _read_str(data, pos)
    if tag == b"l" and allow_list:
        n, pos = _read_varint(data, pos)
        items = []
        for _ in range(n):
            item, pos = _read_value(data, pos, allow_list=False)
            items.append(item)
        return items, pos
    raise WireError(f"unknown value tag {tag!r}")


# ----------------------------------------------------------------------
# message codec
# ----------------------------------------------------------------------
def encode_message(msg: SemanticMessage) -> bytes:
    """Serialize a :class:`SemanticMessage` to wire bytes."""
    out = bytearray(_MAGIC)
    out.append(_VERSION)
    _write_str(out, msg.msg_id.sender)
    _write_varint(out, msg.msg_id.seq)
    _write_str(out, msg.kind)
    _write_str(out, msg.sender)
    _write_str(out, msg.selector.text)
    _write_varint(out, len(msg.headers))
    for name in sorted(msg.headers):  # deterministic wire form
        _write_str(out, name)
        _write_value(out, msg.headers[name])
    _write_varint(out, len(msg.body))
    out += msg.body
    return bytes(out)


def decode_message(data: bytes) -> SemanticMessage:
    """Inverse of :func:`encode_message`.

    One pass over ``data``: a one-byte varint, and the ``s`` / ``i``
    header values, are read in place; longer varints and the other value
    tags go through :func:`_read_varint` / :func:`_read_value`.  Every
    malformed input raises the :class:`WireError` the helpers would.
    """
    if data[:2] != _MAGIC:
        raise WireError(f"bad magic {data[:2]!r}")
    if len(data) < 3 or data[2] != _VERSION:
        raise WireError("unsupported wire version")
    end = len(data)
    pos = 3
    # Each varint is read in place when it is one byte (< 0x80) and by
    # _read_varint otherwise; a byte past the end reads as 0x80, so the
    # helper reports the truncation.
    try:
        n = data[pos] if pos < end else 0x80
        if n < 0x80:
            pos += 1
        else:
            n, pos = _read_varint(data, pos)
        if pos + n > end:
            raise WireError("truncated string")
        id_sender = data[pos : pos + n].decode("utf-8")
        pos += n
        seq = data[pos] if pos < end else 0x80
        if seq < 0x80:
            pos += 1
        else:
            seq, pos = _read_varint(data, pos)
        n = data[pos] if pos < end else 0x80
        if n < 0x80:
            pos += 1
        else:
            n, pos = _read_varint(data, pos)
        if pos + n > end:
            raise WireError("truncated string")
        kind = data[pos : pos + n].decode("utf-8")
        pos += n
        n = data[pos] if pos < end else 0x80
        if n < 0x80:
            pos += 1
        else:
            n, pos = _read_varint(data, pos)
        if pos + n > end:
            raise WireError("truncated string")
        sender = data[pos : pos + n].decode("utf-8")
        pos += n
        n = data[pos] if pos < end else 0x80
        if n < 0x80:
            pos += 1
        else:
            n, pos = _read_varint(data, pos)
        if pos + n > end:
            raise WireError("truncated string")
        selector_text = data[pos : pos + n].decode("utf-8")
        pos += n
        n_headers = data[pos] if pos < end else 0x80
        if n_headers < 0x80:
            pos += 1
        else:
            n_headers, pos = _read_varint(data, pos)
        headers: dict[str, AttributeValue] = {}
        for _ in range(n_headers):
            n = data[pos] if pos < end else 0x80
            if n < 0x80:
                pos += 1
            else:
                n, pos = _read_varint(data, pos)
            if pos + n > end:
                raise WireError("truncated string")
            name = data[pos : pos + n].decode("utf-8")
            pos += n
            # a short b"s" string or b"i" integer: tag and one-byte varint
            tag, n = data[pos : pos + 2] if pos + 2 <= end else (None, 0x80)
            if tag == 0x73 and n < 0x80:
                pos += 2
                if pos + n > end:
                    raise WireError("truncated string")
                headers[name] = data[pos : pos + n].decode("utf-8")
                pos += n
            elif tag == 0x69 and n < 0x80:
                headers[name] = (n >> 1) ^ -(n & 1)
                pos += 2
            else:
                headers[name], pos = _read_value(data, pos)
    except UnicodeDecodeError as exc:
        raise WireError("wire string is not valid UTF-8") from exc
    body_len = data[pos] if pos < end else 0x80
    if body_len < 0x80:
        pos += 1
    else:
        body_len, pos = _read_varint(data, pos)
    if pos + body_len > end:
        raise WireError("truncated body")
    body = data[pos : pos + body_len]
    try:
        selector = compile_selector(selector_text)
    except SelectorError as exc:
        raise WireError(f"message carries an unparseable selector: {exc}") from exc
    # positional: the dataclass's field order (msg_id, selector, headers, body, kind, sender)
    return SemanticMessage(MessageId(id_sender, seq), selector, headers, body, kind, sender)
