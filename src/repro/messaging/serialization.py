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
varint (so an integer must lie in [-2**69, 2**69): a varint carries at
most 70 bits), ``f`` 8-byte IEEE754 big-endian, ``b`` 0/1, ``l`` varint
count + items (no nesting, matching the attribute model).

Decoded strings come from :func:`shared_str`, so every message a session
archives shares one copy of each name, kind and sender id; and a datagram
every receiver decodes alike is decoded once (:mod:`repro._recent`).
"""

from __future__ import annotations

import struct
from typing import Any

from .._recent import CAPACITY, Recent
from ..core.attributes import AttributeValue
from ..core.matching_engine import compile_selector
from ..core.selectors import SelectorError
from .message import MessageId, SemanticMessage

__all__ = ["encode_message", "decode_message", "WireError", "DiagnosticWarning"]

_MAGIC = b"SM"
_VERSION = 1
#: a varint is at most ten bytes of seven bits (``_read_varint``)
_VARINT_BITS = 70


class WireError(ValueError):
    """Raised on corrupt or unsupported wire data."""


class DiagnosticWarning(UserWarning):
    """Category of run-time reports (wire input dropped at a :class:`SemanticWire
    <repro.messaging.transport.SemanticWire>`)."""


# ----------------------------------------------------------------------
# shared strings
# ----------------------------------------------------------------------
#: the table holds at most this many strings
_SHARED_STRINGS = 4096
#: a longer string (chat text, a description) is decoded afresh each time
_SHARED_BYTES = 64

#: raw UTF-8 -> its decoded string, for the short strings the wire repeats
_strings: Recent[str] = Recent(_SHARED_STRINGS)
#: wire bytes -> the message they decoded to, for the datagrams receivers share
_messages: Recent[SemanticMessage] = Recent(CAPACITY)


def shared_str(raw: bytes) -> str:
    """``raw`` decoded as UTF-8, and the same ``str`` for the same bytes.

    Every receiver decodes the same few header names, kinds, sender ids
    and image ids, and keeps each decoded message; sharing them keeps one
    copy per process instead of one per received message.  A bounded
    table, not ``sys.intern``: peers choose these strings, and CPython
    3.12 never frees an interned one.  Invalid UTF-8 raises
    :class:`UnicodeDecodeError` and is not kept.
    """
    s = _strings.get(raw)
    if s is None:
        s = raw.decode("utf-8")
        if len(raw) <= _SHARED_BYTES:
            _strings.put(raw, s)
    return s


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
    return ~(v << 1) if v < 0 else v << 1


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
    try:
        return shared_str(data[pos : pos + n]), pos + n
    except UnicodeDecodeError as exc:
        raise WireError("wire string is not valid UTF-8") from exc


def _write_value(out: bytearray, value: Any, allow_list: bool = True) -> None:
    if isinstance(value, bool):
        out += b"b"
        out.append(1 if value else 0)
    elif isinstance(value, int):
        zigzag = _zigzag(value)
        if zigzag >> _VARINT_BITS:
            raise WireError(f"header integer {value} is outside the wire's [-2**69, 2**69)")
        out += b"i"
        _write_varint(out, zigzag)
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
    """Inverse of :func:`encode_message`; :class:`WireError` on malformed input.

    Bytes equal to a recent successful decode's return that same message.
    """
    kept = _messages.recall(data)
    if kept is not None:
        return kept
    if data[:2] != _MAGIC:
        raise WireError(f"bad magic {data[:2]!r}")
    if len(data) < 3 or data[2] != _VERSION:
        raise WireError("unsupported wire version")
    id_sender, pos = _read_str(data, 3)
    seq, pos = _read_varint(data, pos)
    kind, pos = _read_str(data, pos)
    sender, pos = _read_str(data, pos)
    selector_text, pos = _read_str(data, pos)
    n_headers, pos = _read_varint(data, pos)
    headers: dict[str, AttributeValue] = {}
    for _ in range(n_headers):
        name, pos = _read_str(data, pos)
        headers[name], pos = _read_value(data, pos)
    body_len, pos = _read_varint(data, pos)
    if pos + body_len > len(data):
        raise WireError("truncated body")
    body = data[pos : pos + body_len]
    try:
        selector = compile_selector(selector_text)
    except SelectorError as exc:
        raise WireError(f"message carries an unparseable selector: {exc}") from exc
    # positional: the dataclass's field order (msg_id, selector, headers, body, kind, sender)
    message = SemanticMessage(MessageId(id_sender, seq), selector, headers, body, kind, sender)
    return _messages.keep(message, data)
