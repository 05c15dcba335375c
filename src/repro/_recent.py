"""A bounded table of recent successful decodes.

A multicast datagram reaches every receiver in the process as equal
bytes, and decoding depends only on those bytes: the first receiver's
decode can serve the rest.  ``decode_message``, ``decode_event`` and
``ImagePacket.from_bytes`` each hold one :class:`RecentDecodes` and
look their input up in it before decoding.  They return frozen records,
so receivers may share one.

The policy is ``serialization.shared_str``'s: keyed by the input bytes,
only a successful decode is kept, and the bound is two constants, not
settings.  This module sits beside ``_locks.py`` because ``media``
imports nothing from ``messaging``.
"""

from __future__ import annotations

from typing import Generic, Hashable, Optional, TypeVar

__all__ = ["RecentDecodes", "CAPACITY", "MAX_INPUT_BYTES"]

V = TypeVar("V")

#: a table holds at most this many decodes, and starts over when full
CAPACITY = 256
#: a longer input is decoded afresh each time: one ``rtp.DEFAULT_MTU``
#: (a copy: ``repro.messaging`` imports this module while it initialises)
MAX_INPUT_BYTES = 1400


class RecentDecodes(Generic[V]):
    """The last few successful decodes of one decoder, by input.

    ``raw`` is the decoder's input bytes and ``key`` what the decode
    depends on (``raw`` itself unless given).  An input that is not
    ``bytes`` (a ``bytearray``, a ``memoryview``), or is longer than
    :data:`MAX_INPUT_BYTES`, is neither looked up nor kept.  No lock:
    each dict call is atomic, so a racing caller could at worst clear
    the table early or add one entry past the count, never return a
    wrong decode.
    """

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: dict[Hashable, V] = {}

    def recall(self, raw: object, key: Optional[Hashable] = None) -> Optional[V]:
        """The decode kept for this input, or ``None``."""
        if type(raw) is bytes and len(raw) <= MAX_INPUT_BYTES:
            return self._table.get(raw if key is None else key)
        return None

    def keep(self, value: V, raw: object, key: Optional[Hashable] = None) -> V:
        """Remember ``value`` as the decode of this input; returns ``value``."""
        if type(raw) is bytes and len(raw) <= MAX_INPUT_BYTES:
            table = self._table
            if len(table) >= CAPACITY:
                table.clear()
            table[raw if key is None else key] = value
        return value

    def clear(self) -> None:
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)
