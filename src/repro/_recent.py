"""The one bounded table: a ``dict`` that starts over when full.

A :class:`Recent` holds at most ``capacity`` entries; :meth:`Recent.put`
empties it before adding one past that bound.  Each user passes its own
module constant, none of them a setting:

* ``Network.route``'s routes (``simnet.ROUTE_CACHE_SIZE``) and the
  multicast fabric's cast plans (``routing.PLAN_CACHE_SIZE``);
* ``serialization.shared_str``'s strings and ``ber.encode_oid_body``'s
  OID bodies;
* the recent successful decodes of ``decode_message``, ``decode_event``
  and ``ImagePacket.from_bytes`` (:data:`CAPACITY`).  A multicast
  datagram reaches every receiver in the process as equal bytes, so the
  first receiver's decode serves the rest; the records are frozen, so
  receivers may share one.

Every value is a function of its key (a route of a deterministic
Dijkstra, a plan checked against its tree epoch, a decode of its bytes),
so starting over changes only which entries are rebuilt, never an
answer.  No lock: each dict call is atomic, so a racing caller could at
worst clear the table early or add one entry past the count.  This
module sits at the package root because ``snmp`` and ``media`` import
nothing from ``messaging``.
"""

from __future__ import annotations

from typing import Hashable, Optional, TypeVar

__all__ = ["Recent", "CAPACITY", "MAX_INPUT_BYTES"]

V = TypeVar("V")

#: a table of decodes holds at most this many
CAPACITY = 256
#: a longer input is decoded afresh each time: one ``rtp.DEFAULT_MTU``
#: (a copy: ``repro.messaging`` imports this module while it initialises)
MAX_INPUT_BYTES = 1400


class Recent(dict[Hashable, V]):
    """At most ``capacity`` entries; a full table is emptied by :meth:`put`.

    Read it as a ``dict`` (``get(key, default)`` tells a kept ``None``
    from a miss).  :meth:`recall` / :meth:`keep` are the decoders' form:
    an input that is not ``bytes`` (a ``bytearray``, a ``memoryview``),
    or is longer than :data:`MAX_INPUT_BYTES`, is neither looked up nor
    kept.
    """

    __slots__ = ("capacity",)

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity

    def put(self, key: Hashable, value: V) -> V:
        """Keep ``value`` under ``key``; returns ``value``."""
        if len(self) >= self.capacity:
            self.clear()
        self[key] = value
        return value

    def recall(self, raw: object, key: Optional[Hashable] = None) -> Optional[V]:
        """The decode kept for input ``raw`` (under ``key``, else ``raw``), or ``None``."""
        if type(raw) is bytes and len(raw) <= MAX_INPUT_BYTES:
            return self.get(raw if key is None else key)
        return None

    def keep(self, value: V, raw: object, key: Optional[Hashable] = None) -> V:
        """Remember ``value`` as the decode of input ``raw``; returns ``value``."""
        if type(raw) is bytes and len(raw) <= MAX_INPUT_BYTES:
            self.put(raw if key is None else key, value)
        return value
