"""MIB tree: the agent-side store of managed objects.

A :class:`MibTree` maps :class:`~repro.snmp.oids.OID` instances to
*bindings*.  A binding is either a static BER value or a zero-argument
callable producing one — the paper's "instrumentation routines" that the
embedded extension agent services.  Writable objects additionally accept a
setter callable.

The tree keeps its keys sorted to serve GETNEXT / GETBULK traversal in OID
lexicographic order, which is what the protocol requires.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .errors import ErrorStatus, SnmpError
from .oids import OID

__all__ = ["MibBinding", "MibTree", "MibAccessError"]

Getter = Callable[[], object]
Setter = Callable[[object], None]


class MibAccessError(SnmpError):
    """Raised by bindings on bad access; carries an RFC 1157 status."""

    def __init__(self, status: int, message: str = "") -> None:
        super().__init__(message or ErrorStatus.name(status))
        self.status = status


@dataclass
class MibBinding:
    """One managed object: a value source and an optional setter."""

    oid: OID
    getter: Getter
    setter: Optional[Setter] = None
    description: str = ""

    @property
    def writable(self) -> bool:
        return self.setter is not None

    def read(self) -> object:
        """Invoke the instrumentation routine; returns a BER value."""
        return self.getter()

    def write(self, value: object) -> None:
        if self.setter is None:
            raise MibAccessError(ErrorStatus.READ_ONLY, f"{self.oid} is read-only")
        self.setter(value)


class MibTree:
    """Sorted collection of :class:`MibBinding` objects.

    Example
    -------
    >>> from repro.snmp.ber import OctetString
    >>> from repro.snmp.oids import OID
    >>> tree = MibTree()
    >>> tree.register_scalar(OID("1.3.6.1.2.1.1.5.0"), OctetString(b"host-a"))
    >>> tree.get(OID("1.3.6.1.2.1.1.5.0")).value
    b'host-a'
    """

    def __init__(self) -> None:
        self._bindings: dict[OID, MibBinding] = {}
        self._sorted_oids: list[OID] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, binding: MibBinding) -> None:
        """Add a binding; re-registering an OID replaces it."""
        if binding.oid not in self._bindings:
            bisect.insort(self._sorted_oids, binding.oid)
        self._bindings[binding.oid] = binding

    def register_scalar(self, oid: OID, value: object, description: str = "") -> None:
        """Register a constant value object."""
        self.register(MibBinding(oid, lambda v=value: v, description=description))

    def register_callable(self, oid: OID, getter: Getter, description: str = "") -> None:
        """Register a read-only instrumentation routine (a writable object
        is a :class:`MibBinding` with a setter, given to :meth:`register`)."""
        self.register(MibBinding(oid, getter, description=description))

    def __contains__(self, oid: OID) -> bool:
        return oid in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    # ------------------------------------------------------------------
    # protocol operations
    # ------------------------------------------------------------------
    def get(self, oid: OID) -> object:
        """GET: exact-match read.  Raises noSuchName when absent."""
        binding = self._bindings.get(oid)
        if binding is None:
            raise MibAccessError(ErrorStatus.NO_SUCH_NAME, f"no object {oid}")
        return binding.read()

    def get_next(self, oid: OID) -> tuple[OID, object]:
        """GETNEXT: first binding strictly after ``oid`` in OID order."""
        idx = bisect.bisect_right(self._sorted_oids, oid)
        if idx >= len(self._sorted_oids):
            raise MibAccessError(ErrorStatus.NO_SUCH_NAME, f"end of MIB after {oid}")
        next_oid = self._sorted_oids[idx]
        return next_oid, self._bindings[next_oid].read()

    def set(self, oid: OID, value: object) -> None:
        """SET: write through the binding's setter."""
        binding = self._bindings.get(oid)
        if binding is None:
            raise MibAccessError(ErrorStatus.NO_SUCH_NAME, f"no object {oid}")
        binding.write(value)

    @property
    def oids(self) -> list[OID]:
        """All registered OIDs in traversal order."""
        return list(self._sorted_oids)
