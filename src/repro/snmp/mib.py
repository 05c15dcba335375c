"""MIB tree: the agent-side store of managed objects.

A :class:`MibTree` maps each :class:`~repro.snmp.oids.OID` to a getter: a
zero-argument callable producing a BER value — the paper's
"instrumentation routines" that the embedded extension agent services.
GET is an exact-match lookup, so the tree is a plain dict.
"""

from __future__ import annotations

from typing import Callable

from .errors import ErrorStatus, SnmpError
from .oids import OID

__all__ = ["MibTree", "MibAccessError"]

Getter = Callable[[], object]


class MibAccessError(SnmpError):
    """Raised on a GET of an absent object; carries an RFC 1157 status."""

    def __init__(self, status: int, message: str = "") -> None:
        super().__init__(message or ErrorStatus.name(status))
        self.status = status


class MibTree:
    """One getter per registered OID.

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
        self._getters: dict[OID, Getter] = {}

    def register_scalar(self, oid: OID, value: object) -> None:
        """Register a constant value object; re-registering replaces it."""
        self._getters[oid] = lambda: value

    def register_callable(self, oid: OID, getter: Getter) -> None:
        """Register an instrumentation routine; re-registering replaces it."""
        self._getters[oid] = getter

    def __contains__(self, oid: OID) -> bool:
        return oid in self._getters

    def get(self, oid: OID) -> object:
        """GET: exact-match read.  Raises noSuchName when absent."""
        getter = self._getters.get(oid)
        if getter is None:
            raise MibAccessError(ErrorStatus.NO_SUCH_NAME, f"no object {oid}")
        return getter()
