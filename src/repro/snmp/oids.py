"""Object identifiers and the MIB arcs used by the framework.

Provides a hashable :class:`OID` type plus the well-known arcs the
network-state interface queries:

* a few MIB-II scalars (sysDescr, sysUpTime, ifInOctets/ifOutOctets
  style interface counters), and
* the **TASSL host extension arc** — the paper built "a specialized
  embedded extension agent that runs on each host"; its instrumented
  parameters (CPU load, page faults, free memory, link bandwidth,
  latency, jitter) live under a private-enterprise subtree.
"""

from __future__ import annotations

from typing import Iterable, Union

from .ber import BerError, ObjectIdentifierValue

__all__ = ["OID", "MIB2", "TASSL"]


class OID:
    """An SNMP object identifier.

    Accepts dotted-string or iterable-of-int construction; equal arcs make
    equal, equally hashed OIDs (the agent's MIB is a dict keyed by them).

    >>> OID("1.3.6.1.2.1.1.1.0") == OID((1, 3, 6, 1, 2, 1, 1, 1, 0))
    True
    >>> OID("1.3.6").child(1)
    OID('1.3.6.1')
    """

    __slots__ = ("arcs",)

    def __init__(self, spec: Union[str, Iterable[int], "OID"]) -> None:
        if isinstance(spec, OID):
            arcs = spec.arcs
        elif isinstance(spec, str):
            text = spec.strip().lstrip(".")
            if not text:
                raise BerError("empty OID string")
            try:
                arcs = tuple(int(p) for p in text.split("."))
            except ValueError as exc:
                raise BerError(f"bad OID string {spec!r}") from exc
        else:
            arcs = tuple(map(int, spec))
        if len(arcs) < 2:
            raise BerError(f"OID needs >= 2 arcs: {arcs!r}")
        if min(arcs) < 0:
            raise BerError(f"negative arc in {arcs!r}")
        self.arcs = arcs

    # -- identity ------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, OID) and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash(self.arcs)

    def __str__(self) -> str:
        return ".".join(str(a) for a in self.arcs)

    def __repr__(self) -> str:
        return f"OID({str(self)!r})"

    # -- tree algebra ---------------------------------------------------
    def child(self, *suffix: int) -> "OID":
        """Extend this OID with additional arcs."""
        return OID(self.arcs + tuple(suffix))

    def instance(self) -> "OID":
        """The ``.0`` scalar instance of this object type."""
        return self.child(0)

    def to_ber(self) -> ObjectIdentifierValue:
        """Convert to the BER value type."""
        return ObjectIdentifierValue(self.arcs)

    @classmethod
    def from_ber(cls, value: ObjectIdentifierValue) -> "OID":
        return cls(value.arcs)


class MIB2:
    """Standard MIB-II arcs (RFC 1213 subset used here)."""

    root = OID("1.3.6.1.2.1")
    system = root.child(1)
    sysDescr = system.child(1).instance()
    sysObjectID = system.child(2).instance()
    sysUpTime = system.child(3).instance()
    sysContact = system.child(4).instance()
    sysName = system.child(5).instance()
    sysLocation = system.child(6).instance()
    interfaces = root.child(2)
    ifNumber = interfaces.child(1).instance()
    # ifTable entries, indexed by interface: ifInOctets.<i>, ifOutOctets.<i>
    ifEntry = interfaces.child(2, 1)
    ifDescr = ifEntry.child(2)
    ifSpeed = ifEntry.child(5)
    ifInOctets = ifEntry.child(10)
    ifOutOctets = ifEntry.child(16)


class TASSL:
    """Private-enterprise host-extension MIB (the paper's embedded agent).

    ``1.3.6.1.4.1.4392`` is used as a stand-in enterprise number for the
    Rutgers TASSL agent.  All instrumented host parameters are scalars
    (``.0`` instances):

    =================  =========================================
    object             meaning / unit
    =================  =========================================
    hostCpuLoad        CPU utilisation, percent (Gauge32)
    hostPageFaults     page faults per sampling interval (Gauge32)
    hostFreeMemory     free physical memory, KiB (Gauge32)
    hostTotalMemory    total physical memory, KiB (Gauge32)
    linkBandwidth      nominal access-link bandwidth, bytes/s (Gauge32)
    linkLatencyUs      measured path latency, microseconds (Gauge32)
    linkJitterUs       measured path jitter, microseconds (Gauge32)
    linkLossPpm        measured path loss, parts-per-million (Gauge32)
    hostProcesses      number of running processes (Gauge32)
    hostUptime         agent uptime in TimeTicks
    =================  =========================================
    """

    root = OID("1.3.6.1.4.1.4392")
    host = root.child(1)
    hostCpuLoad = host.child(1).instance()
    hostPageFaults = host.child(2).instance()
    hostFreeMemory = host.child(3).instance()
    hostTotalMemory = host.child(4).instance()
    hostProcesses = host.child(5).instance()
    hostUptime = host.child(6).instance()
    link = root.child(2)
    linkBandwidth = link.child(1).instance()
    linkLatencyUs = link.child(2).instance()
    linkJitterUs = link.child(3).instance()
    linkLossPpm = link.child(4).instance()
    # notification (trap) identities
    traps = root.child(0)
    cpuHighTrap = traps.child(1)
    pageFaultHighTrap = traps.child(2)
    memoryLowTrap = traps.child(3)
    bandwidthLowTrap = traps.child(4)
