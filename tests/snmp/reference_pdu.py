"""Oracle: the SNMP message builders and parsers before one codec.

Before :mod:`repro.snmp.pdu`, the v1/v2c envelope was written out by
hand in four builders (the manager's ``encode_request``, the agent's
two GetResponse builders, ``TrapSender.send``) and read by three parsers
(the manager's ``response_pdu`` + ``parse_response``, the agent's
``_process``, ``TrapListener._on_datagram``).  Their bodies are kept
here verbatim, minus the sockets, so ``test_pdu_reference.py`` can pin
the codec's bytes and accept/reject outcomes to them.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence as Seq

from repro.snmp.ber import (
    BerError,
    EndOfMibView,
    Integer,
    ObjectIdentifierValue,
    OctetString,
    Sequence,
    TaggedPdu,
    TimeTicks,
    decode,
    encode,
)
from repro.snmp.errors import ErrorStatus, SnmpErrorResponse, SnmpProtocolError
from repro.snmp.mib import MibAccessError, MibTree
from repro.snmp.oids import MIB2, OID
from repro.snmp.traps import Notification

PDU_GET = 0xA0
PDU_GETNEXT = 0xA1
PDU_RESPONSE = 0xA2
PDU_SET = 0xA3
PDU_GETBULK = 0xA5
PDU_TRAP_V2 = 0xA7

VERSION_1 = 0
VERSION_2C = 1

snmpTrapOID = OID("1.3.6.1.6.3.1.1.4.1.0")

VarBind = tuple[OID, object]


# ----------------------------------------------------------------------
# manager
# ----------------------------------------------------------------------
def encode_request(
    version: int,
    community: str,
    pdu_tag: int,
    request_id: int,
    varbinds: Seq[tuple[OID, object]],
    slot1: int = 0,
    slot2: int = 0,
) -> bytes:
    """Wire form of one request; the error-status/-index slots carry
    GETBULK's non-repeaters / max-repetitions."""
    vb_seq = Sequence(tuple(Sequence((oid.to_ber(), value)) for oid, value in varbinds))
    message = Sequence(
        (
            Integer(version),
            OctetString(community.encode("latin-1")),
            TaggedPdu(pdu_tag, (Integer(request_id), Integer(slot1), Integer(slot2), vb_seq)),
        )
    )
    return encode(message)


def response_pdu(data: bytes) -> Optional[TaggedPdu]:
    """The GetResponse PDU a datagram carries (``items[0]`` is its integer
    request-id), or None when it is not a well-formed response."""
    try:
        msg, _ = decode(data)
    except BerError:
        return None
    if not isinstance(msg, Sequence) or len(msg.items) != 3:
        return None
    pdu = msg.items[2]
    if not isinstance(pdu, TaggedPdu) or pdu.tag_value != PDU_RESPONSE:
        return None
    if len(pdu.items) != 4 or not isinstance(pdu.items[0], Integer):
        return None
    return pdu


def parse_response(pdu: TaggedPdu) -> list[VarBind]:
    """Varbinds of a :func:`response_pdu`; raises on an error status."""
    _rid, status, index, vb_list = pdu.items
    if not isinstance(status, Integer) or not isinstance(index, Integer):
        raise SnmpProtocolError("malformed response PDU")
    if status.value != ErrorStatus.NO_ERROR:
        raise SnmpErrorResponse(status.value, index.value)
    if not isinstance(vb_list, Sequence):
        raise SnmpProtocolError("malformed varbind list")
    out: list[VarBind] = []
    for vb in vb_list.items:
        if not isinstance(vb, Sequence) or len(vb.items) != 2:
            raise SnmpProtocolError("malformed varbind")
        name, value = vb.items
        if not isinstance(name, ObjectIdentifierValue):
            raise SnmpProtocolError("varbind name is not an OID")
        out.append((OID.from_ber(name), value))
    return out


# ----------------------------------------------------------------------
# agent
# ----------------------------------------------------------------------
class ReferenceAgent:
    """``SnmpAgent``'s request path, answering through a return value."""

    def __init__(
        self, mib: MibTree, read_community: str = "public", write_community: str = "private"
    ) -> None:
        self.mib = mib
        self.read_community = read_community
        self.write_community = write_community
        self.requests_served = 0
        self.auth_failures = 0
        self.decode_failures = 0

    def handle(self, data: bytes) -> Optional[bytes]:
        """The reply ``_handle_datagram`` would send, or None."""
        try:
            return self._process(data)
        except (BerError, SnmpProtocolError):
            self.decode_failures += 1
            return None  # RFC 1157: drop undecodable messages silently

    def _process(self, data: bytes) -> Optional[bytes]:
        msg, _ = decode(data)
        if not isinstance(msg, Sequence) or len(msg.items) != 3:
            raise SnmpProtocolError("message is not a 3-element SEQUENCE")
        version, community, pdu = msg.items
        if not isinstance(version, Integer) or version.value not in (VERSION_1, VERSION_2C):
            raise SnmpProtocolError(f"unsupported version {version!r}")
        if not isinstance(community, OctetString) or not isinstance(pdu, TaggedPdu):
            raise SnmpProtocolError("malformed community or PDU")
        if pdu.tag_value not in (PDU_GET, PDU_GETNEXT, PDU_SET, PDU_GETBULK):
            raise SnmpProtocolError(f"unexpected PDU tag 0x{pdu.tag_value:02X}")
        if pdu.tag_value == PDU_GETBULK and version.value != VERSION_2C:
            raise SnmpProtocolError("GETBULK requires SNMPv2c")

        community_text = community.value.decode("latin-1")
        allowed = {self.read_community}
        if pdu.tag_value == PDU_SET:
            allowed = {self.write_community}
        else:
            allowed.add(self.write_community)
        if community_text not in allowed:
            self.auth_failures += 1
            return None  # v1 behaviour: silent drop (+ authenticationFailure trap)

        if len(pdu.items) != 4:
            raise SnmpProtocolError("PDU must have 4 elements")
        request_id, _estatus, _eindex, varbind_list = pdu.items
        if not isinstance(request_id, Integer) or not isinstance(varbind_list, Sequence):
            raise SnmpProtocolError("malformed PDU fields")

        varbinds = []
        for vb in varbind_list.items:
            if not isinstance(vb, Sequence) or len(vb.items) != 2:
                raise SnmpProtocolError("malformed varbind")
            name, value = vb.items
            if not isinstance(name, ObjectIdentifierValue):
                raise SnmpProtocolError("varbind name is not an OID")
            varbinds.append((OID.from_ber(name), value))

        self.requests_served += 1
        if pdu.tag_value == PDU_GETBULK:
            # error-status/-index slots carry non-repeaters / max-repetitions
            non_repeaters = max(0, _estatus.value if isinstance(_estatus, Integer) else 0)
            max_reps = max(0, _eindex.value if isinstance(_eindex, Integer) else 0)
            out_varbinds = self._serve_bulk(varbinds, non_repeaters, max_reps)
            response = Sequence(
                (
                    Integer(version.value),
                    OctetString(community.value),
                    TaggedPdu(
                        PDU_RESPONSE,
                        (
                            Integer(request_id.value),
                            Integer(ErrorStatus.NO_ERROR),
                            Integer(0),
                            Sequence(tuple(out_varbinds)),
                        ),
                    ),
                )
            )
            return encode(response)
        status = ErrorStatus.NO_ERROR
        err_index = 0
        out_varbinds: list[Sequence] = []
        for i, (oid, value) in enumerate(varbinds, start=1):
            try:
                if pdu.tag_value == PDU_GET:
                    result = self.mib.get(oid)
                    out_varbinds.append(Sequence((oid.to_ber(), result)))
                elif pdu.tag_value == PDU_GETNEXT:
                    next_oid, result = self.mib.get_next(oid)
                    out_varbinds.append(Sequence((next_oid.to_ber(), result)))
                else:  # SET
                    self.mib.set(oid, value)
                    out_varbinds.append(Sequence((oid.to_ber(), value)))
            except MibAccessError as exc:
                status = exc.status
                err_index = i
                break
        if status != ErrorStatus.NO_ERROR:
            # v1 error semantics: echo the request varbinds unchanged
            out_varbinds = [
                Sequence((oid.to_ber(), value)) for oid, value in varbinds
            ]

        response = Sequence(
            (
                Integer(version.value),
                OctetString(community.value),
                TaggedPdu(
                    PDU_RESPONSE,
                    (
                        Integer(request_id.value),
                        Integer(status),
                        Integer(err_index),
                        Sequence(tuple(out_varbinds)),
                    ),
                ),
            )
        )
        return encode(response)

    def _serve_bulk(
        self, varbinds: list, non_repeaters: int, max_reps: int
    ) -> list[Sequence]:
        out: list[Sequence] = []

        def one_next(oid: OID) -> tuple[OID, object]:
            try:
                return self.mib.get_next(oid)
            except MibAccessError:
                return oid, EndOfMibView()

        for oid, _value in varbinds[:non_repeaters]:
            next_oid, result = one_next(oid)
            out.append(Sequence((next_oid.to_ber(), result)))
        for oid, _value in varbinds[non_repeaters:]:
            current = oid
            for _ in range(max_reps):
                next_oid, result = one_next(current)
                out.append(Sequence((next_oid.to_ber(), result)))
                if isinstance(result, EndOfMibView):
                    break
                current = next_oid
        return out


# ----------------------------------------------------------------------
# traps
# ----------------------------------------------------------------------
def encode_trap(
    community: str,
    request_id: int,
    uptime_ticks: int,
    trap_oid: OID,
    varbinds: list[tuple[OID, object]],
) -> bytes:
    """The datagram ``TrapSender.send`` wrote."""
    vbs = [
        Sequence((MIB2.sysUpTime.to_ber(), TimeTicks(uptime_ticks))),
        Sequence((snmpTrapOID.to_ber(), trap_oid.to_ber())),
    ]
    vbs.extend(Sequence((oid.to_ber(), value)) for oid, value in varbinds)
    message = Sequence(
        (
            Integer(VERSION_2C),
            OctetString(community.encode("latin-1")),
            TaggedPdu(
                PDU_TRAP_V2,
                (
                    Integer(request_id),
                    Integer(0),
                    Integer(0),
                    Sequence(tuple(vbs)),
                ),
            ),
        )
    )
    return encode(message)


class ReferenceTrapListener:
    """``TrapListener``'s parse, without a socket.  It raises
    ``ValueError`` on a varbind that is not a pair, and accepts any
    version and any ``sysUpTime`` type."""

    def __init__(self, on_trap: Callable[[Notification], None], community: str = "public") -> None:
        self.on_trap = on_trap
        self.community = community
        self.traps_received = 0
        self.decode_failures = 0

    def _on_datagram(self, data: bytes, src: tuple[str, int]) -> None:
        try:
            msg, _ = decode(data)
            if not isinstance(msg, Sequence) or len(msg.items) != 3:
                raise BerError("bad frame")
            _version, community, pdu = msg.items
            if not isinstance(pdu, TaggedPdu) or pdu.tag_value != PDU_TRAP_V2:
                raise BerError("not a v2 trap")
            if community.value.decode("latin-1") != self.community:
                return  # silently drop wrong community
            vb_list = pdu.items[3]
            pairs = []
            for vb in vb_list.items:
                name, value = vb.items
                pairs.append((OID.from_ber(name), value))
            uptime = pairs[0][1].value if pairs else 0
            trap_oid = OID.from_ber(pairs[1][1]) if len(pairs) > 1 else OID("0.0")
            notification = Notification(
                source=src,
                uptime_ticks=uptime,
                trap_oid=trap_oid,
                varbinds=tuple(pairs[2:]),
            )
        except (BerError, AttributeError, IndexError):
            self.decode_failures += 1
            return
        self.traps_received += 1
        self.on_trap(notification)
