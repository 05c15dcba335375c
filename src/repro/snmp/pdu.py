"""SNMPv1/v2c messages: the one place the envelope is built and parsed.

Every message the agent, the managers and the trap path exchange has one
RFC 1157 / RFC 3416 frame::

    SEQUENCE {
        INTEGER version          -- 0 = v1, 1 = v2c
        OCTET STRING community
        PDU {                     -- context tag: GET, RESPONSE or TRAP_V2
            INTEGER request-id
            INTEGER error-status  -- 0 in a request
            INTEGER error-index   -- 0 in a request
            SEQUENCE OF SEQUENCE { OID, value }   -- varbind list
        }
    }

:class:`SnmpMessage` is that frame as plain fields.  :meth:`~SnmpMessage.to_bytes`
calls :func:`~repro.snmp.ber.encode` once and :meth:`~SnmpMessage.from_bytes`
calls :func:`~repro.snmp.ber.decode` once; the parse refuses anything but
a well-formed frame of the three PDUs in use (GET, its RESPONSE and the
v2c trap), so callers only read fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ber import Integer, ObjectIdentifierValue, OctetString, Sequence, TaggedPdu, decode, encode
from .errors import ErrorStatus, SnmpErrorResponse, SnmpProtocolError
from .oids import OID

__all__ = [
    "SnmpMessage", "VarBind", "PDU_GET", "PDU_RESPONSE", "PDU_TRAP_V2", "VERSION_1", "VERSION_2C",
    "SNMP_PORT", "TRAP_PORT",
]

PDU_GET = 0xA0
PDU_RESPONSE = 0xA2
PDU_TRAP_V2 = 0xA7

VERSION_1 = 0
VERSION_2C = 1

#: Standard agent port.
SNMP_PORT = 161
#: Standard notification (trap) port.
TRAP_PORT = 162

#: PDUs that exist only in SNMPv2c; a v1 frame carrying one is malformed.
_V2C_ONLY = frozenset((PDU_TRAP_V2,))
_PDU_TAGS = frozenset((PDU_GET, PDU_RESPONSE)) | _V2C_ONLY

#: A (oid, value) pair; the value is a BER object.
VarBind = tuple[OID, object]


@dataclass(frozen=True)
class SnmpMessage:
    """One SNMP message.

    ``slot1`` / ``slot2`` are the PDU's error-status / error-index.  The
    community travels as octets; here it is their latin-1 text, which maps
    every octet string to a distinct ``str`` and back.
    """

    version: int
    community: str
    tag: int
    request_id: int
    slot1: int
    slot2: int
    varbinds: tuple[VarBind, ...]

    def to_bytes(self) -> bytes:
        """The message's BER encoding."""
        varbinds = Sequence(tuple([Sequence((oid.to_ber(), value)) for oid, value in self.varbinds]))
        fields = (Integer(self.request_id), Integer(self.slot1), Integer(self.slot2), varbinds)
        community = OctetString(self.community.encode("latin-1"))
        return encode(Sequence((Integer(self.version), community, TaggedPdu(self.tag, fields))))

    @classmethod
    def from_bytes(cls, data: bytes) -> "SnmpMessage":
        """Parse one message; bytes after it are ignored.

        Raises :class:`~repro.snmp.ber.BerError` on malformed BER and
        :class:`~repro.snmp.errors.SnmpProtocolError` on well-formed BER
        that is not an SNMP message: a frame other than a 3-element
        SEQUENCE, a version other than v1 / v2c, a community that is not
        an OCTET STRING, a PDU tag other than GET, RESPONSE or TRAP_V2
        (GETNEXT, SET and GETBULK included), a v2c-only PDU in a v1 frame,
        a PDU other than three INTEGERs and a SEQUENCE, or a varbind other
        than an (OID, value) pair.
        """
        message, _ = decode(data)
        if not isinstance(message, Sequence) or len(message.items) != 3:
            raise SnmpProtocolError("message is not a 3-element SEQUENCE")
        version, community, pdu = message.items
        if not isinstance(version, Integer) or version.value not in (VERSION_1, VERSION_2C):
            raise SnmpProtocolError(f"unsupported version {version!r}")
        if not isinstance(community, OctetString) or not isinstance(pdu, TaggedPdu):
            raise SnmpProtocolError("malformed community or PDU")
        if pdu.tag_value not in _PDU_TAGS:
            raise SnmpProtocolError(f"unexpected PDU tag 0x{pdu.tag_value:02X}")
        if pdu.tag_value in _V2C_ONLY and version.value != VERSION_2C:
            raise SnmpProtocolError(f"PDU 0x{pdu.tag_value:02X} requires SNMPv2c")
        if len(pdu.items) != 4:
            raise SnmpProtocolError("PDU must have 4 elements")
        request_id, slot1, slot2, varbind_list = pdu.items
        if not (
            isinstance(request_id, Integer) and isinstance(slot1, Integer) and isinstance(slot2, Integer)
        ):
            raise SnmpProtocolError("request-id, error-status and error-index must be INTEGERs")
        if not isinstance(varbind_list, Sequence):
            raise SnmpProtocolError("malformed varbind list")
        varbinds: list[VarBind] = []
        for vb in varbind_list.items:
            if not isinstance(vb, Sequence) or len(vb.items) != 2:
                raise SnmpProtocolError("malformed varbind")
            name, value = vb.items
            if not isinstance(name, ObjectIdentifierValue):
                raise SnmpProtocolError("varbind name is not an OID")
            varbinds.append((OID.from_ber(name), value))
        return cls(
            version.value, community.value.decode("latin-1"), pdu.tag_value,
            request_id.value, slot1.value, slot2.value, tuple(varbinds),
        )

    def result(self) -> list[VarBind]:
        """A response's varbinds; raises
        :class:`~repro.snmp.errors.SnmpErrorResponse` on an error status."""
        if self.slot1 != ErrorStatus.NO_ERROR:
            raise SnmpErrorResponse(self.slot1, self.slot2)
        return list(self.varbinds)
