"""From-scratch SNMP substrate (BER codec, MIB, agent, manager).

Implements the SNMPv1/v2c subset the paper's network-state interface
needs: GET / GETNEXT / SET of scalar MIB objects over datagrams.
"""

from .ber import (
    BerError,
    Counter32,
    Counter64,
    EndOfMibView,
    Gauge32,
    Integer,
    IpAddress,
    NoSuchInstance,
    NoSuchObject,
    Null,
    ObjectIdentifierValue,
    OctetString,
    Sequence,
    TaggedPdu,
    TimeTicks,
    decode,
    encode,
)
from .oids import MIB2, OID, TASSL
from .mib import MibAccessError, MibBinding, MibTree
from .pdu import SNMP_PORT, SnmpMessage
from .agent import SnmpAgent
from .manager import SnmpManager
from .switch_binding import attach_switch_agent, build_switch_mib
from .traps import (
    Notification,
    ThresholdWatch,
    TrapListener,
    TrapSender,
    TRAP_PORT,
)
from .errors import (
    ErrorStatus,
    SnmpError,
    SnmpErrorResponse,
    SnmpProtocolError,
    SnmpTimeout,
)

__all__ = [
    "BerError",
    "Counter32",
    "Counter64",
    "EndOfMibView",
    "Gauge32",
    "Integer",
    "IpAddress",
    "NoSuchInstance",
    "NoSuchObject",
    "Null",
    "ObjectIdentifierValue",
    "OctetString",
    "Sequence",
    "TaggedPdu",
    "TimeTicks",
    "decode",
    "encode",
    "MIB2",
    "OID",
    "TASSL",
    "MibAccessError",
    "MibBinding",
    "MibTree",
    "SNMP_PORT",
    "SnmpMessage",
    "SnmpAgent",
    "SnmpManager",
    "attach_switch_agent",
    "Notification",
    "ThresholdWatch",
    "TrapListener",
    "TrapSender",
    "TRAP_PORT",
    "build_switch_mib",
    "ErrorStatus",
    "SnmpError",
    "SnmpErrorResponse",
    "SnmpProtocolError",
    "SnmpTimeout",
]
