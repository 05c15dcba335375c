"""The SNMP message codec, and the settings it let go."""

import inspect

import pytest

from repro.core.netstate import NetworkStateInterface
from repro.snmp.ber import BerError, Gauge32, Integer, Null, OctetString, Sequence, TaggedPdu, encode
from repro.snmp.errors import SnmpErrorResponse, SnmpProtocolError
from repro.snmp.manager import SnmpManager
from repro.snmp.oids import TASSL
from repro.snmp.pdu import (
    PDU_GET,
    PDU_GETBULK,
    PDU_RESPONSE,
    PDU_TRAP_V2,
    VERSION_1,
    VERSION_2C,
    SnmpMessage,
)
from repro.snmp.traps import ThresholdWatch, TrapListener, TrapSender

CPU = ((TASSL.hostCpuLoad, Null()),)
PUBLIC = OctetString(b"public")
NAMED_BY_INTEGER = Sequence((Integer(7), Null()))


def frame(version, community, fields, tag=PDU_GET):
    return Sequence((version, community, TaggedPdu(tag, fields)))


class TestSnmpMessage:
    def test_round_trip(self):
        message = SnmpMessage(VERSION_2C, "pub\xe9", PDU_GETBULK, -7, 1, 20, CPU)
        assert SnmpMessage.from_bytes(message.to_bytes()) == message

    def test_trailing_bytes_ignored(self):
        message = SnmpMessage(VERSION_1, "public", PDU_GET, 1, 0, 0, CPU)
        assert SnmpMessage.from_bytes(message.to_bytes() + b"\x00junk") == message

    @pytest.mark.parametrize("tag", [PDU_GETBULK, PDU_TRAP_V2])
    def test_v2c_pdu_in_v1_frame_refused(self, tag):
        with pytest.raises(SnmpProtocolError):
            SnmpMessage.from_bytes(SnmpMessage(VERSION_1, "public", tag, 1, 0, 0, CPU).to_bytes())

    @pytest.mark.parametrize(
        "message",
        [
            Integer(1),
            Sequence((Integer(1), PUBLIC)),
            frame(Integer(2), PUBLIC, ()),
            frame(Integer(1), Integer(5), ()),
            frame(Integer(1), PUBLIC, (), tag=0xA4),
            frame(Integer(1), PUBLIC, (Integer(1), Integer(0))),
            frame(Integer(1), PUBLIC, (Integer(1), Null(), Integer(0), Sequence(()))),
            frame(Integer(1), PUBLIC, (Integer(1), Integer(0), Integer(0), Null())),
            frame(Integer(1), PUBLIC, (Integer(1), Integer(0), Integer(0), Sequence((Integer(7),)))),
            frame(Integer(1), PUBLIC, (Integer(1), Integer(0), Integer(0), Sequence((NAMED_BY_INTEGER,)))),
        ],
        ids=[
            "not a SEQUENCE",
            "2 elements",
            "version 2",
            "INTEGER community",
            "unknown tag",
            "2-item PDU",
            "NULL error-status",
            "NULL varbind list",
            "varbind not a pair",
            "varbind name not an OID",
        ],
    )
    def test_refuses_what_is_not_a_message(self, message):
        with pytest.raises(SnmpProtocolError):
            SnmpMessage.from_bytes(encode(message))

    def test_malformed_ber_raises_ber_error(self):
        with pytest.raises(BerError):
            SnmpMessage.from_bytes(b"\x30\x05\x02")

    def test_result_raises_the_error_status(self):
        response = SnmpMessage(VERSION_2C, "public", PDU_RESPONSE, 1, 2, 1, CPU)
        with pytest.raises(SnmpErrorResponse) as ei:
            response.result()
        assert (ei.value.status, ei.value.index) == (2, 1)
        ok = SnmpMessage(VERSION_2C, "public", PDU_RESPONSE, 1, 0, 0, ((TASSL.hostCpuLoad, Gauge32(3)),))
        assert ok.result() == [(TASSL.hostCpuLoad, Gauge32(3))]


#: every settable value, per class: the deployment's own (sockets, hosts,
#: the community credential), what a caller in src/ sets, and the
#: manager's timeout / retries, which differ between a client and its
#: network-state interface
SIGNATURES = {
    SnmpManager: ["socket", "scheduler", "community", "timeout", "retries"],
    NetworkStateInterface: ["network", "host", "community"],
    ThresholdWatch: [
        "scheduler", "sender", "dest", "oid", "sample", "threshold", "trap_oid", "direction", "interval"
    ],
    TrapSender: ["network", "host", "community"],
    TrapListener: ["network", "host", "on_trap", "community"],
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_settings_are_constants(cls):
    assert list(inspect.signature(cls.__init__).parameters)[1:] == SIGNATURES[cls]
