"""Tests for the MIB tree."""

import pytest

from repro.snmp.ber import Gauge32, OctetString
from repro.snmp.errors import ErrorStatus
from repro.snmp.mib import MibAccessError, MibTree
from repro.snmp.oids import OID, TASSL


@pytest.fixture
def tree():
    t = MibTree()
    t.register_scalar(OID("1.3.6.1.2.1.1.5.0"), OctetString(b"host"))
    t.register_scalar(TASSL.hostCpuLoad, Gauge32(10))
    t.register_scalar(TASSL.hostPageFaults, Gauge32(20))
    return t


class TestGet:
    def test_exact_get(self, tree):
        assert tree.get(TASSL.hostCpuLoad) == Gauge32(10)

    def test_missing_raises_no_such_name(self, tree):
        with pytest.raises(MibAccessError) as ei:
            tree.get(OID("1.3.9.9.0"))
        assert ei.value.status == ErrorStatus.NO_SUCH_NAME

    def test_callable_binding_is_live(self):
        t = MibTree()
        box = {"v": 1}
        t.register_callable(TASSL.hostCpuLoad, lambda: Gauge32(box["v"]))
        assert t.get(TASSL.hostCpuLoad).value == 1
        box["v"] = 99
        assert t.get(TASSL.hostCpuLoad).value == 99

    def test_reregistration_replaces(self, tree):
        tree.register_scalar(TASSL.hostCpuLoad, Gauge32(55))
        assert tree.get(TASSL.hostCpuLoad).value == 55
