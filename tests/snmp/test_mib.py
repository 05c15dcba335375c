"""Tests for the MIB tree."""

import pytest

from repro.snmp.ber import Gauge32, OctetString
from repro.snmp.errors import ErrorStatus
from repro.snmp.mib import MibAccessError, MibBinding, MibTree
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
        assert len([o for o in tree.oids if o == TASSL.hostCpuLoad]) == 1


class TestGetNext:
    def test_next_in_order(self, tree):
        oid, value = tree.get_next(TASSL.hostCpuLoad)
        assert oid == TASSL.hostPageFaults
        assert value.value == 20

    def test_next_from_prefix(self, tree):
        oid, _ = tree.get_next(TASSL.root)
        assert oid == TASSL.hostCpuLoad

    def test_end_of_mib(self, tree):
        last = tree.oids[-1]
        with pytest.raises(MibAccessError):
            tree.get_next(last)


class TestSet:
    def test_set_through_setter(self):
        t = MibTree()
        box = {"v": 1}
        t.register(
            MibBinding(
                TASSL.hostCpuLoad,
                lambda: Gauge32(box["v"]),
                setter=lambda val: box.__setitem__("v", val.value),
            )
        )
        t.set(TASSL.hostCpuLoad, Gauge32(42))
        assert box["v"] == 42

    def test_set_readonly_raises(self, tree):
        with pytest.raises(MibAccessError) as ei:
            tree.set(TASSL.hostCpuLoad, Gauge32(1))
        assert ei.value.status == ErrorStatus.READ_ONLY

    def test_set_missing_raises(self, tree):
        with pytest.raises(MibAccessError) as ei:
            tree.set(OID("1.3.9.9.0"), Gauge32(1))
        assert ei.value.status == ErrorStatus.NO_SUCH_NAME


class TestLifecycle:
    def test_binding_writable_flag(self):
        b = MibBinding(TASSL.hostCpuLoad, lambda: Gauge32(1))
        assert not b.writable
        with pytest.raises(MibAccessError):
            b.write(Gauge32(2))
