"""Tests for the OID type and well-known arcs."""

import pytest
from hypothesis import given, strategies as st

from repro.snmp.ber import BerError
from repro.snmp.oids import MIB2, OID, TASSL


class TestConstruction:
    def test_from_string(self):
        assert OID("1.3.6.1").arcs == (1, 3, 6, 1)

    def test_leading_dot_tolerated(self):
        assert OID(".1.3.6").arcs == (1, 3, 6)

    def test_from_iterable(self):
        assert OID([1, 3, 6]).arcs == (1, 3, 6)

    def test_from_oid_copy(self):
        a = OID("1.3.6")
        assert OID(a) == a

    def test_too_short_rejected(self):
        with pytest.raises(BerError):
            OID("1")

    def test_garbage_rejected(self):
        with pytest.raises(BerError):
            OID("1.3.x")
        with pytest.raises(BerError):
            OID("")

    def test_negative_arc_rejected(self):
        with pytest.raises(BerError):
            OID((1, -3))


class TestAlgebra:
    def test_child_and_instance(self):
        base = OID("1.3.6.1")
        assert base.child(2, 1) == OID("1.3.6.1.2.1")
        assert base.instance() == OID("1.3.6.1.0")

    def test_hashable(self):
        assert len({OID("1.3.6"), OID("1.3.6"), OID("1.3.7")}) == 2

    def test_str_roundtrip(self):
        assert str(OID("1.3.6.1.4.1.4392")) == "1.3.6.1.4.1.4392"

    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=8))
    def test_string_roundtrip_property(self, arcs):
        oid = OID(arcs)
        assert OID(str(oid)) == oid

    def test_ber_roundtrip(self):
        oid = OID("1.3.6.1.2.1.1.1.0")
        assert OID.from_ber(oid.to_ber()) == oid


def under(root, oid):
    """True when ``oid`` lies in the subtree rooted at ``root``."""
    return oid.arcs[: len(root.arcs)] == root.arcs


class TestWellKnown:
    def test_mib2_arcs(self):
        assert str(MIB2.sysDescr) == "1.3.6.1.2.1.1.1.0"
        assert str(MIB2.sysUpTime) == "1.3.6.1.2.1.1.3.0"
        assert under(MIB2.root, MIB2.ifInOctets)

    def test_tassl_arcs_are_scalars(self):
        for oid in (
            TASSL.hostCpuLoad,
            TASSL.hostPageFaults,
            TASSL.hostFreeMemory,
            TASSL.linkBandwidth,
        ):
            assert oid.arcs[-1] == 0
            assert under(TASSL.root, oid)

    def test_tassl_disjoint_from_mib2(self):
        assert not under(MIB2.root, TASSL.root)
        assert not under(TASSL.root, MIB2.root)
