"""Base-station attachment admits every client: the tier follows its SIR."""

import pytest

from repro.core.framework import CollaborationFramework


@pytest.fixture
def cell():
    fw = CollaborationFramework("adm")
    bs = fw.add_base_station("bs")
    return fw, bs


class TestAdmissionControl:
    def test_no_min_tier_admits_anything(self, cell):
        fw, bs = cell
        fw.add_wireless_client("near", bs, distance=40.0)
        att = bs.attach("weak", ("weak", 1), distance=200.0, tx_power=0.1)
        assert att.client_id == "weak"
