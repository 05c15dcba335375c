"""Tests for multi-base-station handoff."""

import numpy as np
import pytest

from repro.core.events import ChatEvent
from repro.core.framework import CollaborationFramework
from repro.core.handoff import HandoffManager, Position


@pytest.fixture
def deployment():
    """Two cells 400 m apart, one roaming client near bs-west."""
    fw = CollaborationFramework("roam", objective="handoff test")
    wired = fw.add_wired_client("wired")
    west = fw.add_base_station("bs-west")
    east = fw.add_base_station("bs-east")
    client = fw.add_wireless_client("roamer", west, distance=50.0)
    wired.join()
    fw.run_for(0.2)

    hm = HandoffManager(fw.network, hysteresis_db=3.0)
    hm.add_station(west, Position(0.0, 0.0))
    hm.add_station(east, Position(400.0, 0.0))
    hm.add_client(client, Position(50.0, 0.0), serving_bs="bs-west")
    return fw, wired, west, east, client, hm


class TestGeometry:
    def test_position_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == 5.0

    def test_near_field_clamp(self):
        assert Position(0, 0).distance_to(Position(0.1, 0)) == 1.0

    def test_duplicate_station_rejected(self, deployment):
        fw, _, west, _, _, hm = deployment
        with pytest.raises(ValueError):
            hm.add_station(west, Position(1, 1))

    def test_unknown_serving_bs_rejected(self, deployment):
        fw, _, _, _, client, hm = deployment
        with pytest.raises(ValueError):
            hm.add_client(client, Position(0, 0), serving_bs="bs-nowhere")


class TestEvaluation:
    def test_sir_table_shape(self, deployment):
        _, _, _, _, _, hm = deployment
        table = hm.evaluate()
        assert set(table) == {"roamer"}
        assert set(table["roamer"]) == {"bs-east", "bs-west"}

    def test_nearer_station_stronger(self, deployment):
        _, _, _, _, _, hm = deployment
        table = hm.evaluate()
        assert table["roamer"]["bs-west"] > table["roamer"]["bs-east"]

    def test_move_syncs_serving_attachment(self, deployment):
        _, _, west, _, client, hm = deployment
        hm.move_client("roamer", Position(120.0, 0.0))
        assert west.attachments["roamer"].distance == pytest.approx(120.0)
        assert client.distance == pytest.approx(120.0)


class TestHandoff:
    def test_no_handoff_when_serving_is_best(self, deployment):
        _, _, _, _, _, hm = deployment
        assert hm.step() == []
        assert hm.serving_station("roamer") == "bs-west"

    def test_handoff_when_crossing_cells(self, deployment):
        fw, _, west, east, client, hm = deployment
        hm.move_client("roamer", Position(370.0, 0.0))  # deep in east cell
        events = hm.step()
        assert len(events) == 1
        ev = events[0]
        assert (ev.from_bs, ev.to_bs) == ("bs-west", "bs-east")
        assert ev.to_sir_db > ev.from_sir_db + 3.0
        # registries migrated
        assert "roamer" not in west.attachments
        assert east.attachments["roamer"].distance == pytest.approx(30.0)
        # radio link rewired
        fw.network.link("roamer", "bs-east")
        with pytest.raises(Exception):
            fw.network.link("roamer", "bs-west")
        # client control plane re-pointed
        assert client.bs_address == east.wireless_address

    def test_hysteresis_prevents_ping_pong(self, deployment):
        _, _, _, _, _, hm = deployment
        # midpoint: east is equal (or marginally different) — no handoff
        hm.move_client("roamer", Position(200.0, 0.0))
        assert hm.step() == []
        assert hm.serving_station("roamer") == "bs-west"

    def test_traffic_flows_after_handoff(self, deployment):
        fw, wired, _, east, client, hm = deployment
        hm.move_client("roamer", Position(370.0, 0.0))
        hm.step()
        east.evaluate_qos()
        client.send_event(ChatEvent(author="roamer", text="handed off ok"))
        fw.run_for(1.0)
        assert "roamer: handed off ok" in wired.chat.transcript

    def test_battery_carried_across_handoff(self, deployment):
        fw, _, west, east, client, hm = deployment
        west.update_attachment("roamer", battery=42.0)
        hm.move_client("roamer", Position(370.0, 0.0))
        hm.step()
        assert east.attachments["roamer"].battery == pytest.approx(42.0)


def walk_across(with_handoff):
    """Walk a client 20 -> 380 m between cells 400 m apart; the serving
    station's SIR at each of 19 points, and the handoffs made."""
    fw = CollaborationFramework("ho-walk", seed=0)
    west = fw.add_base_station("bs-west")
    east = fw.add_base_station("bs-east")
    client = fw.add_wireless_client("roamer", west, distance=20.0)
    hm = HandoffManager(fw.network, hysteresis_db=3.0)
    hm.add_station(west, Position(0.0, 0.0))
    hm.add_station(east, Position(400.0, 0.0))
    hm.add_client(client, Position(20.0, 0.0), serving_bs="bs-west")
    serving_sir = []
    for x in np.linspace(20.0, 380.0, 19):
        hm.move_client("roamer", Position(float(x), 0.0))
        if with_handoff:
            hm.step()
        serving_sir.append(hm.evaluate()["roamer"][hm.serving_station("roamer")])
    return np.array(serving_sir), hm.events


def test_handoff_preserves_service_across_the_walk():
    """Path updates of the wireless user: with handoff the client keeps
    usable SIR; stuck to one station, its service decays with d^-4."""
    with_ho, events = walk_across(True)
    without_ho, _ = walk_across(False)
    # exactly one handoff, into the east cell, once east is clearly better
    assert len(events) == 1
    assert events[0].to_bs == "bs-east"
    assert events[0].to_sir_db > events[0].from_sir_db + 3.0
    # the worst serving SIR of the walk is bounded by the crossover, not
    # by the far cell's decay (hysteresis holds the old cell a little)
    assert with_ho.min() > without_ho.min() + 8.0
    # far side: handoff keeps near-cell service, no-handoff decays
    assert with_ho[-1] > without_ho[-1] + 30.0
    # both equal while still in the west cell
    assert with_ho[0] == pytest.approx(without_ho[0])
