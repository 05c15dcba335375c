"""Span arithmetic, wrapper semantics, binding-site patching and un-patching."""

import importlib
import threading

import pytest

from bench.trace import Tracer, self_times


def test_self_time_is_duration_minus_children_on_a_synthetic_nest():
    #   0: root   [0, 10]
    #   1:   a    [1, 4]
    #   2:     b  [2, 3]
    #   3:   a    [5, 9]
    #   4: root2  [11, 12]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    assert self_times(starts, ends, parents).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]
    # nothing is counted twice: self times add up to the roots' durations
    assert self_times(starts, ends, parents).sum() == 10.0 + 1.0


def test_wrapper_records_parent_op_and_merges_same_name_recursion():
    tracer = Tracer()

    def leaf():
        return 1

    leaf_t = tracer.wrap("leaf", leaf)

    def fact(n):
        return 1 if n == 0 else n * fact_t(n - 1) * leaf_t()

    fact_t = tracer.wrap("fact", fact)
    assert fact_t(3) == 6 and not len(tracer.starts)  # paused: straight through
    tracer.begin_op(7)
    assert fact_t(3) == 6
    tracer.end_op()
    names = [tracer.names[i] for i in tracer.name_ids]
    # the recursion into fact() under an open fact span is not a new entry
    assert names == ["fact", "leaf", "leaf", "leaf"]
    assert list(tracer.parents) == [-1, 0, 0, 0]
    assert set(tracer.ops) == {7}
    agg = tracer.aggregate()
    assert agg["fact"]["calls"] == 1 and agg["leaf"]["calls"] == 3
    total = sum(rec["self_ms"] for rec in agg.values())
    assert total == pytest.approx(tracer.covered_seconds() * 1e3)


def test_other_threads_pass_straight_through():
    tracer = Tracer()
    wrapped = tracer.wrap("work", lambda: threading.get_ident())
    tracer.begin_op(0)
    worker = threading.Thread(target=wrapped)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive() and not len(tracer.starts)
    wrapped()
    assert len(tracer.starts) == 1


def test_function_is_rebound_at_every_binding_site_and_restored():
    ezw = importlib.import_module("repro.media.ezw")
    progressive = importlib.import_module("repro.media.progressive")
    sir = importlib.import_module("repro.wireless.sir")
    basestation = importlib.import_module("repro.core.basestation")
    original_encode, original_sir = ezw.encode_image, sir.sir_db
    assert progressive.encode_image is original_encode
    assert basestation.compute_sir_db is original_sir  # imported under an alias

    tracer = Tracer()
    assert tracer.patch_function("repro.media.ezw", "encode_image", "media.ezw_encode") >= 2
    tracer.patch_function("repro.wireless.sir", "sir_db", "wireless.sir")
    assert ezw.encode_image is not original_encode
    assert progressive.encode_image is ezw.encode_image
    assert basestation.compute_sir_db is sir.sir_db is not original_sir

    tracer.uninstall()
    assert ezw.encode_image is progressive.encode_image is original_encode
    assert basestation.compute_sir_db is sir.sir_db is original_sir


def test_methods_keep_their_kind_and_subclass_overrides_are_found():
    from repro.core.events import ChatEvent, Event
    from repro.media.progressive import ImagePacket

    raw_from_bytes = ImagePacket.__dict__["from_bytes"]
    raw_to_body = ChatEvent.__dict__["to_body"]
    tracer = Tracer()
    tracer.install(
        [
            ("media.packet_codec", "repro.media.progressive:ImagePacket.from_bytes"),
            ("core.event_codec", "repro.core.events:Event.to_body+"),
        ]
    )
    try:
        assert isinstance(ImagePacket.__dict__["from_bytes"], classmethod)
        packet = ImagePacket(0, 1, ((b"ab", 16),))
        tracer.begin_op(0)
        assert ImagePacket.from_bytes(packet.to_bytes()) == packet
        assert ChatEvent(author="a", text="hi").to_body() == raw_to_body(ChatEvent("a", "hi"))
        tracer.end_op()
        assert {name: rec["calls"] for name, rec in tracer.aggregate().items()} == {
            "media.packet_codec": 1,
            "core.event_codec": 1,
        }
    finally:
        tracer.uninstall()
    assert ImagePacket.__dict__["from_bytes"] is raw_from_bytes
    assert ChatEvent.__dict__["to_body"] is raw_to_body
    assert "to_body" in Event.__dict__
