"""Golden corpus for the dataflow rules — every known-bad snippet must fire.

Mirrors :mod:`tests.analysis.test_corpus`: each entry is a minimal program
exhibiting one cross-layer bug class (mixed units, dB for linear,
mis-scaled gauges, exceptions crossing dispatch boundaries) paired with
the rule code the verifier must raise.  The
flip side — clean idioms must NOT fire — is enforced alongside.
"""

import pytest

from repro.analysis import (
    build_call_graph_from_sources,
    compute_escaping_exceptions,
    compute_return_units,
    dataflow_diagnostics,
)


def codes_for(*sources):
    graph = build_call_graph_from_sources(list(sources))
    return {d.code for d in dataflow_diagnostics(graph)}


def diags_for(*sources):
    graph = build_call_graph_from_sources(list(sources))
    return dataflow_diagnostics(graph)


# ----------------------------------------------------------------------
# UNI: unit corpus
# ----------------------------------------------------------------------
BAD_UNITS = [
    (
        "cross-dimension-arithmetic",
        "def combine(delay_ms, size_bytes):\n"
        "    return delay_ms + size_bytes\n",
        "UNI001",
    ),
    (
        "db-for-linear-argument",
        # from_db (registry: wireless/sir.py) wants a dB argument; gamma
        # is conventionally a linear ratio in this tree
        "def bad(gamma):\n"
        "    return from_db(gamma)\n",
        "UNI002",
    ),
    (
        "rate-mix-bps-kbps",
        "def total(rate_bps, rate_kbps):\n"
        "    return rate_bps + rate_kbps\n",
        "UNI003",
    ),
    (
        "bandwidth-gauge-delivered-raw",
        # the TASSL linkBandwidth gauge is bytes/s on the wire: delivering
        # it under a `_bps` key without the *8 is the netstate bug class
        "def register(ns, TASSL, Probe):\n"
        '    ns.add_probe(Probe("h", TASSL.linkBandwidth, "bandwidth_bps"))\n',
        "UNI003",
    ),
    (
        "milliseconds-into-scheduler",
        "class Scheduler:\n"
        "    def call_after(self, delay, fn):\n"
        "        pass\n"
        "def arm(timeout_ms, fn):\n"
        "    sched = Scheduler()\n"
        "    sched.call_after(timeout_ms, fn)\n",
        "UNI004",
    ),
    (
        "latency-gauge-wrong-scale",
        # seconds -> microseconds needs 1e6, not 1e3
        "def bind(tree, TASSL, Gauge32, link):\n"
        "    tree.register_callable(\n"
        "        TASSL.linkLatencyUs, lambda: Gauge32(link.latency * 1000.0)\n"
        "    )\n",
        "UNI004",
    ),
    (
        "bytes-vs-bits-arithmetic",
        "def pad(header_bytes, body_bits):\n"
        "    return header_bytes - body_bits\n",
        "UNI005",
    ),
    (
        "declared-unit-vs-assigned-unit",
        "def sample(poll_interval_sec):\n"
        "    wait_ms = poll_interval_sec\n"
        "    return wait_ms\n",
        "UNI004",
    ),
]


@pytest.mark.parametrize("name,src,code", BAD_UNITS, ids=[c[0] for c in BAD_UNITS])
def test_bad_units_flagged(name, src, code):
    codes = codes_for(("corpus/units.py", src))
    assert code in codes, f"{name}: expected {code}, got {codes}"


GOOD_UNITS = [
    (
        "same-unit-arithmetic",
        "def total(first_bps, second_bps):\n"
        "    return first_bps + second_bps\n",
    ),
    (
        "explicit-conversion-through-registry",
        # to_db returns dB, and the variable says so: consistent
        "def convert(gamma):\n"
        "    sir_db = to_db(gamma)\n"
        "    return sir_db\n",
    ),
    (
        "bandwidth-gauge-with-correct-factor",
        "def register(ns, TASSL, Probe):\n"
        "    ns.add_probe(Probe(\n"
        '        "h", TASSL.linkBandwidth, "bandwidth_bps", lambda v: v * 8.0\n'
        "    ))\n",
    ),
    (
        "dimensionless-literals-mix-freely",
        "def scale(rate_bps):\n"
        "    return rate_bps + 1\n",
    ),
]


@pytest.mark.parametrize("name,src", GOOD_UNITS, ids=[c[0] for c in GOOD_UNITS])
def test_clean_units_not_flagged(name, src):
    codes = codes_for(("corpus/units.py", src))
    assert not {c for c in codes if c.startswith("UNI")}, f"{name}: {codes}"


def test_return_unit_summaries_propagate():
    graph = build_call_graph_from_sources(
        [
            (
                "corpus/units.py",
                "def headroom(margin_db):\n"
                "    return margin_db\n"
                "def floor(margin_db):\n"
                "    threshold = headroom(margin_db)\n"
                "    return threshold\n",
            )
        ]
    )
    units = compute_return_units(graph)
    assert units["units.headroom"] == "dB"
    assert units["units.floor"] == "dB"


# ----------------------------------------------------------------------
# EXC: exception-flow corpus
# ----------------------------------------------------------------------
_WIRE_PRELUDE = (
    "class WireError(Exception):\n"
    "    pass\n"
    "def parse(data):\n"
    "    if not data:\n"
    '        raise WireError("empty")\n'
    "    return data\n"
)

BAD_EXC = [
    (
        "codec-error-escapes-delivery-callback",
        _WIRE_PRELUDE
        + "def deliver(data, src):\n"
        "    parse(data)\n"
        "def attach(sock):\n"
        "    sock.on_receive = deliver\n",
        "EXC001",
    ),
    (
        "subclassed-wire-error-escapes-kwarg-callback",
        _WIRE_PRELUDE
        + "class RtpError(WireError):\n"
        "    pass\n"
        "def ingest(data):\n"
        '    raise RtpError("short fragment")\n'
        "def deliver(data, src):\n"
        "    ingest(data)\n"
        "def attach(Reassembler):\n"
        "    return Reassembler(on_payload=deliver)\n",
        "EXC001",
    ),
    (
        "leaking-callback-passed-positionally-to-endpoint",
        _WIRE_PRELUDE
        + "def deliver(delivery):\n"
        "    parse(delivery)\n"
        "def wire(SemanticEndpoint, net, group, profile):\n"
        '    return SemanticEndpoint(net, "h", group, profile, deliver)\n',
        "EXC001",
    ),
    (
        "leaking-callback-passed-positionally-to-trap-listener",
        _WIRE_PRELUDE
        + "def on_trap(trap):\n"
        "    parse(trap)\n"
        "def listen(TrapListener, net):\n"
        '    return TrapListener(net, "h", on_trap)\n',
        "EXC001",
    ),
    (
        "leaking-callback-passed-positionally-to-unicast-link",
        _WIRE_PRELUDE
        + "def on_message(message):\n"
        "    parse(message)\n"
        "def radio(UnicastSemanticLink, net):\n"
        '    return UnicastSemanticLink(net, "h", on_message)\n',
        "EXC001",
    ),
    (
        "scheduler-callback-raises",
        "def tick():\n"
        '    raise ValueError("boom")\n'
        "def arm(sched):\n"
        "    sched.call_after(1.0, tick)\n",
        "EXC002",
    ),
    (
        "silent-swallow-on-dispatch-path",
        "def pump(queue):\n"
        "    for item in queue:\n"
        "        try:\n"
        "            item.fire()\n"
        "        except Exception:\n"
        "            pass\n",
        "EXC003",
    ),
]


@pytest.mark.parametrize("name,src,code", BAD_EXC, ids=[c[0] for c in BAD_EXC])
def test_bad_exception_flow_flagged(name, src, code):
    # EXC003 only applies on dispatch-path files, so place the corpus there
    codes = codes_for(("corpus/messaging/pump.py", src))
    assert code in codes, f"{name}: expected {code}, got {codes}"


GOOD_EXC = [
    (
        "guarded-delivery-callback",
        _WIRE_PRELUDE
        + "def deliver(data, src):\n"
        "    try:\n"
        "        parse(data)\n"
        "    except WireError:\n"
        "        return\n"
        "def attach(sock):\n"
        "    sock.on_receive = deliver\n",
    ),
    (
        "counting-handler-is-not-a-swallow",
        "def pump(state, queue):\n"
        "    for item in queue:\n"
        "        try:\n"
        "            item.fire()\n"
        "        except Exception:\n"
        "            state.failures += 1\n",
    ),
    (
        "narrow-handler-outside-dispatch-path-may-pass",
        "def probe(item):\n"
        "    try:\n"
        "        item.fire()\n"
        "    except KeyError:\n"
        "        pass\n",
    ),
]


@pytest.mark.parametrize("name,src", GOOD_EXC, ids=[c[0] for c in GOOD_EXC])
def test_clean_exception_flow_not_flagged(name, src):
    codes = codes_for(("corpus/messaging/pump.py", src))
    assert not {c for c in codes if c.startswith("EXC")}, f"{name}: {codes}"


def test_escape_summaries_cross_try_boundaries():
    graph = build_call_graph_from_sources(
        [
            (
                "corpus/esc.py",
                _WIRE_PRELUDE
                + "def guarded(data):\n"
                "    try:\n"
                "        parse(data)\n"
                "    except WireError:\n"
                "        return None\n"
                "def unguarded(data):\n"
                "    return parse(data)\n",
            )
        ]
    )
    escapes = compute_escaping_exceptions(graph)
    assert "WireError" in escapes["esc.parse"]
    assert "WireError" in escapes["esc.unguarded"]
    assert "WireError" not in escapes["esc.guarded"]


# ----------------------------------------------------------------------
# suppression + severity plumbing
# ----------------------------------------------------------------------
def test_inline_suppression_silences_one_finding():
    src = (
        "def pad(header_bytes, body_bits):\n"
        "    return header_bytes - body_bits  # repro: ignore[UNI005]\n"
    )
    assert "UNI005" not in codes_for(("corpus/units.py", src))


def test_findings_carry_location_and_severity():
    src = (
        "def combine(delay_ms, size_bytes):\n"
        "    return delay_ms + size_bytes\n"
    )
    (diag,) = [d for d in diags_for(("corpus/units.py", src)) if d.code == "UNI001"]
    assert diag.file == "corpus/units.py"
    assert diag.line == 2
    assert diag.severity.name == "WARNING"


#: one module of every clean idiom at once: a decoder error caught at the
#: dispatch boundary, a callback wired to it, unit-suffixed arithmetic in
#: one unit, and a socket closed in ``finally``
CLEAN_MODULE = (
    "class WireError(Exception):\n"
    "    pass\n"
    "def parse_{i}(data):\n"
    "    if not data:\n"
    "        raise WireError('empty')\n"
    "    return data\n"
    "def deliver_{i}(data, src):\n"
    "    try:\n"
    "        parse_{i}(data)\n"
    "    except WireError:\n"
    "        return\n"
    "def attach_{i}(sock):\n"
    "    sock.on_receive = deliver_{i}\n"
    "def budget_{i}(rate_bps, margin_db):\n"
    "    window_bps = rate_bps + {i}\n"
    "    return window_bps\n"
    "def poll_{i}(net):\n"
    "    sock = DatagramSocket(net, 'a')\n"
    "    try:\n"
    "        sock.sendto(b'x', ('b', 7))\n"
    "    finally:\n"
    "        sock.close()\n"
)


def test_a_tree_of_clean_modules_has_no_finding():
    sources = [(f"src/pkg/mod{i}.py", CLEAN_MODULE.replace("{i}", str(i))) for i in range(10)]
    graph = build_call_graph_from_sources(sources)
    assert len(graph.functions) == 10 * 5  # five functions per module
    assert dataflow_diagnostics(graph) == []
