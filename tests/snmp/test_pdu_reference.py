"""Hypothesis properties: the SNMP message codec equals the hand-written
builders and parsers it replaced.

``reference_pdu.py`` keeps those builders and parsers verbatim.  The
properties:

* GET / GETNEXT / SET / GETBULK requests, GetResponses (values, the v1
  error echo, GETBULK) and traps encode to the reference's bytes;
* on valid, structurally malformed, bit-flipped, truncated and arbitrary
  bytes, the agent sends the reference's reply (or none), and a
  manager's GET returns the reference's varbinds, raises its error
  status, or gets nothing;
* the trap listener never raises, and delivers only what the reference
  delivered, equal.

Inputs where the codec is deliberately stricter than one of the old
parsers are named by a predicate, and there the codec must refuse:

* an agent request whose error-status or error-index is not an INTEGER
  (the old agent served it);
* a GetResponse whose version is not v1 / v2c or whose community is not
  an OCTET STRING, or whose non-zero error-status comes with a malformed
  varbind list (the old manager raised the error status);
* a trap other than a v2c frame of INTEGER fields that leads with
  ``sysUpTime.0`` (TimeTicks) and ``snmpTrapOID.0`` (an OID).

CI runs this file again under ``--hypothesis-profile=deep``.
"""

from hypothesis import example, given, settings, strategies as st

from repro.network.clock import Scheduler
from repro.network.simnet import Network
from repro.network.udp import DatagramSocket
from repro.snmp.agent import SnmpAgent
from repro.snmp.ber import (
    BerError,
    Counter32,
    Gauge32,
    Integer,
    IpAddress,
    Null,
    ObjectIdentifierValue,
    OctetString,
    Sequence,
    TaggedPdu,
    TimeTicks,
    decode,
    encode,
)
from repro.snmp.errors import SnmpErrorResponse, SnmpTimeout
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import MibTree
from repro.snmp.oids import MIB2, OID, TASSL
from repro.snmp.pdu import (
    PDU_GET,
    PDU_GETBULK,
    PDU_GETNEXT,
    PDU_RESPONSE,
    PDU_SET,
    PDU_TRAP_V2,
    VERSION_1,
    VERSION_2C,
    SnmpMessage,
)
from repro.snmp.traps import TrapListener, TrapSender, snmpTrapOID

from . import reference_pdu as ref

# explicit settings would shadow --hypothesis-profile=deep, so tier-1's
# budget steps aside when a larger profile is loaded
BUDGET = settings() if settings().max_examples > 100 else settings(max_examples=100, deadline=None)

SRC = ("mgr", 40000)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
MIB_OIDS = [
    MIB2.sysName, TASSL.hostCpuLoad, TASSL.hostPageFaults, MIB2.ifInOctets.child(1), MIB2.ifInOctets.child(2)
]
OFF_MIB = [MIB2.system, MIB2.ifInOctets, OID("1.3"), OID("1.3.9.9.9.0"), OID("2.999.1")]
OIDS = st.one_of(
    st.sampled_from(MIB_OIDS + OFF_MIB),
    st.lists(st.integers(0, 2**32), min_size=0, max_size=6).map(lambda tail: OID((1, 3, *tail))),
)
VALUES = st.one_of(
    st.just(Null()),
    st.integers(-(2**40), 2**40).map(Integer),
    st.integers(0, 2**32 - 1).map(Gauge32),
    st.integers(0, 2**32 - 1).map(TimeTicks),
    st.binary(max_size=20).map(OctetString),
    st.binary(min_size=4, max_size=4).map(IpAddress),
    OIDS.map(OID.to_ber),
)
VARBINDS = st.lists(st.tuples(OIDS, VALUES), max_size=5)
COMMUNITIES = st.one_of(
    st.sampled_from(["public", "public", "private", "wrong", ""]),
    st.sampled_from(["public", "private"]),
    st.binary(max_size=12).map(lambda b: b.decode("latin-1")),
)
INTS = st.one_of(st.integers(-3, 30), st.integers(-(2**40), 2**40))
REQUEST_TAGS = st.sampled_from([PDU_GET, PDU_GETNEXT, PDU_SET, PDU_GETBULK])


@st.composite
def requests(draw):
    """``(version, community, tag, request_id, varbinds, slot1, slot2)``."""
    tag = draw(REQUEST_TAGS)
    version = VERSION_2C if tag == PDU_GETBULK else draw(st.sampled_from([VERSION_1, VERSION_2C]))
    return (version, draw(COMMUNITIES), tag, draw(INTS), draw(VARBINDS), draw(INTS), draw(INTS))


def any_ber(leaf=None):
    leaves = leaf or st.one_of(VALUES, st.just(Counter32(1)))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(lambda items: Sequence(tuple(items))),
            st.tuples(st.integers(0xA0, 0xA8), st.lists(inner, max_size=3)).map(
                lambda t: TaggedPdu(t[0], tuple(t[1]))
            ),
        ),
        max_leaves=6,
    )


def maybe(proper, wrong=None):
    """Mostly the well-formed element, sometimes any other BER value."""
    return st.one_of(proper, proper, proper, wrong if wrong is not None else any_ber())


VARBIND_TLVS = maybe(
    st.tuples(OIDS, VALUES).map(lambda vb: Sequence((vb[0].to_ber(), vb[1]))),
    st.one_of(
        st.lists(VALUES, max_size=3).map(lambda items: Sequence(tuple(items))),
        st.tuples(OIDS, VALUES, VALUES).map(lambda t: Sequence((t[0].to_ber(), t[1], t[2]))),
        VALUES,
    ),
)


@st.composite
def frames(draw, tags=st.one_of(REQUEST_TAGS, st.integers(0xA0, 0xA8))):
    """Well-formed BER shaped like an SNMP message, each field sometimes
    of the wrong type or count."""
    version = draw(
        maybe(
            st.sampled_from([Integer(VERSION_1), Integer(VERSION_2C)]),
            st.sampled_from([Integer(99), Integer(-1), OctetString(b"\x01"), Null()]),
        )
    )
    community = draw(
        maybe(
            COMMUNITIES.map(lambda c: OctetString(c.encode("latin-1"))),
            st.sampled_from([Integer(5), IpAddress(b"publ"), Null()]),
        )
    )
    varbinds = draw(maybe(st.lists(VARBIND_TLVS, max_size=4).map(lambda vbs: Sequence(tuple(vbs)))))
    items = [draw(maybe(INTS.map(Integer))) for _ in range(3)] + [varbinds]
    # mostly four items; sometimes fewer or more
    if draw(st.integers(0, 2)) == 0:
        items = (items + items)[: draw(st.integers(0, 5))]
    pdu = TaggedPdu(draw(tags), tuple(items))
    whole = (version, community, pdu)
    message = draw(st.sampled_from([whole, whole, (version, pdu), (*whole, Null())]))
    return encode(draw(st.one_of(st.just(Sequence(message)), st.just(Sequence(message)), any_ber())))


def mutate(data: bytes, edits: list[tuple[str, int, int]]) -> bytes:
    """Apply ``(op, position, byte)`` edits: flip bits, truncate, insert."""
    out = bytearray(data)
    for op, at, byte in edits:
        if not out:
            break
        at %= len(out)
        if op == "flip":
            out[at] ^= byte or 1
        elif op == "cut":
            del out[at:]
        else:
            out.insert(at, byte)
    return bytes(out)


EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "flip", "cut", "insert"]), st.integers(0, 2**16), st.integers(0, 255)),
    min_size=1,
    max_size=4,
)


@st.composite
def hostile(draw, valid, tags=st.one_of(REQUEST_TAGS, st.integers(0xA0, 0xA8))):
    """Valid bytes, structurally malformed frames, their mutations, and
    arbitrary bytes."""
    data = draw(st.one_of(valid, frames(tags)))
    kind = draw(st.sampled_from(["as-is", "as-is", "mutated", "prefix", "arbitrary"]))
    if kind == "mutated":
        return mutate(data, draw(EDITS))
    if kind == "prefix":
        return data[: draw(st.integers(0, max(len(data) - 1, 0)))]
    if kind == "arbitrary":
        return draw(st.binary(max_size=64))
    return data


def _message(version, community, tag, fields):
    return encode(Sequence((version, community, TaggedPdu(tag, fields))))


PUBLIC = OctetString(b"public")
CPU_GET = Sequence((Sequence((TASSL.hostCpuLoad.to_ber(), Null())),))
CPU_VALUE = Sequence((Sequence((TASSL.hostCpuLoad.to_ber(), Gauge32(42))),))
BAD_VARBIND = Sequence((Integer(7),))

#: every rule where the codec and an old parser part ways, once each
EDGE_REQUESTS = [
    _message(Integer(VERSION_1), PUBLIC, PDU_GETBULK, (Integer(1), Integer(0), Integer(3), CPU_GET)),
    _message(Integer(VERSION_2C), PUBLIC, PDU_GET, (Integer(1), Null(), Integer(0), CPU_GET)),
    _message(Integer(VERSION_2C), PUBLIC, PDU_GETBULK, (Integer(1), Integer(0), OctetString(b"3"), CPU_GET)),
]
EDGE_RESPONSES = [
    _message(Integer(99), PUBLIC, PDU_RESPONSE, (Integer(1), Integer(0), Integer(0), CPU_VALUE)),
    _message(Integer(VERSION_2C), Integer(5), PDU_RESPONSE, (Integer(1), Integer(0), Integer(0), CPU_VALUE)),
    _message(Integer(VERSION_2C), PUBLIC, PDU_RESPONSE, (Integer(1), Integer(2), Integer(1), BAD_VARBIND)),
    _message(Integer(VERSION_2C), PUBLIC, PDU_RESPONSE, (Integer(1), Null(), Integer(0), CPU_VALUE)),
    _message(Integer(VERSION_1), PUBLIC, PDU_RESPONSE, (Integer(1), Integer(2), Integer(1), CPU_VALUE)),
    _message(Integer(VERSION_1), PUBLIC, PDU_TRAP_V2, (Integer(1), Integer(0), Integer(0), CPU_VALUE)),
]


def with_examples(examples, wrap=lambda e: e):
    def decorate(test):
        for e in examples:
            test = example(wrap(e))(test)
        return test

    return decorate


# ----------------------------------------------------------------------
# the predicates naming where the codec is stricter
# ----------------------------------------------------------------------
def _frame(data):
    """``(version, community, pdu)`` when ``data`` decodes to a 3-element
    SEQUENCE whose last item is a 4-item PDU, else None."""
    try:
        message, _ = decode(data)
    except BerError:
        return None
    if not isinstance(message, Sequence) or len(message.items) != 3:
        return None
    version, community, pdu = message.items
    if not isinstance(pdu, TaggedPdu) or len(pdu.items) != 4:
        return None
    return version, community, pdu


def _varbinds_malformed(vb_list):
    if not isinstance(vb_list, Sequence):
        return True
    return any(
        not (isinstance(vb, Sequence) and len(vb.items) == 2)
        or not isinstance(vb.items[0], ObjectIdentifierValue)
        for vb in vb_list.items
    )


def agent_stricter(data):
    frame = _frame(data)
    return frame is not None and not all(isinstance(v, Integer) for v in frame[2].items[1:3])


def manager_stricter(data):
    frame = _frame(data)
    if frame is None:
        return False
    version, community, pdu = frame
    good_version = isinstance(version, Integer) and version.value in (VERSION_1, VERSION_2C)
    bad_envelope = not good_version or not isinstance(community, OctetString)
    status = pdu.items[1]
    masked = isinstance(status, Integer) and status.value != 0 and _varbinds_malformed(pdu.items[3])
    return bad_envelope or masked


# ----------------------------------------------------------------------
# the two sides
# ----------------------------------------------------------------------
def build_mib():
    tree = MibTree()
    box = {"cpu": Gauge32(42)}
    tree.register_scalar(MIB2.sysName, OctetString(b"host1"))
    tree.register_scalar(MIB2.ifInOctets.child(1), Counter32(100))
    tree.register_scalar(MIB2.ifInOctets.child(2), Counter32(200))
    tree.register_callable(TASSL.hostCpuLoad, lambda: box["cpu"], setter=lambda v: box.__setitem__("cpu", v))
    tree.register_scalar(TASSL.hostPageFaults, Gauge32(7))
    return tree


class StubSocket:
    """A DatagramTransport that records sends and delivers nothing."""

    def __init__(self, on_send=None):
        self.port = None
        self.on_receive = None
        self.sent = []
        self.on_send = on_send

    def bind(self, port):
        self.port = port

    def bind_ephemeral(self):
        self.port = 40000
        return self.port

    def sendto(self, data, dest):
        self.sent.append(data)
        if self.on_send is not None:
            self.on_send(data, dest)
        return True

    def close(self):
        pass


def agent_pair():
    return SnmpAgent(StubSocket(), build_mib()), ref.ReferenceAgent(build_mib())


def agent_reply(agent, data):
    sock = agent._sock
    sock.sent.clear()
    agent._handle_datagram(data, SRC)
    assert len(sock.sent) <= 1
    return sock.sent[0] if sock.sent else None


def manager_outcome(data):
    """What a GET (request id 1) gets when ``data`` is the only reply."""
    sched = Scheduler()
    holder = {}

    def answer(_request, dest):
        sched.call_at(sched.clock.now + 0.001, lambda: holder["mgr"]._on_datagram(data, dest))

    mgr = SnmpManager(StubSocket(answer), sched)
    holder["mgr"] = mgr
    try:
        return ("ok", mgr.get("host1", [TASSL.hostCpuLoad]))
    except SnmpErrorResponse as exc:
        return ("error", exc.status, exc.index)
    except SnmpTimeout:
        return ("reject",)
    finally:
        assert mgr._responses == {}


def reference_manager_outcome(data):
    pdu = ref.response_pdu(data)
    if pdu is None or pdu.items[0].value != 1:
        return ("reject",)
    try:
        return ("ok", ref.parse_response(pdu))
    except SnmpErrorResponse as exc:
        return ("error", exc.status, exc.index)
    except ref.SnmpProtocolError:
        return ("reject",)


# ----------------------------------------------------------------------
# encodings
# ----------------------------------------------------------------------
@BUDGET
@given(requests())
def test_requests_encode_like_reference(request):
    version, community, tag, rid, varbinds, slot1, slot2 = request
    message = SnmpMessage(version, community, tag, rid, slot1, slot2, tuple(varbinds))
    data = message.to_bytes()
    assert data == ref.encode_request(version, community, tag, rid, varbinds, slot1, slot2)
    assert SnmpMessage.from_bytes(data) == message


@BUDGET
@given(st.lists(requests(), min_size=1, max_size=4))
@example([(VERSION_2C, "public", PDU_GETBULK, 1, [(MIB2.system, Null()), (MIB2.ifInOctets, Null())], -1, 2)])
def test_responses_encode_like_reference(batch):
    """Values, the v1 error echo (unknown OIDs, SET to a read-only
    object) and GETBULK: the agent answers with the reference's bytes."""
    agent, reference = agent_pair()
    for version, community, tag, rid, varbinds, slot1, slot2 in batch:
        data = ref.encode_request(version, community, tag, rid, varbinds, slot1, slot2)
        assert agent_reply(agent, data) == reference.handle(data)
    assert agent.requests_served == reference.requests_served
    assert agent.auth_failures == reference.auth_failures


@BUDGET
@given(
    st.lists(
        st.tuples(OIDS, st.none() | st.integers(0, 2**32 - 1), st.lists(st.tuples(OIDS, VALUES), max_size=3)),
        min_size=1,
        max_size=3,
    ),
    COMMUNITIES,
)
def test_traps_encode_like_reference(traps, community):
    sched = Scheduler()
    net = Network(sched, seed=0)
    net.add_node("agent-host")
    net.add_node("mgr-host")
    net.add_link("agent-host", "mgr-host", latency=0.001)
    got = []
    sink = DatagramSocket(net, "mgr-host")
    sink.bind(162)
    sink.on_receive = lambda data, src: got.append(data)
    sender = TrapSender(net, "agent-host", community=community)
    expected = []
    for request_id, (trap_oid, uptime, varbinds) in enumerate(traps, start=1):
        sender.send(("mgr-host", 162), trap_oid, list(varbinds), uptime_ticks=uptime)
        expected.append(ref.encode_trap(community, request_id, uptime or 0, trap_oid, list(varbinds)))
    sched.run()
    assert got == expected


# ----------------------------------------------------------------------
# parsers
# ----------------------------------------------------------------------
VALID_REQUESTS = requests().map(lambda r: ref.encode_request(*r))


@BUDGET
@given(st.lists(hostile(VALID_REQUESTS), min_size=1, max_size=4))
@with_examples(EDGE_REQUESTS, wrap=lambda e: [e])
def test_agent_replies_like_reference(datagrams):
    agent, reference = agent_pair()
    for data in datagrams:
        reply = agent_reply(agent, data)
        if agent_stricter(data):
            reference.handle(data)  # keep the two MIBs in step
            assert reply is None
        else:
            assert reply == reference.handle(data)


@st.composite
def valid_responses(draw):
    """GetResponses as the reference agent writes them, mostly for
    request id 1 (the GET ``manager_outcome`` issues)."""
    version, community, tag, rid, varbinds, slot1, slot2 = draw(requests())
    rid = draw(st.sampled_from([1, 1, 1, rid]))
    reply = ref.ReferenceAgent(build_mib(), community, community).handle(
        ref.encode_request(version, community, tag, rid, varbinds, slot1, slot2)
    )
    return reply if reply is not None else b""


@BUDGET
@given(hostile(valid_responses(), tags=st.sampled_from([PDU_RESPONSE, PDU_RESPONSE, PDU_GET, PDU_TRAP_V2])))
@with_examples(EDGE_RESPONSES)
def test_manager_accepts_like_reference(data):
    outcome = manager_outcome(data)
    if manager_stricter(data):
        assert outcome == ("reject",)
    else:
        assert outcome == reference_manager_outcome(data)


@st.composite
def valid_traps(draw):
    trap_oid = draw(OIDS)
    return ref.encode_trap(
        draw(st.sampled_from(["public", "public", "other"])),
        draw(INTS),
        draw(st.integers(0, 2**32 - 1)),
        trap_oid,
        draw(st.lists(st.tuples(OIDS, VALUES), max_size=3)),
    )


@st.composite
def trap_frames(draw):
    """Trap-shaped frames whose first two varbinds are sometimes the
    required ones and sometimes anything."""
    uptime = st.integers(0, 2**32 - 1).map(lambda t: Sequence((MIB2.sysUpTime.to_ber(), TimeTicks(t))))
    trap_oid = OIDS.map(lambda o: Sequence((snmpTrapOID.to_ber(), o.to_ber())))
    head = [draw(maybe(uptime, VARBIND_TLVS)), draw(maybe(trap_oid, VARBIND_TLVS))]
    head = head[: draw(st.integers(0, 2))] + draw(st.lists(VARBIND_TLVS, max_size=2))
    version = Integer(draw(st.sampled_from([VERSION_2C, VERSION_2C, VERSION_1, 99])))
    fields = (draw(maybe(INTS.map(Integer))), Integer(0), Integer(0), Sequence(tuple(head)))
    return encode(Sequence((version, OctetString(b"public"), TaggedPdu(PDU_TRAP_V2, fields))))


@BUDGET
@given(
    st.lists(
        hostile(st.one_of(valid_traps(), trap_frames()), tags=st.sampled_from([PDU_TRAP_V2, PDU_RESPONSE])),
        min_size=1,
        max_size=4,
    )
)
def test_trap_listener_never_raises_and_accepts_only_what_reference_did(datagrams):
    sched = Scheduler()
    net = Network(sched, seed=0)
    net.add_node("mgr-host")
    got, expected = [], []
    listener = TrapListener(net, "mgr-host", got.append)
    reference = ref.ReferenceTrapListener(expected.append)
    for data in datagrams:
        delivered = len(got)
        listener._on_datagram(data, SRC)
        try:
            reference._on_datagram(data, SRC)
        except ValueError:
            expected.append(None)  # the old listener raised out of the dispatch loop
        if len(got) > delivered:
            assert got[-1] == expected[-1]
    assert listener.traps_received == len(got)


@BUDGET
@given(valid_traps())
def test_trap_listener_delivers_every_trap_a_sender_writes(data):
    got, expected = [], []
    sched = Scheduler()
    net = Network(sched, seed=0)
    net.add_node("mgr-host")
    TrapListener(net, "mgr-host", got.append)._on_datagram(data, SRC)
    ref.ReferenceTrapListener(expected.append)._on_datagram(data, SRC)
    assert got == expected
