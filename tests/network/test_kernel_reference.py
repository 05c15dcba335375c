"""Hypothesis properties: the simulation kernel equals its slow reference.

``reference_kernel.py`` holds the scheduler and the delivery primitive as
they were before the per-event path was made cheaper.  Three properties:

* random scheduler programs (equal timestamps, callbacks that schedule,
  cancel and raise, every refused input) leave the same firing order,
  clock, return values, ``pending`` and exception messages on
  :class:`Scheduler` and :class:`ReferenceScheduler`;
* ``Scheduler.pending`` — a maintained count — equals the heap scan it
  replaced after every operation and inside every callback;
* random trees under loss, jitter, finite bandwidth, ``loss_fn`` (one
  that raises included), down and removed links, a seeded chaos
  controller behind an interceptor that can raise, and an attached
  ``PacketTracer`` settle every ``send`` and ``cast`` identically on
  ``Network`` and :class:`ReferenceNetwork`: return values, the six
  disposition counters, every per-link counter, the delivery sequence,
  the tracer's records and the state both RNGs are left in.

CI runs this file again under ``--hypothesis-profile=deep``.
"""

from hypothesis import given, settings, strategies as st

from repro.network.clock import Scheduler, SimulationError
from repro.network.faults import ChaosController
from repro.network.simnet import CastPlan, Network, NetworkError, Packet
from repro.network.trace import PacketTracer

from .reference_kernel import ReferenceNetwork, ReferenceScheduler
from .test_delivery_primitive import PORT, chaos_plan, dispositions, link_specs

# explicit settings would shadow --hypothesis-profile=deep, so tier-1's
# budget steps aside when a larger profile is loaded
BUDGET = settings() if settings().max_examples > 100 else settings(max_examples=100, deadline=None)

# ----------------------------------------------------------------------
# (i) scheduler programs
# ----------------------------------------------------------------------
NAN, INF = float("nan"), float("inf")
#: absolute times: ties, and values that are "the past" once the clock moved
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 2.0, 3.5, 7, -1.0, NAN, INF, -INF])
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 1.0, 3, -0.1, NAN, INF])
#: what a fired callback does besides logging itself
ACTIONS = st.one_of(
    st.tuples(st.just("log")),
    st.tuples(st.just("spawn"), DELAYS),
    st.tuples(st.just("spawn_at"), TIMES),
    st.tuples(st.just("kill"), st.integers(0, 64)),
    st.tuples(st.just("raise")),
)
SCHED_OPS = st.one_of(
    st.tuples(st.just("at"), TIMES, ACTIONS),
    st.tuples(st.just("after"), DELAYS, ACTIONS),
    st.tuples(st.just("cancel"), st.integers(0, 64)),
    st.tuples(st.just("step")),
    st.tuples(st.just("until"), TIMES),
    st.tuples(st.just("for"), DELAYS),
    st.tuples(st.just("run")),
)


def heap_scan(sched):
    """``Scheduler.pending`` as it was computed before it became a count."""
    return sum(1 for _, _, ev in sched._heap if not ev.cancelled)


def run_program(sched, program, probe):
    """Drive ``sched`` through ``program``; return everything observable.

    ``probe(sched)`` is recorded after every operation and from inside
    every callback (where the fired event has left the queue but the
    step has not returned).
    """
    trace, handles = [], []

    def attempt(fn, *args):
        try:
            result = fn(*args)
        except (SimulationError, ValueError) as exc:
            return (type(exc).__name__, str(exc))
        if hasattr(result, "cancel"):  # an event handle
            handles.append(result)
            return ("event", result.time, result.seq, result.cancelled)
        return result

    def fire(tag, action):
        trace.append(("fired", tag, sched.clock.now, probe(sched)))
        if action[0] == "spawn":
            trace.append(attempt(sched.call_after, action[1], fire, tag + 1000, ("log",)))
        elif action[0] == "spawn_at":
            trace.append(attempt(sched.call_at, action[1], fire, tag + 2000, ("log",)))
        elif action[0] == "kill" and handles:
            handles[action[1] % len(handles)].cancel()
        elif action[0] == "raise":
            raise ValueError(f"callback {tag} failed")

    for tag, op in enumerate(program):
        if op[0] == "at":
            out = attempt(sched.call_at, op[1], fire, tag, op[2])
        elif op[0] == "after":
            out = attempt(sched.call_after, op[1], fire, tag, op[2])
        elif op[0] == "cancel":
            out = None
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif op[0] == "step":
            out = attempt(sched.step)
        elif op[0] == "until":
            out = attempt(sched.run_until, op[1])
        elif op[0] == "for":
            out = attempt(sched.run_for, op[1])
        else:
            out = attempt(sched.run)
        trace.append((op[0], out, sched.clock.now, probe(sched)))
    trace.append([(ev.time, ev.seq, ev.cancelled) for ev in handles])
    return trace


@BUDGET
@given(program=st.lists(SCHED_OPS, max_size=40))
def test_scheduler_equals_reference(program):
    fast = run_program(Scheduler(), program, lambda s: s.pending)
    slow = run_program(ReferenceScheduler(), program, lambda s: s.pending)
    assert fast == slow


@BUDGET
@given(program=st.lists(SCHED_OPS, max_size=40))
def test_pending_count_equals_heap_scan(program):
    def probe(sched):
        assert sched.pending == heap_scan(sched)
        return sched.pending

    run_program(Scheduler(), program, probe)


def test_cancel_counts_once_and_only_while_queued():
    s = Scheduler()
    fired, late = s.call_at(1.0, lambda: None), s.call_at(2.0, lambda: None)
    skipped = s.call_at(1.5, lambda: None)
    skipped.cancel()
    skipped.cancel()  # a second cancel changes nothing
    assert s.pending == 2
    s.run_until(1.5)  # fires one event, skips the cancelled one
    fired.cancel()
    skipped.cancel()  # neither is queued any more
    assert s.pending == heap_scan(s) == 1
    late.cancel()
    assert s.pending == heap_scan(s) == 0
    assert s.run() == 0


# ----------------------------------------------------------------------
# (ii) the delivery primitive on trees
# ----------------------------------------------------------------------
#: a payload the test interceptor refuses to settle at odd-numbered hosts
TRIP = b"!!trip"
PAYLOADS = st.one_of(st.binary(max_size=48), st.just(TRIP))
IDX = st.integers(0, 64)
_SEND = st.tuples(st.just("send"), IDX, IDX, PAYLOADS)
_CAST = st.tuples(st.just("cast"), IDX, st.lists(IDX, max_size=8), PAYLOADS)
NET_OPS = st.one_of(
    _SEND,
    _CAST,
    _SEND,  # twice: transmissions should outnumber topology edits
    _CAST,
    st.tuples(st.just("flip"), IDX),
    st.tuples(st.just("remove"), IDX),
    st.tuples(st.just("loss_fn"), IDX, st.sampled_from(["none", "by_size", "raises", "raises"])),
    st.tuples(st.just("gap"), st.sampled_from([0.0, 0.0001, 0.004, 0.05])),
)


def _by_size(size):
    return 0.6 if size > 40 else 0.05


def _raises(size):
    raise ValueError(f"loss model failed at {size} bytes")


LOSS_FNS = {"none": None, "by_size": _by_size, "raises": _raises}


class World:
    """One tree network with chaos, a tracer and a receiver on every node."""

    def __init__(self, sched_cls, net_cls, parents, net_seed, chaos_seed):
        self.sched = sched_cls()
        self.net = net = net_cls(self.sched, seed=net_seed)
        self.names = [f"n{i}" for i in range(len(parents) + 1)]
        for name in self.names:
            net.add_node(name)
        self.edges = []  # (parent, child), child order == creation order
        self.links = []  # every Link ever added, removed ones included
        for i, (p, spec) in enumerate(parents, start=1):
            edge = (self.names[p % i], self.names[i])
            self.edges.append(edge)
            self.links.append(net.add_link(*edge, **spec))
        plan = chaos_plan(self.edges[-1] if self.edges else None)
        self.chaos = ChaosController(net, plan, seed=chaos_seed).install()
        chaos_hook = net.delivery_interceptor

        def interceptor(packet, path, t):
            if packet.payload == TRIP and int(packet.dst[1:]) % 2:
                raise ValueError(f"interceptor refused {packet.dst}")
            return chaos_hook(packet, path, t)

        net.delivery_interceptor = interceptor
        self.tracer = PacketTracer(net)
        self.tracer.attach()
        self.sched.run_until(0.0)  # open the fault windows
        self.got = []
        for name in self.names:
            net.node(name).bind(PORT, self._receiver(name))

    def _receiver(self, name):
        return lambda p: self.got.append((self.sched.clock.now, name, p.src, p.payload))

    def plan(self, root):
        """The original tree, rooted at ``root``, parent-before-child."""
        adjacency = {name: [] for name in self.names}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        out, seen, frontier = [], {root}, [root]
        while frontier:
            node = frontier.pop(0)
            for peer in adjacency[node]:
                if peer not in seen:
                    seen.add(peer)
                    out.append((node, peer))
                    frontier.append(peer)
        return CastPlan(root, tuple(out))

    def apply(self, op):
        net, names = self.net, self.names

        def pick(i):
            return names[i % len(names)]

        try:
            if op[0] == "send":
                return net.send(Packet(pick(op[1]), 1, pick(op[2]), PORT, op[3]))
            if op[0] == "cast":
                root = pick(op[1])
                targets = [(pick(i), PORT) for i in op[2]]
                return net.cast(Packet(root, 1, "239.0.0.1", PORT, op[3]), self.plan(root), targets)
            if op[0] == "gap":
                return self.sched.run_for(op[1])
            if not self.edges:
                return None
            a, b = self.edges[op[1] % len(self.edges)]
            if op[0] == "flip":
                return net.set_link_up(a, b, not net.link(a, b).up).up
            if op[0] == "remove":
                return net.remove_link(a, b)
            net.link(a, b).loss_fn = LOSS_FNS[op[2]]
            return None
        except (NetworkError, ValueError) as exc:
            return (type(exc).__name__, str(exc))

    def observe(self, returns):
        self.sched.run_until(2000.0)
        net, tracer = self.net, self.tracer
        return {
            "returns": returns,
            "dispositions": dispositions(net),
            "links": [
                (l.up, l.tx_octets, l.rx_octets, l.dropped_packets, l.delivered_packets)
                for l in self.links
            ],
            "live_links": [(l.a, l.b) for l in net.links],
            "deliveries": self.got,
            "trace": (tracer.total_packets, tracer.total_octets, tracer.records, dict(tracer.flows)),
            "net_rng": net.rng.bit_generator.state,
            "chaos": (self.chaos.report(), self.chaos.rng.bit_generator.state),
            "clock": (self.sched.clock.now, self.sched.pending),
        }


@BUDGET
@given(
    parents=st.lists(st.tuples(st.integers(0, 64), link_specs), max_size=7),
    ops=st.lists(NET_OPS, min_size=1, max_size=25),
    net_seed=st.integers(0, 2**16),
    chaos_seed=st.integers(0, 2**16),
)
def test_transmit_equals_reference(parents, ops, net_seed, chaos_seed):
    fast = World(Scheduler, Network, parents, net_seed, chaos_seed)
    slow = World(ReferenceScheduler, ReferenceNetwork, parents, net_seed, chaos_seed)
    assert fast.observe([fast.apply(op) for op in ops]) == slow.observe(
        [slow.apply(op) for op in ops]
    )
