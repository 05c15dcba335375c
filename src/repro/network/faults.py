"""Deterministic fault injection: scheduled failures for the simulated net.

The paper's whole premise is adaptation under *degraded* conditions, but a
static per-link ``loss``/``jitter`` cannot exercise the dynamic failure
modes the QoS contracts exist for.  This module supplies them as data: a
:class:`FaultPlan` is an ordered set of scheduled fault events, and a
:class:`ChaosController` interprets the plan against a
:class:`~repro.network.simnet.Network` on its virtual-time scheduler.

Supported fault events
----------------------
* :class:`LinkFlap` — a link goes administratively down for a window
  (traffic reroutes if the graph allows, otherwise drops).
* :class:`Partition` — the node set is bisected: every link crossing the
  cut goes down for the window.
* :class:`BurstLoss` — a Gilbert–Elliott two-state loss process replaces
  a link's static loss for the window (correlated burst drops).
* :class:`Duplication` — delivered packets are duplicated with a given
  probability during the window.
* :class:`Reordering` — delivered packets receive random extra delay with
  a given probability, causing reordering against FIFO peers.
* :class:`LatencySpike` — constant extra delay on every delivered packet
  (optionally only traffic crossing chosen links).
* :class:`Corruption` — delivered packets have 1..``max_flips`` payload
  bits flipped with a given probability during the window; a damaged
  copy whose UDP checksum no longer matches is dropped, as the receiving
  host's UDP layer would drop it, and the rest reach the decoder.
* :class:`AgentCrash` — an SNMP agent stops answering for the window
  (managers see timeouts; the management plane itself degrades).

Everything is seed-driven and scheduled in virtual time, so a plan
replays byte-identically: same seed + same plan + same workload ⇒ same
drops, same duplicates, same telemetry.

Example
-------
>>> from repro.network.clock import Scheduler
>>> from repro.network.simnet import Network, Packet
>>> sched = Scheduler(); net = Network(sched, seed=1)
>>> for n in ("a", "b"): _ = net.add_node(n)
>>> _ = net.add_link("a", "b")
>>> plan = FaultPlan((LinkFlap("a", "b", start=1.0, duration=2.0),))
>>> chaos = ChaosController(net, plan, seed=7)
>>> _ = chaos.install()
>>> _ = sched.run_until(1.5)
>>> net.send(Packet("a", 1, "b", 2, b"lost"))  # mid-flap: unroutable
False
>>> _ = sched.run_until(3.5)
>>> net.send(Packet("a", 1, "b", 2, b"ok"))    # healed
True
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional, Union

import numpy as np

from .simnet import Address, Link, Network, NetworkError, Packet

if TYPE_CHECKING:
    from ..snmp.agent import SnmpAgent

__all__ = [
    "FaultPlanError",
    "LinkFlap",
    "Partition",
    "BurstLoss",
    "Duplication",
    "Reordering",
    "LatencySpike",
    "Corruption",
    "AgentCrash",
    "FaultEvent",
    "FaultPlan",
    "ChaosController",
]


class FaultPlanError(ValueError):
    """Raised for malformed fault plans or controller misuse."""


def _check_window(name: str, start: float, duration: float) -> None:
    if start < 0.0:
        raise FaultPlanError(f"{name}: start must be non-negative, got {start}")
    if duration <= 0.0:
        raise FaultPlanError(f"{name}: duration must be positive, got {duration}")


def _check_probability(name: str, p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise FaultPlanError(f"{name}: probability must be in [0, 1], got {p}")


@dataclass(frozen=True)
class LinkFlap:
    """Link ``a``–``b`` goes down at ``start`` for ``duration`` seconds."""

    a: Address
    b: Address
    start: float
    duration: float

    def __post_init__(self) -> None:
        _check_window("LinkFlap", self.start, self.duration)
        if self.a == self.b:
            raise FaultPlanError("LinkFlap: endpoints must differ")


@dataclass(frozen=True)
class Partition:
    """Bisect the network: ``group`` on one side, everything else on the
    other; all crossing links are down for the window."""

    group: frozenset[Address]
    start: float
    duration: float

    def __init__(self, group: Iterable[Address], start: float, duration: float) -> None:
        object.__setattr__(self, "group", frozenset(group))
        object.__setattr__(self, "start", float(start))
        object.__setattr__(self, "duration", float(duration))
        _check_window("Partition", self.start, self.duration)
        if not self.group:
            raise FaultPlanError("Partition: group must be non-empty")


@dataclass(frozen=True)
class BurstLoss:
    """Gilbert–Elliott burst loss on link ``a``–``b`` for the window.

    The chain advances one step per packet offered to the link: in the
    *good* state packets drop with ``loss_good``, in the *bad* state with
    ``loss_bad``; ``p_good_to_bad``/``p_bad_to_good`` are the per-packet
    transition probabilities (their inverses set mean burst spacing and
    length).
    """

    a: Address
    b: Address
    start: float
    duration: float
    p_good_to_bad: float = 0.05
    p_bad_to_good: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.9

    def __post_init__(self) -> None:
        _check_window("BurstLoss", self.start, self.duration)
        for field_name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            _check_probability(f"BurstLoss.{field_name}", getattr(self, field_name))


@dataclass(frozen=True)
class Duplication:
    """Deliver an extra copy of each packet with ``probability`` during
    the window; the copy lands ``spread`` seconds (uniform) later."""

    start: float
    duration: float
    probability: float = 0.1
    spread: float = 0.005

    def __post_init__(self) -> None:
        _check_window("Duplication", self.start, self.duration)
        _check_probability("Duplication.probability", self.probability)
        if self.spread < 0.0:
            raise FaultPlanError("Duplication: spread must be non-negative")


@dataclass(frozen=True)
class Reordering:
    """Add uniform(0, ``max_extra_delay``) to packets with ``probability``
    during the window, reordering them against their FIFO peers."""

    start: float
    duration: float
    probability: float = 0.2
    max_extra_delay: float = 0.02

    def __post_init__(self) -> None:
        _check_window("Reordering", self.start, self.duration)
        _check_probability("Reordering.probability", self.probability)
        if self.max_extra_delay <= 0.0:
            raise FaultPlanError("Reordering: max_extra_delay must be positive")


@dataclass(frozen=True)
class LatencySpike:
    """Constant ``extra`` delay on every delivered packet in the window.

    With ``links`` set, only traffic whose routed path crosses one of the
    named ``(a, b)`` pairs is delayed (a congested segment); otherwise the
    spike is network-wide.
    """

    start: float
    duration: float
    extra: float
    links: Optional[tuple[tuple[Address, Address], ...]] = None

    def __post_init__(self) -> None:
        _check_window("LatencySpike", self.start, self.duration)
        if self.extra <= 0.0:
            raise FaultPlanError("LatencySpike: extra must be positive")


@dataclass(frozen=True)
class Corruption:
    """Flip 1..``max_flips`` payload bits of a delivered packet with
    ``probability`` during the window.

    Corruption happens *after* routing and loss.  The receiving UDP layer
    checks the RFC 768 checksum, so a damaged copy whose ones'-complement
    sum differs from the original's is dropped there (``checksum_drops``);
    flips whose changes cancel in the sum arrive on time with the damage,
    for the receiving codec's decode path to survive.  Empty payloads
    pass through untouched.
    """

    start: float
    duration: float
    probability: float = 0.05
    max_flips: int = 3

    def __post_init__(self) -> None:
        _check_window("Corruption", self.start, self.duration)
        _check_probability("Corruption.probability", self.probability)
        if self.max_flips < 1:
            raise FaultPlanError("Corruption: max_flips must be at least 1")


@dataclass(frozen=True)
class AgentCrash:
    """The SNMP agent on ``host`` crashes at ``start`` and restarts after
    ``duration`` seconds (managers see timeouts in between)."""

    host: Address
    start: float
    duration: float

    def __post_init__(self) -> None:
        _check_window("AgentCrash", self.start, self.duration)


FaultEvent = Union[
    LinkFlap,
    Partition,
    BurstLoss,
    Duplication,
    Reordering,
    LatencySpike,
    Corruption,
    AgentCrash,
]

#: deterministic ordering key so identical plans install identically even
#: when callers build them in different orders
def _event_key(ev: FaultEvent) -> tuple:
    return (ev.start, ev.duration, type(ev).__name__, repr(ev))


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated schedule of fault events."""

    events: tuple[FaultEvent, ...] = ()

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        object.__setattr__(self, "events", tuple(sorted(events, key=_event_key)))
        for ev in self.events:
            if not isinstance(
                ev,
                (LinkFlap, Partition, BurstLoss, Duplication, Reordering,
                 LatencySpike, Corruption, AgentCrash),
            ):
                raise FaultPlanError(f"not a fault event: {ev!r}")

    @property
    def horizon(self) -> float:
        """Virtual time at which the last event window closes."""
        return max((ev.start + ev.duration for ev in self.events), default=0.0)

    def needs_interceptor(self) -> bool:
        """Whether any event requires the per-packet delivery hook."""
        return any(
            isinstance(ev, (Duplication, Reordering, LatencySpike, Corruption))
            for ev in self.events
        )


def _ones_complement_sum(data: bytes) -> int:
    """The RFC 768 ones'-complement sum of ``data``'s 16-bit words.

    Big-endian words, an odd last byte padded with zero.  Since
    ``2**16 == 1 (mod 0xFFFF)``, the words' end-around-carry sum is the
    integer the bytes spell, modulo 0xFFFF; taken that way, the sum's two
    zeros (0x0000 and 0xFFFF), which a receiver's check cannot tell
    apart, compare equal.
    """
    return int.from_bytes(data + b"\0" * (len(data) & 1), "big") % 0xFFFF


class _GilbertElliott:
    """Stateful two-state loss process installed as a link ``loss_fn``."""

    __slots__ = ("spec", "rng", "bad", "transitions")

    def __init__(self, spec: BurstLoss, rng: np.random.Generator) -> None:
        self.spec = spec
        self.rng = rng
        self.bad = False
        self.transitions = 0

    def __call__(self, size: int) -> float:
        # advance the chain once per offered packet, then report the
        # current state's loss probability
        if self.bad:
            if self.rng.random() < self.spec.p_bad_to_good:
                self.bad = False
                self.transitions += 1
        else:
            if self.rng.random() < self.spec.p_good_to_bad:
                self.bad = True
                self.transitions += 1
        return self.spec.loss_bad if self.bad else self.spec.loss_good


class ChaosController:
    """Interprets a :class:`FaultPlan` against one network.

    Parameters
    ----------
    network:
        The simulated network (its scheduler drives the plan).
    plan:
        The validated schedule of fault events.
    seed:
        Seeds the controller's private RNG (burst-loss chains, duplicate
        and reorder draws) — independent from the network's own RNG so a
        plan perturbs traffic only where it says it does.
    agents:
        ``host -> SnmpAgent`` registry, required iff the plan contains
        :class:`AgentCrash` events.

    Call :meth:`install` once before running the simulation;
    :meth:`report` afterwards returns deterministic counters suitable for
    byte-identical comparison across replays.
    """

    def __init__(
        self,
        network: Network,
        plan: FaultPlan,
        seed: int = 0,
        agents: Optional[dict[Address, "SnmpAgent"]] = None,
    ) -> None:
        self.network = network
        self.plan = plan
        self.rng = np.random.default_rng(seed)
        self.agents = dict(agents or {})
        self._installed = False
        # refcounted down-state so overlapping flap/partition windows nest
        self._down_refs: dict[frozenset, int] = {}
        # saved (loss, loss_fn) per link under burst episodes
        self._burst_saved: dict[frozenset, tuple[float, object]] = {}
        # the exact cut set recorded when each partition began (topology
        # may change during the window, so it cannot be recomputed at end)
        self._partition_cuts: dict[Partition, list[list[Link]]] = {}
        # active windows for the per-packet interceptor
        self._dups: list[Duplication] = []
        self._reorders: list[Reordering] = []
        self._spikes: list[LatencySpike] = []
        self._corruptions: list[Corruption] = []
        # telemetry (all deterministic under a fixed seed)
        self.flaps = 0
        self.partitions = 0
        self.bursts = 0
        self.crashes = 0
        self.restarts = 0
        self.duplicated = 0
        self.reordered = 0
        self.delayed = 0
        self.corrupted = 0
        self.checksum_drops = 0
        self.links_cut = 0
        self.events_started = 0
        self.events_ended = 0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> "ChaosController":
        """Schedule every plan event on the network's scheduler."""
        if self._installed:
            raise FaultPlanError("controller already installed")
        self._installed = True
        for ev in self.plan.events:
            if isinstance(ev, AgentCrash) and ev.host not in self.agents:
                raise FaultPlanError(
                    f"AgentCrash({ev.host!r}) but no agent registered; "
                    f"pass agents={{host: SnmpAgent}}"
                )
        if self.plan.needs_interceptor():
            if self.network.delivery_interceptor is not None:
                raise FaultPlanError("network already has a delivery interceptor")
            self.network.delivery_interceptor = self._intercept
        sched = self.network.scheduler
        now = sched.clock.now
        for ev in self.plan.events:
            sched.call_at(max(now, ev.start), self._begin, ev)
            sched.call_at(max(now, ev.start + ev.duration), self._end, ev)
        return self

    def uninstall(self) -> None:
        """Detach the per-packet hook (plan events already fired stay fired)."""
        # == not `is`: each `self._intercept` access builds a fresh bound
        # method, so identity would never match the installed hook
        if self.network.delivery_interceptor == self._intercept:
            self.network.delivery_interceptor = None

    # ------------------------------------------------------------------
    # event begin/end dispatch
    # ------------------------------------------------------------------
    def _begin(self, ev: FaultEvent) -> None:
        self.events_started += 1
        if isinstance(ev, LinkFlap):
            self.flaps += 1
            self._cut(ev.a, ev.b)
        elif isinstance(ev, Partition):
            self.partitions += 1
            cut = self._crossing_links(ev.group)
            self._partition_cuts.setdefault(ev, []).append(cut)
            for link in cut:
                self._cut(link.a, link.b)
        elif isinstance(ev, BurstLoss):
            self.bursts += 1
            key = frozenset((ev.a, ev.b))
            link = self.network.link(ev.a, ev.b)
            if key not in self._burst_saved:
                self._burst_saved[key] = (link.loss, link.loss_fn)
            link.loss_fn = _GilbertElliott(ev, self.rng)
        elif isinstance(ev, Duplication):
            self._dups.append(ev)
        elif isinstance(ev, Reordering):
            self._reorders.append(ev)
        elif isinstance(ev, LatencySpike):
            self._spikes.append(ev)
        elif isinstance(ev, Corruption):
            self._corruptions.append(ev)
        elif isinstance(ev, AgentCrash):
            self.crashes += 1
            self.agents[ev.host].crash()

    def _end(self, ev: FaultEvent) -> None:
        self.events_ended += 1
        if isinstance(ev, LinkFlap):
            self._heal(ev.a, ev.b)
        elif isinstance(ev, Partition):
            cuts = self._partition_cuts.get(ev)
            cut = cuts.pop() if cuts else []
            for link in cut:
                self._heal(link.a, link.b)
        elif isinstance(ev, BurstLoss):
            key = frozenset((ev.a, ev.b))
            saved = self._burst_saved.pop(key, None)
            if saved is not None:
                link = self.network.link(ev.a, ev.b)
                link.loss, link.loss_fn = saved[0], saved[1]
        elif isinstance(ev, Duplication):
            self._dups.remove(ev)
        elif isinstance(ev, Reordering):
            self._reorders.remove(ev)
        elif isinstance(ev, LatencySpike):
            self._spikes.remove(ev)
        elif isinstance(ev, Corruption):
            self._corruptions.remove(ev)
        elif isinstance(ev, AgentCrash):
            self.restarts += 1
            self.agents[ev.host].restart()

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    def _crossing_links(self, group: frozenset[Address]) -> list[Link]:
        """Links with exactly one endpoint inside ``group`` (the cut set)."""
        return [
            link
            for link in self.network.links
            if (link.a in group) != (link.b in group)
        ]

    def _cut(self, a: Address, b: Address) -> None:
        key = frozenset((a, b))
        refs = self._down_refs.get(key, 0)
        self._down_refs[key] = refs + 1
        if refs == 0:
            try:
                self.network.set_link_up(a, b, False)
                self.links_cut += 1
            except NetworkError:
                # the link was removed behind our back (e.g. a handoff);
                # nothing to cut, and _heal will no-op symmetrically
                pass

    def _heal(self, a: Address, b: Address) -> None:
        key = frozenset((a, b))
        refs = self._down_refs.get(key, 0)
        if refs <= 1:
            self._down_refs.pop(key, None)
            try:
                self.network.set_link_up(a, b, True)
            except NetworkError:
                pass
        else:
            self._down_refs[key] = refs - 1

    # ------------------------------------------------------------------
    # per-packet hook (only installed when the plan needs it)
    # ------------------------------------------------------------------
    def _intercept(
        self, packet: Packet, path: list[Link], t: float
    ) -> list[Union[float, tuple[float, Packet]]]:
        extra = 0.0
        for spike in self._spikes:
            if spike.links is None or self._path_crosses(path, spike.links):
                extra += spike.extra
                self.delayed += 1
        for re_ev in self._reorders:
            if self.rng.random() < re_ev.probability:
                extra += float(self.rng.uniform(0.0, re_ev.max_extra_delay))
                self.reordered += 1
        times = [t + extra]
        for dup in self._dups:
            if self.rng.random() < dup.probability:
                times.append(t + extra + float(self.rng.uniform(0.0, dup.spread)))
                self.duplicated += 1
        # each delivery copy rolls corruption independently; a corrupted
        # copy that fails the UDP checksum is dropped, one that passes
        # becomes a (time, substitute) entry carrying damaged bytes
        entries: list[Union[float, tuple[float, Packet]]] = []
        for td in times:
            damaged = self._corrupt_payload(packet.payload)
            if damaged is None:
                entries.append(td)
            elif _ones_complement_sum(damaged) != _ones_complement_sum(packet.payload):
                self.checksum_drops += 1
            else:
                entries.append((td, replace(packet, payload=damaged)))
        return entries

    def _corrupt_payload(self, payload: bytes) -> Optional[bytes]:
        """Damaged copy of ``payload``, or ``None`` if it passes unscathed."""
        if not payload:
            return None
        damaged = None
        for corr in self._corruptions:
            if self.rng.random() < corr.probability:
                buf = bytearray(damaged if damaged is not None else payload)
                flips = int(self.rng.integers(1, corr.max_flips + 1))
                for bit in self.rng.integers(0, len(buf) * 8, size=flips):
                    buf[int(bit) // 8] ^= 1 << (int(bit) % 8)
                damaged = bytes(buf)
                self.corrupted += 1
        return damaged

    @staticmethod
    def _path_crosses(
        path: list[Link], watched: tuple[tuple[Address, Address], ...]
    ) -> bool:
        keys = {frozenset(pair) for pair in watched}
        return any(frozenset((link.a, link.b)) in keys for link in path)

    # ------------------------------------------------------------------
    def report(self) -> dict[str, int]:
        """Deterministic counter snapshot (sorted keys, ints only)."""
        return {
            "bursts": self.bursts,
            "checksum_drops": self.checksum_drops,
            "corrupted": self.corrupted,
            "crashes": self.crashes,
            "delayed": self.delayed,
            "duplicated": self.duplicated,
            "events_ended": self.events_ended,
            "events_started": self.events_started,
            "flaps": self.flaps,
            "links_cut": self.links_cut,
            "partitions": self.partitions,
            "reordered": self.reordered,
            "restarts": self.restarts,
        }
