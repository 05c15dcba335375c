"""In-process semantic bus: the pub/sub substrate without a network.

No figure, example or client runs on it: the ``broker_match_scale``
bench workload and the tests do, where it is the reference semantics the
networked transport must match: *delivery is decided at each receiver by
interpreting the selector against that receiver's current profile* — the
bus holds no roster of interests, only opaque endpoints to offer every
message to.

Dispatch is accelerated by the :mod:`repro.core.matching_engine`: each
publish first shortlists candidate subscribers through the predicate
index, then runs the full interpreter only on the shortlist.  Decisions
are identical to a linear scan (the index only ever over-approximates);
construct the bus with ``indexed=False`` to force the linear path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .._locks import make_lock
from ..core.matching import Decision, MatchResult, interpret
from ..core.matching_engine import MatchingEngine
from ..core.profiles import ClientProfile
from ..core.selectors import Selector
from .message import SemanticMessage

__all__ = [
    "SemanticBus",
    "Delivery",
    "PublishResult",
    "BatchPublishResult",
    "Subscription",
]


@dataclass(frozen=True)
class Delivery:
    """What a subscriber's callback receives."""

    message: SemanticMessage
    result: MatchResult


@dataclass(frozen=True)
class PublishResult:
    """Structured outcome of one :meth:`SemanticBus.publish`.

    ``delivered`` counts every accepted delivery (plain accepts *and*
    transformation-mediated ones); ``transformed`` is the subset that
    needed a transformation; ``rejected`` counts subscribers the message
    did not reach; ``candidates_checked`` is how many subscribers ran the
    full interpreter (the index's shortlist size); ``matched_via_index``
    tells whether the predicate index served this publish or the bus
    fell back to a linear scan.
    """

    delivered: int
    transformed: int
    rejected: int
    candidates_checked: int
    matched_via_index: bool


@dataclass(frozen=True)
class BatchPublishResult:
    """Aggregated outcome of one :meth:`publish_many` call.

    Wraps the per-message :class:`PublishResult`\\ s (in submission
    order) and aggregates their counters, so callers write to one batch
    API regardless of backend.
    """

    results: tuple[PublishResult, ...]

    @property
    def messages(self) -> int:
        return len(self.results)

    @property
    def delivered(self) -> int:
        return sum(r.delivered for r in self.results)

    @property
    def transformed(self) -> int:
        return sum(r.transformed for r in self.results)

    @property
    def rejected(self) -> int:
        return sum(r.rejected for r in self.results)

    @property
    def candidates_checked(self) -> int:
        return sum(r.candidates_checked for r in self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[PublishResult]:
        return iter(self.results)

    def __getitem__(self, i: int) -> PublishResult:
        return self.results[i]


class Subscription:
    """Handle returned by :meth:`SemanticBus.attach`; detach to leave.

    ``seq`` is the attach ordinal the owning bus allocated (under its
    lock): it keeps indexed delivery order identical to the linear path.
    A class-level counter would be shared by every bus in the process —
    cross-bus interleavings and attach races would leak into it.
    """

    def __init__(
        self,
        bus: "SemanticBus",
        profile: ClientProfile,
        callback: Callable[[Delivery], None],
        seq: int,
    ) -> None:
        self.bus = bus
        self.profile = profile
        self.callback = callback
        self.active = True
        self._seq = seq  # attach order, for stable delivery order
        # per-subscriber observability
        self.accepted = 0
        self.transformed = 0
        self._offer_base = bus.published  # publishes that predate this subscription
        self._excluded = 0  # offers suppressed as sender loopback
        self._frozen_rejected: Optional[int] = None

    @property
    def rejected(self) -> int:
        """Messages offered to this subscriber that it did not receive.

        Derived rather than incremented: every publish offered to an
        attached subscriber ends in exactly one of accept / transform /
        reject, so the reject count is the remainder — which lets the
        indexed dispatch path skip non-candidates without touching them.
        """
        if self._frozen_rejected is not None:
            return self._frozen_rejected
        offered = self.bus.published - self._offer_base - self._excluded
        return offered - self.accepted - self.transformed

    def detach(self) -> None:
        """Leave the session (idempotent)."""
        if self.active:
            self.active = False
            self.bus._detach(self)


def offer(
    message: SemanticMessage,
    selector: Selector | str,
    headers: dict,
    candidates: Iterable[Subscription],
    exclude: Optional[ClientProfile] = None,
    accept: Optional[Callable[[Subscription, Delivery], None]] = None,
) -> tuple[int, int, int]:
    """Offer one message to an ordered candidate list.

    The match-and-deliver decision both buses share: skip the sender's
    own subscriptions (``exclude``, loopback suppression), interpret
    ``selector`` and ``headers`` against the candidate's profile, skip a
    ``REJECT``, count the acceptance on the subscription, and hand the
    :class:`Delivery` to ``accept`` — by default the subscription's own
    callback, called before the next candidate is interpreted.  Backends
    differ only in where ``candidates`` come from (index shortlist,
    snapshot, one shard) and in what ``accept`` does.  Returns
    ``(checked, delivered, transformed)``.
    """
    checked = delivered = transformed = 0
    for sub in candidates:
        if exclude is not None and sub.profile is exclude:
            continue
        checked += 1
        result = interpret(selector, headers, sub.profile)
        if result.decision is Decision.REJECT:
            continue
        if result.decision is Decision.ACCEPT_WITH_TRANSFORM:
            sub.transformed += 1
            transformed += 1
        else:
            sub.accepted += 1
        delivered += 1
        if accept is None:
            sub.callback(Delivery(message, result))
        else:
            accept(sub, Delivery(message, result))
    return checked, delivered, transformed


class SemanticBus:
    """Profile-addressed multicast dispatch.

    >>> from repro.core.profiles import ClientProfile
    >>> bus = SemanticBus()
    >>> got = []
    >>> p = ClientProfile("a", {"role": "medic"})
    >>> sub = bus.attach(p, lambda d: got.append(d.message.kind))
    >>> _ = bus.publish(SemanticMessage.create("b", "role == 'medic'", kind="alert"))
    >>> got
    ['alert']

    Parameters
    ----------
    indexed:
        When true (default) the bus maintains a predicate index over
        attached profiles and shortlists candidates per publish; when
        false every publish linearly interprets against every profile.
        Either way the delivery decisions are identical.
    """

    def __init__(self, indexed: bool = True) -> None:
        self._subs: list[Subscription] = []
        self.engine: Optional[MatchingEngine] = MatchingEngine() if indexed else None
        self.published = 0
        # per-bus attach ordinal, allocated under the lock: two buses (or
        # two threads attaching to one bus) never contend on shared state
        self._seq_counter = 0
        self._attach_lock = make_lock("SemanticBus._attach_lock")
        # profile identity -> subscriptions, so sender-loopback exclusion
        # is O(subs sharing that profile) instead of a full-bus walk
        self._by_profile: dict[int, list[Subscription]] = {}

    def attach(self, profile: ClientProfile, callback: Callable[[Delivery], None]) -> Subscription:
        """Join the bus with a profile and a delivery callback."""
        with self._attach_lock:
            self._seq_counter += 1
            sub = Subscription(self, profile, callback, self._seq_counter)
            self._subs.append(sub)
            self._by_profile.setdefault(id(profile), []).append(sub)
            if self.engine is not None:
                self.engine.add(sub, profile)
        return sub

    def _detach(self, sub: Subscription) -> None:
        """Remove a subscription; safe to call more than once."""
        with self._attach_lock:
            try:
                self._subs.remove(sub)
            except ValueError:
                pass
            else:
                sub._frozen_rejected = sub.rejected  # stop tracking offers
                bucket = self._by_profile.get(id(sub.profile))
                if bucket is not None:
                    if sub in bucket:
                        bucket.remove(sub)
                    if not bucket:
                        del self._by_profile[id(sub.profile)]
            if self.engine is not None:
                self.engine.remove(sub)

    def detach(self, sub: Subscription) -> None:
        """Detach ``sub`` from the bus (idempotent; broker-API surface)."""
        sub.detach()

    @property
    def subscribers(self) -> int:
        return len(self._subs)

    def _plan_publish(
        self, message: SemanticMessage, exclude: Optional[ClientProfile]
    ) -> tuple[list[Subscription], int, int, bool]:
        """Admission stage of one publish, caller holds ``_attach_lock``.

        Returns ``(candidates, offered, excluded, via_index)`` computed
        against a consistent snapshot of the subscription list and the
        index — a concurrent :meth:`attach`/:meth:`Subscription.detach`
        can no longer skew ``rejected`` accounting or mutate the list
        mid-iteration (interpretation and delivery then run outside the
        lock, so callbacks may themselves attach or detach).
        """
        self.published += 1
        offered = len(self._subs)
        excluded = 0
        if exclude is not None:
            # O(subs sharing the sender's profile), not O(all subs)
            for sub in self._by_profile.get(id(exclude), ()):
                sub._excluded += 1
                excluded += 1
        shortlist = None
        via_index = False
        if self.engine is not None:
            sl = self.engine.shortlist(message.selector)
            shortlist, via_index = sl.keys, sl.via_index
        if shortlist is None:
            # linear fallback by design: disjunctions/negations defeat the
            # index, and the snapshot copy is what lets delivery run
            # outside the lock (callbacks may attach/detach)
            candidates = list(self._subs)  # repro: ignore[PERF001]
        else:
            # subscribers the index excluded are rejected without running
            # the interpreter — same outcome it would reach; attach order
            # keeps delivery order identical to the linear path
            candidates = sorted(shortlist, key=lambda s: s._seq)
        return candidates, offered, excluded, via_index

    def publish(
        self, message: SemanticMessage, exclude: Optional[ClientProfile] = None
    ) -> PublishResult:
        """Offer ``message`` to every endpoint; returns a :class:`PublishResult`.

        ``exclude`` suppresses sender loopback (a client does not
        re-receive its own events).
        """
        headers = message.effective_headers()
        with self._attach_lock:
            candidates, offered, excluded, via_index = self._plan_publish(message, exclude)
        checked, delivered, transformed = offer(
            message, message.selector, headers, candidates, exclude
        )
        return PublishResult(
            delivered=delivered,
            transformed=transformed,
            rejected=offered - excluded - delivered,
            candidates_checked=checked,
            matched_via_index=via_index,
        )

    def publish_many(
        self,
        messages: Iterable[SemanticMessage],
        exclude: Optional[ClientProfile] = None,
    ) -> BatchPublishResult:
        """Publish a batch of messages; returns a :class:`BatchPublishResult`.

        Single-shard fallback semantics: messages are dispatched in
        submission order with decisions, per-message results, and
        delivery order identical to calling :meth:`publish` in a loop —
        the point is the *API*, so callers write to one batch entry
        point regardless of backend (see
        :class:`~repro.messaging.sharded.ShardedSemanticBus` for the
        backend that actually amortizes batch work).
        """
        return BatchPublishResult(
            results=tuple(self.publish(message, exclude=exclude) for message in messages)
        )

    def stats(self) -> dict[str, object]:
        """Counters describing this broker (broker-API surface)."""
        out: dict[str, object] = {
            "backend": "semantic-bus",
            "shards": 1,
            "subscribers": len(self._subs),
            "published": self.published,
            "indexed": self.engine is not None,
        }
        if self.engine is not None:
            out["indexed_publishes"] = self.engine.indexed_publishes
            out["linear_publishes"] = self.engine.linear_publishes
            out["reindexes"] = self.engine.reindexes
        return out
