"""Sharded batch-throughput semantic broker.

The plain :class:`~repro.messaging.broker.SemanticBus` keeps one
predicate index over every attached profile and dispatches one message
at a time.  That is fast for one bus, but "serves a million
subscribers" needs three things S-ToPSS-style semantic pub/sub practice
calls out (PAPERS.md):

* **partitioning** — the predicate index is split into shards keyed by
  *attribute signature* (the set of attribute names a profile carries at
  attach time).  Subscriptions land on the shard their signature hashes
  to; profiles with no attributes land in the catch-all shard 0.  At
  publish time a selector's :func:`~repro.core.selectors.required_attributes`
  are tested against each shard's attribute universe — a shard whose
  population carries none of a required attribute is skipped outright,
  including for selectors the per-shard index cannot serve (disjunctions,
  negations), which on the plain bus force a full-population linear scan;
* **batching** — :meth:`ShardedSemanticBus.publish_many` amortizes
  header materialization, selector compilation, and shortlist counting
  across a whole batch: each *distinct* selector is shortlisted once per
  touched shard, not once per message.

Matching fans out on a pool of one worker per shard, whatever the CPU
count, and an **ordered merge** reassembles the per-shard decision
streams by ``(message index, attach ordinal)``; each merged entry goes
straight to its subscriber's callback.  Deliveries are therefore
decision- *and order-identical* to publishing the same messages one by
one on a linear ``SemanticBus``.  Only the phase structure differs: a
batch matches first, then delivers.
"""

from __future__ import annotations

import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from heapq import merge as _ordered_merge
from typing import Callable, Iterable, Optional

from ..core.matching_engine import MatchingEngine, compile_selector
from ..core.profiles import ClientProfile
from ..core.selectors import Selector
from .broker import BatchPublishResult, Delivery, PublishResult, Subscription, offer
from .message import SemanticMessage

__all__ = ["ShardedSemanticBus", "ShardSubscription"]


class ShardSubscription(Subscription):
    """A :class:`~repro.messaging.broker.Subscription` plus its shard routing."""

    def __init__(
        self,
        bus: "ShardedSemanticBus",
        profile: ClientProfile,
        callback: Callable[[Delivery], None],
        seq: int,
        shard: int,
    ) -> None:
        super().__init__(bus, profile, callback, seq)
        #: index of the shard this subscription's signature routed to
        self.shard = shard


class _Shard:
    """One partition: its own predicate index plus its members."""

    __slots__ = ("engine", "subs")

    def __init__(self) -> None:
        self.engine = MatchingEngine()
        self.subs: list[ShardSubscription] = []


def _signature_shard(signature: frozenset, nshards: int) -> int:
    """Stable shard id for an attribute-name signature.

    Profiles with no attributes (nothing to key on) land in the
    catch-all shard 0.
    """
    if not signature:
        return 0
    digest = zlib.crc32("\x00".join(sorted(signature)).encode("utf-8"))
    return digest % nshards


class ShardedSemanticBus:
    """Signature-sharded, batch-capable semantic broker.

    Satisfies the same :class:`~repro.messaging.transport.BrokerAPI`
    contract as :class:`~repro.messaging.broker.SemanticBus` — same
    attach/detach semantics, same :class:`PublishResult` accounting,
    decision- and order-identical deliveries.

    Parameters
    ----------
    shards:
        Number of index partitions.  ``1`` degenerates to a single
        engine (still batch-capable).
    workers:
        Worker threads for per-shard matching fan-out.  Defaults to
        ``shards``; values ``<= 1`` run matching inline (the ordered
        merge makes either mode deterministic).
    """

    def __init__(self, shards: int = 8, workers: Optional[int] = None) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self._shards = [_Shard() for _ in range(shards)]
        self.published = 0
        self._size = 0
        self._seq_counter = 0
        self._attach_lock = threading.Lock()
        self._by_profile: dict[int, list[ShardSubscription]] = {}
        # one worker per shard, never the host's CPU count: what runs
        # inline and what runs on the pool must not depend on the machine
        self._workers = max(1, shards if workers is None else workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        # observability
        self.batches = 0
        #: (selector, shard) pairs skipped by the required-attribute test,
        #: weighted by the number of messages they would have served
        self.shard_skips = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self._shards)

    @property
    def subscribers(self) -> int:
        return self._size

    def shard_sizes(self) -> tuple[int, ...]:
        """Current population of each shard (routing observability)."""
        return tuple(len(shard.subs) for shard in self._shards)

    def route(self, profile: ClientProfile) -> int:
        """The shard ``profile``'s current attribute signature maps to."""
        return _signature_shard(frozenset(profile.snapshot()), len(self._shards))

    def attach(
        self, profile: ClientProfile, callback: Callable[[Delivery], None]
    ) -> ShardSubscription:
        """Join the bus; the profile's signature picks its shard."""
        shard_id = self.route(profile)
        with self._attach_lock:
            self._seq_counter += 1
            sub = ShardSubscription(self, profile, callback, self._seq_counter, shard_id)
            shard = self._shards[shard_id]
            shard.subs.append(sub)
            self._by_profile.setdefault(id(profile), []).append(sub)
            self._size += 1
            shard.engine.add(sub, profile)
        return sub

    def _detach(self, sub: Subscription) -> None:
        """Bus-side removal (reached via ``Subscription.detach``)."""
        assert isinstance(sub, ShardSubscription)
        with self._attach_lock:
            shard = self._shards[sub.shard]
            try:
                shard.subs.remove(sub)
            except ValueError:
                pass
            else:
                sub._frozen_rejected = sub.rejected
                self._size -= 1
                bucket = self._by_profile.get(id(sub.profile))
                if bucket is not None:
                    if sub in bucket:
                        bucket.remove(sub)
                    if not bucket:
                        del self._by_profile[id(sub.profile)]
            shard.engine.remove(sub)

    def detach(self, sub: Subscription) -> None:
        """Detach ``sub`` from the bus (idempotent; broker-API surface)."""
        sub.detach()

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish(
        self, message: SemanticMessage, exclude: Optional[ClientProfile] = None
    ) -> PublishResult:
        """Single-message publish; a batch of one (same accounting as
        :meth:`SemanticBus.publish <repro.messaging.broker.SemanticBus.publish>`)."""
        return self.publish_many((message,), exclude=exclude).results[0]

    def publish_many(
        self,
        messages: Iterable[SemanticMessage],
        exclude: Optional[ClientProfile] = None,
    ) -> BatchPublishResult:
        """Batch publish: match per shard, merge ordered, deliver.

        Admission runs against a consistent snapshot taken when the
        batch starts: subscribers attached by delivery callbacks see
        only subsequent batches.  Deliveries are invoked on the calling
        thread in ``(message, attach-order)`` order — identical to a
        linear bus.
        """
        msgs = list(messages)
        if not msgs:
            return BatchPublishResult(results=())
        n = len(msgs)
        # amortized per-message materialization, shared by every shard
        headers_list = [m.effective_headers() for m in msgs]
        selectors = [compile_selector(m.selector) for m in msgs]
        groups: dict[str, list[int]] = {}
        for i, sel in enumerate(selectors):
            groups.setdefault(sel.text, []).append(i)
        sel_of: dict[str, Selector] = {sel.text: sel for sel in selectors}

        with self._attach_lock:
            self.batches += 1
            self.published += n
            offered = self._size
            excluded = 0
            if exclude is not None:
                for ex_sub in self._by_profile.get(id(exclude), ()):
                    ex_sub._excluded += n
                    excluded += 1
            # matching completes under the attach lock, so shard
            # membership is frozen for the batch: hand the live lists to
            # the workers instead of copying O(population) per publish
            work = [
                (shard.engine, shard.subs)
                for shard in self._shards
                if shard.subs
            ]
            outputs = self._match_all(work, msgs, headers_list, selectors, sel_of, groups, exclude)

        # -------- ordered merge + delivery --------
        checked = [0] * n
        delivered = [0] * n
        transformed = [0] * n
        for _entries, shard_counts, shard_skipped in outputs:
            for i, (c, d, t) in enumerate(shard_counts):
                checked[i] += c
                delivered[i] += d
                transformed[i] += t
            self.shard_skips += shard_skipped

        merged = _ordered_merge(
            *(entries for entries, _c, _s in outputs), key=lambda e: (e[0], e[1])
        )
        for _m, _seq, sub, delivery in merged:
            sub.callback(delivery)

        return BatchPublishResult(
            results=tuple(
                PublishResult(
                    delivered=delivered[i],
                    transformed=transformed[i],
                    rejected=offered - excluded - delivered[i],
                    candidates_checked=checked[i],
                    matched_via_index=selectors[i].conjunctive_plan() is not None,
                )
                for i in range(n)
            )
        )

    # ------------------------------------------------------------------
    # per-shard matching
    # ------------------------------------------------------------------
    def _match_all(
        self,
        work: list,
        msgs: list[SemanticMessage],
        headers_list: list[dict],
        selectors: list[Selector],
        sel_of: dict[str, Selector],
        groups: dict[str, list[int]],
        exclude: Optional[ClientProfile],
    ) -> list[tuple[list, list[tuple[int, int, int]], int]]:
        """Run :meth:`_match_shard` over every populated shard.

        Fan-out uses the worker pool when configured with more than one
        worker; the caller holds the attach lock either way, so the
        per-shard engines and membership lists are frozen for the batch.
        """
        if len(work) <= 1 or self._workers <= 1 or self._closed:
            return [
                self._match_shard(engine, subs, msgs, headers_list, selectors, sel_of, groups, exclude)
                for engine, subs in work
            ]
        pool = self._ensure_pool()
        futures = [
            pool.submit(
                self._match_shard, engine, subs, msgs, headers_list, selectors, sel_of, groups, exclude
            )
            for engine, subs in work
        ]
        return [f.result() for f in futures]

    @staticmethod
    def _match_shard(
        engine: MatchingEngine,
        subs: list[ShardSubscription],
        msgs: list[SemanticMessage],
        headers_list: list[dict],
        selectors: list[Selector],
        sel_of: dict[str, Selector],
        groups: dict[str, list[int]],
        exclude: Optional[ClientProfile],
    ) -> tuple[list, list[tuple[int, int, int]], int]:
        """Decision stream of one shard for the whole batch.

        Returns ``(entries, counts, skipped)`` where ``entries`` is a
        ``(msg_index, attach_seq, sub, delivery)`` list sorted by
        ``(msg_index, attach_seq)`` (feeds the ordered merge),
        ``counts[i]`` is :func:`~repro.messaging.broker.offer`'s
        ``(checked, delivered, transformed)`` for message ``i``, and
        ``skipped`` counts messages this shard never looked at thanks to
        the required-attribute test.
        """
        engine.flush()
        universe = engine.attribute_universe()
        # one shortlist per *distinct* selector per shard, not per message
        cand_of: dict[str, Optional[list[ShardSubscription]]] = {}
        skipped = 0
        for text, midxs in groups.items():
            sel = sel_of[text]
            required = sel.required_attributes()
            if required and not required <= universe:
                # no profile in this shard carries a required attribute:
                # every member rejects, without running the interpreter —
                # this also covers selectors the index cannot serve
                cand_of[text] = None
                skipped += len(midxs)
                continue
            shortlist = engine.shortlist(sel)
            if shortlist.keys is None:
                cand_of[text] = subs  # linear fallback, shard-local only
            else:
                cand_of[text] = sorted(shortlist.keys, key=lambda s: s._seq)
        entries: list = []
        counts = []
        for m, (msg, sel) in enumerate(zip(msgs, selectors)):

            def enqueue(sub: Subscription, delivery: Delivery, m: int = m) -> None:
                entries.append((m, sub._seq, sub, delivery))

            counts.append(
                offer(msg, sel, headers_list[m], cand_of[sel.text] or (), exclude, accept=enqueue)
            )
        return entries, counts, skipped

    # ------------------------------------------------------------------
    # lifecycle / observability
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        # Lazy init is *double-checked* by construction: every caller
        # (only ``_match_all``) already holds ``_attach_lock``, so the
        # None test and the assignment are one critical section.  The
        # ``_closed`` test is likewise lock-protected, making a
        # close()/publish race impossible rather than merely unlikely.
        if self._closed:
            raise RuntimeError("bus is closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="shard-match"
            )
        return self._pool

    def close(self) -> None:
        """Shut the matching worker pool down.  Idempotent; the bus
        still publishes afterwards (inline matching)."""
        with self._attach_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def stats(self) -> dict[str, object]:
        """Counters describing this broker (broker-API surface)."""
        return {
            "backend": "sharded-semantic-bus",
            "shards": len(self._shards),
            "shard_sizes": self.shard_sizes(),
            "subscribers": self._size,
            "published": self.published,
            "batches": self.batches,
            "indexed": True,
            "workers": self._workers,
            "shard_skips": self.shard_skips,
        }
