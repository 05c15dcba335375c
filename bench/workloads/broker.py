"""broker_match_scale — the in-process semantic matcher at scale.

One seeded population of 6 000 profiles (six attribute signatures) is
attached to both ``make_broker(indexed=True)`` and
``make_broker(shards=8)``.  Op = one 8-message batch whose selectors are
seeded draws from a pool of 256 texts (narrow conjunctions, range
predicates, linear-fallback disjunctions, one session-wide), published
message-by-message on the plain bus and through ``publish_many`` on the
sharded one, plus four detach/attach pairs on each — writes beside
reads.  Both backends must deliver the same (subscriber, message)
sequence.  There is no simulated network here, so no virtual time.
"""

from __future__ import annotations

import random

from repro.core.profiles import ClientProfile
from repro.messaging.message import SemanticMessage
from repro.messaging.transport import make_broker

from .base import CheckResult, Workload, selector_totals

POPULATION = 6000
SHARDS = 8
BATCH = 8
REATTACH_PAIRS = 4
SESSION = "bench-broker"

SIGNATURES: tuple[tuple[str, ...], ...] = (
    ("role", "team"),
    ("role", "zone"),
    ("role", "team", "zone", "rank"),
    ("modality", "team"),
    ("modality", "zone", "rank"),
    ("role",),
)
VALUES = {
    "role": ("medic", "scout", "engineer", "observer"),
    "team": ("alpha", "bravo", "charlie"),
    "zone": ("north", "south", "east", "west"),
    "modality": ("image", "text", "speech"),
}
RANKS = 100
#: selector texts per kind; with the one session-wide text: 256
POOL_SIZES = {"conjunction": 96, "range": 128, "disjunction": 31}
#: a disjunction defeats the predicate index (a scan of every
#: attribute-compatible profile) and the session-wide selector delivers
#: to all 6 000, so each costs ~10x a narrow message.  Their *places* in
#: the op sequence are fixed — the texts stay seeded draws — so the op
#: mix has a period (``mix_period``) and every period the same weight.
DISJUNCTION_EVERY = 4
SESSION_WIDE_EVERY = 32


def population(rng: random.Random, n: int) -> list[ClientProfile]:
    profiles = []
    for i in range(n):
        attrs: dict[str, object] = {"session": SESSION}
        for attribute in SIGNATURES[i % len(SIGNATURES)]:
            if attribute == "rank":
                attrs["rank"] = rng.randrange(RANKS)
            else:
                attrs[attribute] = rng.choice(VALUES[attribute])
        profiles.append(ClientProfile(f"p{i:04d}", attrs))
    return profiles


def _equals(rng: random.Random, attribute: str) -> str:
    return f"{attribute} == '{rng.choice(VALUES[attribute])}'"


def _selector_text(rng: random.Random, kind: str) -> str:
    if kind == "conjunction":
        names = [a for a in rng.choice(SIGNATURES[:5]) if a != "rank"]
        return " and ".join(_equals(rng, a) for a in names)
    if kind == "range":
        low = rng.randrange(RANKS - 4)
        text = f"rank >= {low} and rank < {low + rng.randint(1, 4)}"
        if rng.random() < 0.5:
            text += " and " + _equals(rng, rng.choice(("zone", "modality", "role")))
        return text
    a, b = rng.sample(sorted(VALUES), 2)
    return f"{_equals(rng, a)} or {_equals(rng, b)}"


def selector_pool(rng: random.Random) -> dict[str, list[str]]:
    """Distinct selector texts per kind, in seeded order."""
    pool: dict[str, list[str]] = {}
    for kind, size in POOL_SIZES.items():
        texts: set[str] = set()
        while len(texts) < size:
            texts.add(_selector_text(rng, kind))
        pool[kind] = sorted(texts)
        rng.shuffle(pool[kind])
    pool["session"] = [f"session == '{SESSION}'"]
    return pool


class BrokerMatchScale(Workload):
    name = "broker_match_scale"
    mix_period = SESSION_WIDE_EVERY

    def setup(self) -> None:
        rng = self.rng
        self.profiles = population(rng, POPULATION)
        self.pool = selector_pool(rng)
        self.plain = make_broker(indexed=True)
        self.sharded = make_broker(shards=SHARDS)
        #: (subscriber, message seq) in delivery order, per backend
        self.plain_log: list[tuple[str, int]] = []
        self.sharded_log: list[tuple[str, int]] = []
        self.plain_subs = [
            self.plain.attach(p, self._sink(self.plain_log, p)) for p in self.profiles
        ]
        self.sharded_subs = [
            self.sharded.attach(p, self._sink(self.sharded_log, p)) for p in self.profiles
        ]
        self.checked = self.delivered = 0

    @staticmethod
    def _sink(log: list[tuple[str, int]], profile: ClientProfile):
        client_id = profile.client_id

        def on_delivery(delivery) -> None:
            log.append((client_id, delivery.message.headers["seq"]))

        return on_delivery

    def op(self, index: int) -> None:
        rng = self.rng
        self.plain_log.clear()
        self.sharded_log.clear()
        kinds = ["conjunction"] * 5 + ["range"] * 3
        if index % DISJUNCTION_EVERY == 0:
            kinds[0] = "disjunction"
        if index % SESSION_WIDE_EVERY == SESSION_WIDE_EVERY // 2:
            kinds[-1] = "session"
        rng.shuffle(kinds)
        batch = [
            SemanticMessage.create(
                sender="bench",
                selector=rng.choice(self.pool[kind]),
                headers={"seq": index * BATCH + k},
                kind="broker-scale",
            )
            for k, kind in enumerate(kinds)
        ]
        results = [self.plain.publish(message) for message in batch]
        results.extend(self.sharded.publish_many(batch))
        for result in results:
            self.checked += result.candidates_checked
            self.delivered += result.delivered
        for _ in range(REATTACH_PAIRS):
            who = rng.randrange(POPULATION)
            profile = self.profiles[who]
            self.plain.detach(self.plain_subs[who])
            self.plain_subs[who] = self.plain.attach(
                profile, self._sink(self.plain_log, profile)
            )
            self.sharded.detach(self.sharded_subs[who])
            self.sharded_subs[who] = self.sharded.attach(
                profile, self._sink(self.sharded_log, profile)
            )

    def check(self, index: int) -> CheckResult:
        errors: list[str] = []
        if self.plain_log != self.sharded_log:
            only = set(self.plain_log) ^ set(self.sharded_log)
            errors.append(
                f"backends disagree: {len(self.plain_log)} plain vs"
                f" {len(self.sharded_log)} sharded deliveries,"
                f" {len(only)} in one only" + ("" if only else " (order differs)")
            )
        if self.plain.subscribers != POPULATION or self.sharded.subscribers != POPULATION:
            errors.append("a re-attach lost or duplicated a subscription")
        return errors, None, repr(self.plain_log).encode()

    def totals(self) -> dict[str, float]:
        out = selector_totals()
        out["broker.checked"] = self.checked
        out["broker.delivered"] = self.delivered
        out["broker.shard_skips"] = self.sharded.shard_skips
        return out

    def gauges(self) -> dict[str, float]:
        return {"messaging.sharded_workers": float(self.sharded.stats()["workers"])}

    def close(self) -> None:
        sharded = getattr(self, "sharded", None)
        if sharded is not None:
            sharded.close()
