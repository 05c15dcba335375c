"""Semantic interpretation: selector × profile → accept / transform / reject.

Implements the paper's Figure 3 exactly:

* Profile 1 matches the incoming selector → **accept**;
* Profile 2 wants something incompatible → **reject**;
* Profile 3 wants JPEG, stream is MPEG2, but the client owns an
  MPEG2→JPEG transformer → **accept with transformation**.

Interpretation happens *at the receiver*: the sender multicasts without
knowing who exists; each client runs :func:`interpret` against its own
local profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Optional

from .attributes import AttributeValue
from .matching_engine import compile_selector
from .profiles import ClientProfile, TransformRule
from .selectors import Selector

__all__ = ["Decision", "MatchResult", "interpret", "match_selector"]

#: The longest transformation chain :func:`interpret` tries.
MAX_TRANSFORMS = 2


class Decision(Enum):
    """Outcome of the semantic interpretation process."""

    ACCEPT = "accept"
    ACCEPT_WITH_TRANSFORM = "accept-with-transform"
    REJECT = "reject"


@dataclass(frozen=True)
class MatchResult:
    """Interpretation outcome plus how to realise it.

    ``transforms`` lists the rewrite rules (in application order) that
    make the message acceptable; ``effective_headers`` is the header map
    *after* those rewrites — what the application layer should treat the
    payload as once the corresponding transformers have run.
    """

    decision: Decision
    transforms: tuple[TransformRule, ...] = ()
    effective_headers: dict[str, AttributeValue] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.decision is not Decision.REJECT


def match_selector(selector: Selector | str, profile: ClientProfile) -> bool:
    """Does the message's selector address this profile?

    Selector strings are compiled through the process-wide LRU cache.
    """
    return compile_selector(selector).matches(profile.snapshot())


def interpret(
    selector: Selector | str,
    headers: dict[str, AttributeValue],
    profile: ClientProfile,
) -> MatchResult:
    """Full receiver-side interpretation of one message.

    Steps:

    1. The selector must address this profile (else the message simply is
       not for us — reject).
    2. If the profile's interest accepts the headers as-is → accept.
    3. Otherwise search transform-rule applications (chains up to
       :data:`MAX_TRANSFORMS` long, breadth-first so shorter chains win) for a
       rewritten header map the interest accepts → accept-with-transform.
    4. Nothing helps → reject.
    """
    if not match_selector(selector, profile):
        return MatchResult(Decision.REJECT)
    if profile.interest.matches(headers):
        return MatchResult(Decision.ACCEPT, effective_headers=dict(headers))

    # breadth-first over transformation chains
    frontier: list[tuple[dict[str, AttributeValue], tuple[TransformRule, ...]]] = [
        (dict(headers), ())
    ]
    seen: set[tuple[tuple[str, str], ...]] = set()
    for _depth in range(MAX_TRANSFORMS):
        next_frontier: list[tuple[dict[str, AttributeValue], tuple[TransformRule, ...]]] = []
        for hdrs, chain in frontier:
            for rule in profile.transforms:
                if rule in chain:
                    continue  # a transformer runs at most once per message
                if not rule.applies_to(hdrs):
                    continue
                rewritten = rule.apply(hdrs)
                key = tuple(sorted((k, repr(v)) for k, v in rewritten.items()))
                if key in seen:
                    continue
                seen.add(key)
                new_chain = chain + (rule,)
                if profile.interest.matches(rewritten):
                    return MatchResult(
                        Decision.ACCEPT_WITH_TRANSFORM,
                        transforms=new_chain,
                        effective_headers=rewritten,
                    )
                next_frontier.append((rewritten, new_chain))
        frontier = next_frontier
        if not frontier:
            break
    return MatchResult(Decision.REJECT)
