"""Client profiles: interests, capabilities, state, and resources.

"Each client locally maintains a profile that defines its current state,
its interests and its capabilities ... The profile is dynamic and changes
locally to reflect the changes in the client or system state" (paper
Secs. 3, 5.2).  Profiles are the *only* addressing mechanism — there is
no global roster; a message reaches whichever profiles satisfy its
selector at delivery time.

A profile has three faces:

* ``attributes`` — what message selectors are evaluated against (role,
  device class, session, current modality, resource state, ...);
* ``interest`` — a :class:`~repro.core.selectors.Selector` over message
  headers: what the client wants to receive;
* ``transforms`` — :class:`TransformRule` rewrites the client can apply,
  enabling conditional acceptance (Fig. 3's "accepts the message with a
  transformation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .attributes import AttributeValue, coerce_value, values_equal
from .selectors import Selector, TRUE_SELECTOR, parse

__all__ = ["TransformRule", "ClientProfile", "ProfileError"]


class ProfileError(ValueError):
    """Raised on malformed profile updates."""


@dataclass(frozen=True)
class TransformRule:
    """A header rewrite this client can realise with a local transformer.

    ``TransformRule("encoding", "mpeg2", "jpeg")`` says: if a message
    arrives with ``encoding == 'mpeg2'``, this client can consume it as if
    ``encoding == 'jpeg'`` (it owns an MPEG2→JPEG transcoder).
    """

    attribute: str
    from_value: AttributeValue
    to_value: AttributeValue

    def applies_to(self, headers: dict[str, AttributeValue]) -> bool:
        """Whether the rule's precondition holds on ``headers``."""
        return values_equal(headers.get(self.attribute), self.from_value)

    def apply(self, headers: dict[str, AttributeValue]) -> dict[str, AttributeValue]:
        """Rewritten copy of ``headers`` (precondition must hold)."""
        if not self.applies_to(headers):
            raise ProfileError(f"rule {self} does not apply to {headers}")
        out = dict(headers)
        out[self.attribute] = self.to_value
        return out


class ClientProfile:
    """A locally maintained, locally mutable semantic profile.

    Parameters
    ----------
    client_id:
        Diagnostic label only — never used for addressing.
    attributes:
        Initial attribute map (coerced via
        :func:`~repro.core.attributes.coerce_value`).
    interest:
        Selector over message headers; defaults to accept-everything.
    transforms:
        Rewrite rules backed by the client's local transformers.
    """

    def __init__(
        self,
        client_id: str,
        attributes: Optional[dict[str, Any]] = None,
        interest: Optional[Selector | str] = None,
        transforms: Iterable[TransformRule] = (),
    ) -> None:
        self.client_id = client_id
        self._attributes: dict[str, AttributeValue] = {}
        for k, v in (attributes or {}).items():
            self._attributes[k] = coerce_value(v)
        if interest is None:
            self.interest = TRUE_SELECTOR
        elif isinstance(interest, str):
            self.interest = parse(interest)  # LRU: repeats parse once
        else:
            self.interest = interest
        self.transforms: list[TransformRule] = list(transforms)
        #: bumped on every mutation; lets observers cheaply detect change
        self.version = 0
        self._watchers: list[Callable[["ClientProfile"], None]] = []

    # ------------------------------------------------------------------
    # attribute surface (read-mostly mapping)
    # ------------------------------------------------------------------
    def get(self, name: str, default: Any = None) -> Any:
        return self._attributes.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._attributes

    # ------------------------------------------------------------------
    # local mutation ("profiles are maintained and modifiable by clients")
    # ------------------------------------------------------------------
    def update(self, **attrs: Any) -> None:
        """Set one or more attributes (local, immediate)."""
        for k, v in attrs.items():
            self._attributes[k] = coerce_value(v)
        self._bump()

    def set_interest(self, interest: Selector | str) -> None:
        """Replace the interest selector."""
        self.interest = parse(interest) if isinstance(interest, str) else interest
        self._bump()

    # ------------------------------------------------------------------
    # change notification (feeds e.g. the matching engine's index)
    # ------------------------------------------------------------------
    def watch(self, callback: Callable[["ClientProfile"], None]) -> Callable[[], None]:
        """Call ``callback(profile)`` after every mutation.

        Returns an unwatch function; calling it more than once is a
        no-op.  Watchers must not mutate the profile re-entrantly.
        """
        self._watchers.append(callback)

        def unwatch() -> None:
            try:
                self._watchers.remove(callback)
            except ValueError:
                pass

        return unwatch

    def _bump(self) -> None:
        self.version += 1
        for cb in tuple(self._watchers):
            cb(self)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, AttributeValue]:
        """An immutable-ish copy for matching at a point in time."""
        return dict(self._attributes)

    def __repr__(self) -> str:
        return (
            f"ClientProfile({self.client_id!r}, v{self.version},"
            f" attrs={len(self._attributes)}, transforms={len(self.transforms)})"
        )
