"""Tests for profiles, transform rules, and the Figure 3 interpretation."""

from unittest import mock

import pytest

from repro.core.attributes import MISSING, coerce_value, values_equal
from repro.core import matching
from repro.core.matching import Decision, interpret, match_selector
from repro.core.profiles import ClientProfile, ProfileError, TransformRule
from repro.core.selectors import Selector


class TestAttributes:
    def test_coerce_scalars(self):
        assert coerce_value(5) == 5
        assert coerce_value("x") == "x"
        assert coerce_value(True) is True

    def test_coerce_tuple_to_list(self):
        assert coerce_value((1, 2)) == [1, 2]

    def test_nested_rejected(self):
        with pytest.raises(TypeError):
            coerce_value([[1]])
        with pytest.raises(TypeError):
            coerce_value({"a": 1})

    def test_values_equal_semantics(self):
        assert values_equal(1, 1.0)
        assert not values_equal("1", 1)
        assert not values_equal(True, 1)  # bool is not a number here
        assert values_equal([1, 2], (1, 2))
        assert not values_equal(MISSING, MISSING)

    def test_missing_is_falsy_singleton(self):
        assert not MISSING
        from repro.core.attributes import _Missing

        assert _Missing() is MISSING


class TestProfile:
    def test_update_bumps_version(self):
        p = ClientProfile("c", {"a": 1})
        v0 = p.version
        p.update(b=2)
        assert p.version == v0 + 1
        assert p.get("b") == 2

    def test_interest_from_string(self):
        p = ClientProfile("c", interest="x == 1")
        assert isinstance(p.interest, Selector)

    def test_default_interest_accepts_all(self):
        p = ClientProfile("c")
        assert p.interest.matches({"anything": 1})

    def test_set_interest(self):
        p = ClientProfile("c")
        p.set_interest("modality == 'text'")
        assert not p.interest.matches({"modality": "image"})

    def test_snapshot_is_detached(self):
        p = ClientProfile("c", {"a": 1})
        snap = p.snapshot()
        p.update(a=2)
        assert snap["a"] == 1


class TestTransformRule:
    def test_applies_and_apply(self):
        rule = TransformRule("encoding", "mpeg2", "jpeg")
        assert rule.applies_to({"encoding": "mpeg2"})
        assert not rule.applies_to({"encoding": "png"})
        assert rule.apply({"encoding": "mpeg2", "x": 1}) == {"encoding": "jpeg", "x": 1}

    def test_apply_without_precondition_raises(self):
        rule = TransformRule("encoding", "mpeg2", "jpeg")
        with pytest.raises(ProfileError):
            rule.apply({"encoding": "png"})


class TestFigure3:
    """The paper's worked example, verbatim."""

    selector = Selector("role == 'participant'")
    headers = {"media": "video", "encoding": "mpeg2", "color": True, "size_mb": 1}

    def test_profile1_accepts(self):
        p = ClientProfile("c1", {"role": "participant"},
                          interest="media == 'video' and encoding == 'mpeg2'")
        r = interpret(self.selector, self.headers, p)
        assert r.decision is Decision.ACCEPT
        assert r.decision is not Decision.REJECT
        assert r.effective_headers == self.headers

    def test_profile2_rejects(self):
        p = ClientProfile("c2", {"role": "participant"},
                          interest="media == 'video' and color == false")
        r = interpret(self.selector, self.headers, p)
        assert r.decision is Decision.REJECT
        assert r.decision is Decision.REJECT

    def test_profile3_accepts_with_transform(self):
        p = ClientProfile(
            "c3",
            {"role": "participant"},
            interest="media == 'video' and encoding == 'jpeg'",
            transforms=[TransformRule("encoding", "mpeg2", "jpeg")],
        )
        r = interpret(self.selector, self.headers, p)
        assert r.decision is Decision.ACCEPT_WITH_TRANSFORM
        assert r.transforms == (TransformRule("encoding", "mpeg2", "jpeg"),)
        assert r.effective_headers["encoding"] == "jpeg"

    def test_unaddressed_profile_rejects_regardless(self):
        p = ClientProfile("c4", {"role": "observer"})
        assert interpret(self.selector, self.headers, p).decision is Decision.REJECT

    def test_match_selector_only(self):
        p = ClientProfile("c", {"role": "participant"})
        assert match_selector(self.selector, p)


class TestTransformChains:
    def test_two_step_chain(self):
        p = ClientProfile(
            "c",
            {"role": "x"},
            interest="modality == 'text'",
            transforms=[
                TransformRule("modality", "image", "sketch"),
                TransformRule("modality", "sketch", "text"),
            ],
        )
        r = interpret(Selector("true"), {"modality": "image"}, p)
        assert r.decision is Decision.ACCEPT_WITH_TRANSFORM
        assert len(r.transforms) == 2

    def test_chain_longer_than_limit_rejected(self):
        p = ClientProfile(
            "c",
            interest="m == 'd'",
            transforms=[
                TransformRule("m", "a", "b"),
                TransformRule("m", "b", "c"),
                TransformRule("m", "c", "d"),
            ],
        )
        assert matching.MAX_TRANSFORMS == 2
        r = interpret(Selector("true"), {"m": "a"}, p)
        assert r.decision is Decision.REJECT
        with mock.patch.object(matching, "MAX_TRANSFORMS", 3):
            r3 = interpret(Selector("true"), {"m": "a"}, p)
        assert r3.decision is Decision.ACCEPT_WITH_TRANSFORM

    def test_shortest_chain_preferred(self):
        p = ClientProfile(
            "c",
            interest="m == 'text'",
            transforms=[
                TransformRule("m", "image", "sketch"),
                TransformRule("m", "sketch", "text"),
                TransformRule("m", "image", "text"),  # direct route
            ],
        )
        r = interpret(Selector("true"), {"m": "image"}, p)
        assert len(r.transforms) == 1

    def test_no_applicable_transform_rejects(self):
        p = ClientProfile(
            "c",
            interest="m == 'text'",
            transforms=[TransformRule("m", "video", "text")],
        )
        r = interpret(Selector("true"), {"m": "image"}, p)
        assert r.decision is Decision.REJECT

    def test_cycle_terminates(self):
        p = ClientProfile(
            "c",
            interest="m == 'never'",
            transforms=[
                TransformRule("m", "a", "b"),
                TransformRule("m", "b", "a"),
            ],
        )
        with mock.patch.object(matching, "MAX_TRANSFORMS", 10):
            r = interpret(Selector("true"), {"m": "a"}, p)
        assert r.decision is Decision.REJECT
