"""Tests for the indexed matching engine: cache, decomposition, index."""

import pytest

from repro.core.matching_engine import (
    MatchingEngine,
    ProfileIndex,
    compile_selector,
    selector_cache_info,
)
from repro.core.profiles import ClientProfile
from repro.core.selectors import Predicate, Selector, SelectorError, decompose


# ----------------------------------------------------------------------
# selector cache (the LRU of selectors.parse, shared with profiles)
# ----------------------------------------------------------------------
class TestSelectorCache:
    def test_parse_once_then_hit(self):
        before = selector_cache_info()
        a = compile_selector("role == 'cache-probe-medic'")
        b = compile_selector("role == 'cache-probe-medic'")
        after = selector_cache_info()
        assert a is b
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] - before["misses"] == 1

    def test_parse_errors_not_cached(self):
        before = selector_cache_info()
        for _ in range(2):
            with pytest.raises(SelectorError):
                compile_selector("role ==")
        after = selector_cache_info()
        assert after["size"] == before["size"]
        assert after["misses"] - before["misses"] == 2
        assert after["hits"] == before["hits"]

    def test_compile_selector_global_cache(self):
        a = compile_selector("battery >= 42 and role == 'medic'")
        b = compile_selector("battery >= 42 and role == 'medic'")
        assert a is b
        info = selector_cache_info()
        assert info["hits"] >= 1
        assert info["size"] <= info["maxsize"]

    def test_compile_selector_passthrough(self):
        sel = Selector("role == 'medic'")
        before = selector_cache_info()
        assert compile_selector(sel) is sel
        assert selector_cache_info() == before

    def test_profiles_and_messages_share_one_cache(self):
        profile = ClientProfile("c", {"role": "medic"})
        profile.set_interest("kind == 'cache-probe-shared'")
        before = selector_cache_info()
        compile_selector("kind == 'cache-probe-shared'")
        assert selector_cache_info()["hits"] - before["hits"] == 1


# ----------------------------------------------------------------------
# conjunctive decomposition
# ----------------------------------------------------------------------
class TestDecompose:
    def plan(self, text):
        return decompose(Selector(text))

    def test_simple_equality(self):
        assert self.plan("role == 'medic'") == (Predicate("==", "role", "medic"),)

    def test_flipped_literal_left(self):
        assert self.plan("'medic' == role") == (Predicate("==", "role", "medic"),)
        assert self.plan("5 < battery") == (Predicate(">", "battery", 5),)

    def test_conjunction_flattens(self):
        plan = self.plan("role == 'medic' and battery >= 30 and exists(gps)")
        assert plan == (
            Predicate("==", "role", "medic"),
            Predicate(">=", "battery", 30),
            Predicate("exists", "gps"),
        )

    def test_or_not_fall_back_to_linear(self):
        assert self.plan("role == 'a' or role == 'b'") is None
        assert self.plan("not role == 'a'") is None

    def test_nested_or_is_dropped_not_fatal(self):
        plan = self.plan("role == 'medic' and (tier == 1 or tier == 2)")
        assert plan == (Predicate("==", "role", "medic"),)

    def test_true_gives_empty_plan(self):
        assert self.plan("true") == ()

    def test_false_gives_never(self):
        assert self.plan("false") == (Predicate("never"),)
        assert self.plan("role == 'x' and false") == (
            Predicate("==", "role", "x"),
            Predicate("never"),
        )

    def test_in_and_contains(self):
        assert self.plan("enc in ['jpeg', 'png']") == (
            Predicate("in", "enc", ("jpeg", "png")),
        )
        assert self.plan("caps contains 'jpeg'") == (
            Predicate("contains", "caps", "jpeg"),
        )

    def test_not_equal_is_dropped(self):
        assert self.plan("role != 'medic'") == ()
        assert self.plan("a == 1 and b != 2") == (Predicate("==", "a", 1),)

    def test_attr_vs_attr_dropped(self):
        assert self.plan("a == b") == ()

    def test_constant_comparisons_folded(self):
        assert self.plan("1 == 1") == ()
        assert self.plan("1 == 2") == (Predicate("never"),)
        assert self.plan("'x' in ['y']") == (Predicate("never"),)

    def test_bare_bool_attr(self):
        assert self.plan("urgent") == (Predicate("==", "urgent", True),)

    def test_plan_memoised_on_selector(self):
        sel = Selector("role == 'medic'")
        assert sel.conjunctive_plan() is sel.conjunctive_plan()


# ----------------------------------------------------------------------
# profile index
# ----------------------------------------------------------------------
class TestProfileIndex:
    def test_equality_lookup(self):
        idx = ProfileIndex()
        idx.add("a", {"role": "medic"})
        idx.add("b", {"role": "clerk"})
        assert idx.satisfying(Predicate("==", "role", "medic")) == {"a"}
        assert idx.satisfying(Predicate("==", "role", "none")) == set()

    def test_numeric_cross_type_equality(self):
        idx = ProfileIndex()
        idx.add("a", {"battery": 30})
        assert idx.satisfying(Predicate("==", "battery", 30.0)) == {"a"}

    def test_bool_is_not_a_number(self):
        idx = ProfileIndex()
        idx.add("a", {"flag": True})
        idx.add("b", {"flag": 1})
        assert idx.satisfying(Predicate("==", "flag", True)) == {"a"}
        assert idx.satisfying(Predicate("==", "flag", 1)) == {"b"}
        # bools never satisfy ordered comparisons
        assert idx.satisfying(Predicate(">", "flag", 0)) == {"b"}

    def test_ordered_lookups(self):
        idx = ProfileIndex()
        for key, battery in (("a", 10), ("b", 20), ("c", 30)):
            idx.add(key, {"battery": battery})
        assert idx.satisfying(Predicate(">=", "battery", 20)) == {"b", "c"}
        assert idx.satisfying(Predicate(">", "battery", 20)) == {"c"}
        assert idx.satisfying(Predicate("<=", "battery", 20)) == {"a", "b"}
        assert idx.satisfying(Predicate("<", "battery", 20)) == {"a"}

    def test_string_ordered_lookup(self):
        idx = ProfileIndex()
        idx.add("a", {"name": "alpha"})
        idx.add("b", {"name": "zulu"})
        assert idx.satisfying(Predicate("<", "name", "mike")) == {"a"}
        # a string-literal bound never matches numeric values and vice versa
        idx.add("c", {"name": 5})
        assert idx.satisfying(Predicate("<", "name", "mike")) == {"a"}

    def test_exists_and_in_and_contains(self):
        idx = ProfileIndex()
        idx.add("a", {"gps": "yes", "caps": ["jpeg", "png"]})
        idx.add("b", {"caps": ["pcm"]})
        assert idx.satisfying(Predicate("exists", "gps")) == {"a"}
        assert idx.satisfying(Predicate("contains", "caps", "jpeg")) == {"a"}
        assert idx.satisfying(Predicate("in", "gps", ("yes", "no"))) == {"a"}
        assert idx.satisfying(Predicate("never")) == set()

    def test_remove_is_exact_and_idempotent(self):
        idx = ProfileIndex()
        idx.add("a", {"role": "medic", "battery": 30, "caps": ["jpeg"]})
        idx.add("b", {"role": "medic"})
        idx.remove("a")
        idx.remove("a")  # idempotent
        assert idx.satisfying(Predicate("==", "role", "medic")) == {"b"}
        assert idx.satisfying(Predicate(">=", "battery", 0)) == set()
        assert idx.satisfying(Predicate("contains", "caps", "jpeg")) == set()
        assert "a" not in idx
        assert len(idx) == 1

    def test_re_add_reindexes(self):
        idx = ProfileIndex()
        idx.add("a", {"role": "medic"})
        idx.add("a", {"role": "clerk"})
        assert idx.satisfying(Predicate("==", "role", "medic")) == set()
        assert idx.satisfying(Predicate("==", "role", "clerk")) == {"a"}
        assert len(idx) == 1


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
def engine_with(*attr_maps):
    eng = MatchingEngine()
    profiles = []
    for i, attrs in enumerate(attr_maps):
        p = ClientProfile(f"c{i}", attrs)
        eng.add(f"c{i}", p)
        profiles.append(p)
    return eng, profiles


class TestMatchingEngine:
    def test_counting_shortlist(self):
        eng, _ = engine_with(
            {"role": "medic", "battery": 80},
            {"role": "medic", "battery": 10},
            {"role": "clerk", "battery": 90},
        )
        sl = eng.shortlist("role == 'medic' and battery >= 50")
        assert sl.via_index
        assert sl.keys == {"c0"}

    def test_broadcast_falls_back_to_linear(self):
        eng, _ = engine_with({"role": "medic"})
        sl = eng.shortlist("true")
        assert sl.linear
        assert not sl.via_index

    def test_disjunction_falls_back_to_linear(self):
        eng, _ = engine_with({"role": "medic"})
        assert eng.shortlist("role == 'a' or role == 'b'").linear
        assert eng.linear_publishes == 1

    def test_constant_false_shortlists_nobody(self):
        eng, _ = engine_with({"role": "medic"})
        sl = eng.shortlist("false")
        assert sl.keys == set()
        assert sl.via_index

    def test_profile_update_reindexes_lazily(self):
        eng, (p0,) = engine_with({"role": "observer"})
        assert eng.shortlist("role == 'medic'").keys == set()
        p0.update(role="medic")  # watcher marks the entry dirty
        sl = eng.shortlist("role == 'medic'")
        assert sl.keys == {"c0"}
        assert eng.reindexes == 1

    def test_remove_stops_indexing_and_unwatches(self):
        eng, (p0,) = engine_with({"role": "medic"})
        eng.remove("c0")
        eng.remove("c0")  # idempotent
        assert len(eng) == 0
        p0.update(role="clerk")  # must not resurrect the entry
        assert eng.shortlist("role == 'clerk'").keys == set()
        assert eng.reindexes == 0

    def test_shortlist_is_superset_of_matches(self):
        # the 'or' conjunct is dropped, widening the shortlist — but the
        # shortlist must still contain every true match
        eng, _ = engine_with(
            {"role": "medic", "tier": 1},
            {"role": "medic", "tier": 9},
            {"role": "clerk", "tier": 1},
        )
        sl = eng.shortlist("role == 'medic' and (tier == 1 or tier == 2)")
        assert sl.via_index
        assert sl.keys == {"c0", "c1"}  # c1 is a false positive; interpret() prunes it


class TestBatchSurface:
    """The batch helpers the sharded broker builds on."""

    def test_attribute_universe_tracks_membership(self):
        eng, (p0,) = engine_with({"role": "medic", "tier": 1})
        eng.flush()
        assert eng.attribute_universe() == {"role", "tier"}
        eng.remove("c0")
        eng.flush()
        assert eng.attribute_universe() == set()

    def test_attribute_universe_follows_profile_updates(self):
        eng, (p0,) = engine_with({"role": "medic"})
        p0.update(zone="north")
        eng.flush()  # re-index the dirty profile before consulting
        assert "zone" in eng.attribute_universe()

    def test_shortlist_many_memoises_distinct_selectors(self):
        eng, _ = engine_with({"role": "medic"}, {"role": "clerk"})
        before = eng.indexed_publishes
        out = eng.shortlist_many(
            ["role == 'medic'", "role == 'medic'", "role == 'clerk'"]
        )
        assert len(out) == 3
        assert out[0] is out[1]  # repeated selector: one probe, shared result
        assert out[0].keys == {"c0"} and out[2].keys == {"c1"}
        assert eng.indexed_publishes - before == 2  # 2 distinct, not 3

    def test_shortlist_many_flushes_once_for_the_batch(self):
        eng, (p0,) = engine_with({"role": "observer"})
        p0.update(role="medic")
        out = eng.shortlist_many(["role == 'medic'"])
        assert out[0].keys == {"c0"}
        assert eng.reindexes == 1
