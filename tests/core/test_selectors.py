"""Tests for the semantic-selector language."""

import pytest
from hypothesis import given, strategies as st

from repro.core.selectors import Selector, SelectorError, TRUE_SELECTOR, parse


class TestLexing:
    def test_bad_character_rejected(self):
        with pytest.raises(SelectorError):
            Selector("a == @b")

    def test_empty_rejected(self):
        with pytest.raises(SelectorError):
            Selector("")
        with pytest.raises(SelectorError):
            Selector("   ")

    def test_strings_both_quote_styles(self):
        assert Selector("x == 'a'").matches({"x": "a"})
        assert Selector('x == "a"').matches({"x": "a"})

    def test_numbers(self):
        assert Selector("x == 3").matches({"x": 3})
        assert Selector("x == 3.5").matches({"x": 3.5})
        assert Selector("x == -2").matches({"x": -2})


class TestComparisons:
    def test_equality_and_inequality(self):
        assert Selector("role == 'medic'").matches({"role": "medic"})
        assert not Selector("role == 'medic'").matches({"role": "clerk"})
        assert Selector("role != 'medic'").matches({"role": "clerk"})

    def test_numeric_ordering(self):
        env = {"battery": 45}
        assert Selector("battery > 40").matches(env)
        assert Selector("battery >= 45").matches(env)
        assert Selector("battery < 50").matches(env)
        assert not Selector("battery <= 44").matches(env)

    def test_int_float_equality(self):
        assert Selector("x == 1").matches({"x": 1.0})

    def test_string_number_never_equal(self):
        assert not Selector("x == 1").matches({"x": "1"})
        assert Selector("x != 1").matches({"x": "1"})

    def test_string_ordering(self):
        assert Selector("name < 'm'").matches({"name": "alpha"})

    def test_ordering_across_types_false(self):
        assert not Selector("x < 5").matches({"x": "abc"})

    def test_missing_attribute_clause_false(self):
        assert not Selector("battery > 10").matches({})
        assert not Selector("battery != 10").matches({})  # != also fails on missing

    def test_attr_to_attr_comparison(self):
        assert Selector("have >= need").matches({"have": 10, "need": 5})

    def test_in_list(self):
        s = Selector("encoding in ['mpeg2', 'jpeg']")
        assert s.matches({"encoding": "jpeg"})
        assert not s.matches({"encoding": "png"})
        assert not s.matches({})

    def test_in_mixed_list(self):
        assert Selector("x in [1, 'two', true]").matches({"x": True})

    def test_contains(self):
        s = Selector("capabilities contains 'jpeg'")
        assert s.matches({"capabilities": ["png", "jpeg"]})
        assert not s.matches({"capabilities": ["png"]})
        assert not s.matches({"capabilities": "jpeg"})  # not a list

    def test_exists(self):
        assert Selector("exists(gps)").matches({"gps": 0})
        assert not Selector("exists(gps)").matches({})
        assert Selector("not exists(gps)").matches({})


class TestBooleanLogic:
    def test_and_or_not(self):
        s = Selector("a == 1 and b == 2 or not c == 3")
        assert s.matches({"a": 1, "b": 2, "c": 3})
        assert s.matches({"c": 4})
        assert not s.matches({"a": 1, "b": 9, "c": 3})

    def test_parentheses_override_precedence(self):
        s1 = Selector("a == 1 or b == 1 and c == 1")
        s2 = Selector("(a == 1 or b == 1) and c == 1")
        env = {"a": 1, "c": 2}
        assert s1.matches(env)
        assert not s2.matches(env)

    def test_bare_boolean_attribute(self):
        assert Selector("urgent").matches({"urgent": True})
        assert not Selector("urgent").matches({"urgent": False})
        assert not Selector("urgent").matches({"urgent": 1})  # strict bool

    def test_true_false_literals(self):
        assert Selector("true").matches({})
        assert not Selector("false").matches({})
        assert TRUE_SELECTOR.matches({})

    def test_boolean_value_comparison(self):
        assert Selector("color == false").matches({"color": False})
        assert not Selector("color == false").matches({"color": True})

    def test_nested_not(self):
        assert Selector("not not a == 1").matches({"a": 1})


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "a ==",
            "== 1",
            "a == 1 and",
            "a == 1 or or b == 2",
            "(a == 1",
            "a in []",
            "a in [1,]",
            "a in 5",
            "exists()",
            "exists(a",
            "a == 1 garbage trailing ==",
            "5",
            "'lonely string'",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(SelectorError):
            Selector(text)


class TestIntrospection:
    def test_attributes_collected(self):
        s = Selector("a == 1 and (b in [2] or exists(c)) and not d contains 'x'")
        assert s.attributes() == {"a", "b", "c", "d"}

    def test_parse_alias(self):
        assert parse("a == 1").matches({"a": 1})

    def test_repr_and_hash(self):
        s = Selector("a == 1")
        assert "a == 1" in repr(s)
        assert hash(s) == hash(Selector("a == 1"))

    def test_structural_equality(self):
        assert Selector("a == 1 and b == 2") == Selector("a == 1 and b == 2")
        assert Selector("a == 1") != Selector("a == 2")


names = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
values = st.one_of(st.integers(-100, 100), st.booleans(),
                   st.text(alphabet="xyz", max_size=5))


class TestProperties:
    @given(names, st.integers(-1000, 1000))
    def test_equality_reflexive(self, name, value):
        assert Selector(f"{name} == {value}").matches({name: value})

    @given(names, st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_trichotomy(self, name, a, b):
        env = {name: a}
        lt = Selector(f"{name} < {b}").matches(env)
        eq = Selector(f"{name} == {b}").matches(env)
        gt = Selector(f"{name} > {b}").matches(env)
        assert [lt, eq, gt].count(True) == 1

    @given(names, st.integers(-100, 100))
    def test_negation_complements(self, name, v):
        env = {name: v}
        s = Selector(f"{name} >= 0")
        n = Selector(f"not {name} >= 0")
        assert s.matches(env) != n.matches(env)

    @given(st.dictionaries(names, values, max_size=4))
    def test_true_matches_everything(self, env):
        assert TRUE_SELECTOR.matches(env)


#: one profile per kind of value ``x`` can hold, and one without ``x``
PROFILES = [{}, {"x": True}, {"x": False}, {"x": 0}, {"x": 1}, {"x": "a"}, {"x": ["a"]}, {"x": 5.5}]


@pytest.mark.parametrize("text", [
    "exists(x) and not exists(x)",
    "x and not x",
    "x == true and not x",
    "not exists(x) and x",
    "not exists(x) and x > 0",
])
def test_contradiction_matches_no_profile(text):
    """``exists(x)`` and a bare boolean ``x`` combine like propositions."""
    assert not any(Selector(text).matches(p) for p in PROFILES)


@pytest.mark.parametrize("text", [
    "exists(x) or not exists(x)",
    "x or not x",
    "x > 0 or not x > 0",
    "x contains 'a' or not x contains 'a'",
])
def test_excluded_middle_matches_every_profile(text):
    assert all(Selector(text).matches(p) for p in PROFILES)


class TestErrorPositions:
    """Regression: SelectorError carries the offending token's span."""

    def test_lex_error_position(self):
        with pytest.raises(SelectorError) as ei:
            Selector("a == @b")
        err = ei.value
        assert err.pos == 5
        assert (err.line, err.column) == (1, 6)
        assert err.source == "a == @b"
        assert "line 1, column 6" in str(err)

    def test_parse_error_position(self):
        with pytest.raises(SelectorError) as ei:
            Selector("a == ) and b == 2")
        err = ei.value
        assert err.pos == 5
        assert (err.line, err.column) == (1, 6)

    def test_trailing_input_position(self):
        with pytest.raises(SelectorError) as ei:
            Selector("a == 1 b")
        assert ei.value.pos == 7
        assert ei.value.column == 8

    def test_unexpected_end_points_past_source(self):
        with pytest.raises(SelectorError) as ei:
            Selector("a ==")
        assert ei.value.pos == 4

    def test_multiline_line_column(self):
        src = "a == 1\nand b == )"
        with pytest.raises(SelectorError) as ei:
            Selector(src)
        assert (ei.value.line, ei.value.column) == (2, 10)

    def test_bare_literal_position(self):
        with pytest.raises(SelectorError) as ei:
            Selector("a == 1 and 5")
        assert ei.value.pos == 11


def test_compound_selector_over_the_session_vocabulary():
    s = Selector(
        "role == 'medic' and (battery >= 30 or priority == 'urgent') and device in ['wired', 'wireless']"
    )
    assert s.matches({"role": "medic", "battery": 50, "device": "wired"})
    assert s.matches({"role": "medic", "battery": 5, "priority": "urgent", "device": "wireless"})
    assert not s.matches({"role": "medic", "battery": 5, "device": "wired"})
