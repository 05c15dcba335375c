"""Property test: analyzer verdicts agree with brute-force evaluation.

Random selectors are generated from the full grammar; for each one the
analyzer's verdict is checked against exhaustive evaluation over the
product of the per-attribute candidate domains that
:func:`repro.analysis.interesting_values` infers (every literal, the
numeric/string neighbours around it, both booleans, list candidates, and
MISSING — enough to land in every truth-relevant region):

* SAT must come with a witness that actually matches;
* UNSAT means **no** sampled profile may match;
* a tautology verdict means **every** sampled profile matches.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import Verdict, analyze_selector, interesting_values
from repro.core.attributes import MISSING
from repro.core.selectors import Selector

ATTRS = ["x", "y"]
SCALARS = ["0", "1", "5", "5.5", "'a'", "'b'", "true"]

_atoms = st.one_of(
    st.sampled_from(["true", "false"]),
    st.sampled_from(ATTRS),
    st.sampled_from(ATTRS).map(lambda a: f"exists({a})"),
    st.builds(
        lambda a, op, v: f"{a} {op} {v}",
        st.sampled_from(ATTRS),
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        st.sampled_from(SCALARS),
    ),
    st.builds(
        lambda a, v: f"{a} contains {v}",
        st.sampled_from(ATTRS),
        st.sampled_from(["'a'", "1"]),
    ),
    st.builds(
        lambda a, vs: f"{a} in [{vs}]",
        st.sampled_from(ATTRS),
        st.sampled_from(["1, 2", "'a', 'b'", "1, 'a'", "0"]),
    ),
)

_selectors = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(lambda a, b: f"({a} and {b})", inner, inner),
        st.builds(lambda a, b: f"({a} or {b})", inner, inner),
        inner.map(lambda a: f"not ({a})"),
    ),
    max_leaves=6,
)


def _sampled_profiles(text):
    domains = interesting_values(text)
    names = sorted(domains)
    for combo in itertools.product(*(domains[n] for n in names)):
        yield {n: v for n, v in zip(names, combo) if v is not MISSING}


@given(_selectors)
@settings(max_examples=300, deadline=None)
def test_verdict_agrees_with_brute_force(text):
    report = analyze_selector(text)
    sel = Selector(text)

    if report.verdict is Verdict.SAT:
        assert report.witness is not None
        assert sel.matches(report.witness), (
            f"{text!r}: claimed witness {report.witness!r} does not match"
        )
    elif report.verdict is Verdict.UNSAT:
        for env in _sampled_profiles(text):
            assert not sel.matches(env), (
                f"{text!r}: UNSAT verdict but {env!r} matches"
            )

    if report.tautology is True:
        for env in _sampled_profiles(text):
            assert sel.matches(env), (
                f"{text!r}: tautology verdict but {env!r} does not match"
            )


@given(_selectors)
@example("(x in [1, 'a'] and x == 'a')")
@settings(max_examples=150, deadline=None)
def test_unknown_only_outside_exact_fragment(text):
    # the exact fragment has no attr-vs-attr comparisons; within it the
    # analyzer must always decide (modulo witness-sampling bad luck,
    # which this grammar's literal-only atoms do not trigger)
    report = analyze_selector(text)
    assert report.verdict in (Verdict.SAT, Verdict.UNSAT)
