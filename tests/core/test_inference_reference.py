"""Hypothesis properties: the packet ladder without a ceiling equals the
parent's ceilinged one at the full budget.

``reference_inference.py`` holds ``_snap_packets(value, ceiling)`` and
``_contract_packets(contract, packets, ceiling)`` as they were when the
engine took ``max_packets``.  At ceiling 16 — the only value any caller
ever passed — both agree with today's functions for every budget in
[-5, 40] and every packets contract with bounds in [0, 20].

CI runs this file again under ``--hypothesis-profile=deep``.
"""

from hypothesis import given, settings, strategies as st

from repro.core import inference
from repro.core.contracts import Constraint, QoSContract
from repro.media.progressive import FULL_BUDGET

from . import reference_inference as ref

# explicit settings would shadow --hypothesis-profile=deep, so tier-1's
# budget steps aside when a larger profile is loaded
BUDGET = settings() if settings().max_examples > 100 else settings(max_examples=200, deadline=None)

VALUES = st.integers(-5, 40)
BOUND = st.none() | st.integers(0, 20)


@st.composite
def contracts(draw):
    lo, hi = draw(BOUND), draw(BOUND)
    if lo is None and hi is None:
        hi = draw(st.integers(0, 20))
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return QoSContract("drawn", [Constraint("packets", minimum=lo, maximum=hi)])


def test_ladder_is_the_parents():
    assert inference._PACKET_STEPS == ref._PACKET_STEPS
    assert FULL_BUDGET == 16


@BUDGET
@given(VALUES)
def test_snap_equals_reference_at_full_budget(value):
    assert inference._snap_packets(value) == ref._snap_packets(value, FULL_BUDGET)


@BUDGET
@given(contracts(), VALUES)
def test_contract_packets_equals_reference_at_full_budget(contract, packets):
    assert inference._contract_packets(contract, packets) == ref._contract_packets(
        contract, packets, FULL_BUDGET
    )
