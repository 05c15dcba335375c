"""Golden corpus for TSP003 — the known-bad snippet must fire, the clean
idiom must stay silent.

Mirrors :mod:`tests.analysis.test_dataflow_corpus`: the BAD entry is a
minimal program that handles ``LeaveEvent`` without revoking the
departed client's locks, paired with the rule code the verifier must
raise.
"""

import pytest

from repro.analysis import build_call_graph_from_sources, typestate_diagnostics


def codes_for(*sources):
    graph = build_call_graph_from_sources(
        [(f"src/pkg/m{i}.py", src) for i, src in enumerate(sources)]
    )
    return {d.code for d in typestate_diagnostics(graph)}


BAD_TYPESTATE = [
    (
        "leave-without-revocation",
        "class Session:\n"
        "    def __init__(self):\n"
        "        self.locks = LockManager()\n"
        "    def grab(self, key, client):\n"
        "        return self.locks.acquire(key, client)\n"
        "    def on_event(self, event):\n"
        "        if isinstance(event, LeaveEvent):\n"
        "            self.roster_remove(event.client_id)\n"
        "    def roster_remove(self, cid):\n"
        "        pass\n",
        "TSP003",
    ),
]

GOOD_TYPESTATE = [
    (
        "leave-with-revocation",
        "class Session:\n"
        "    def __init__(self):\n"
        "        self.locks = LockManager()\n"
        "    def grab(self, key, client):\n"
        "        return self.locks.acquire(key, client)\n"
        "    def on_event(self, event):\n"
        "        if isinstance(event, LeaveEvent):\n"
        "            self.revoke(event.client_id)\n"
        "    def revoke(self, cid):\n"
        "        return self.locks.drop_client(cid)\n",
    ),
]


@pytest.mark.parametrize("name,source,code", BAD_TYPESTATE, ids=[b[0] for b in BAD_TYPESTATE])
def test_bad_typestate_fires(name, source, code):
    assert code in codes_for(source)


@pytest.mark.parametrize("name,source", GOOD_TYPESTATE, ids=[g[0] for g in GOOD_TYPESTATE])
def test_good_typestate_clean(name, source):
    assert codes_for(source) == set()


def test_every_rule_fires_at_least_once():
    """The known-bad corpus covers the whole family."""
    fired = set()
    for _, source, _ in BAD_TYPESTATE:
        fired |= codes_for(source)
    assert fired == {"TSP003"}


def test_suppression_comment_silences_rule():
    source = BAD_TYPESTATE[0][1].replace(
        "LeaveEvent):\n", "LeaveEvent):  # repro: ignore[TSP003]\n"
    )
    assert codes_for(source) == set()


def test_shipped_tree_is_clean():
    """The real sources pass the typestate gate with no findings."""
    from repro.analysis import analyze_typestate

    assert analyze_typestate(["src/repro"]) == []
