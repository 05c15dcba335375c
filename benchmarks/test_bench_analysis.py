"""ABL-ANA — static analyzer throughput on generated selector corpora.

The analyzer gates CI, so its cost matters: this bench measures full
``analyze_selector`` reports (SAT + vacuity, witness re-verification)
over generated corpora of 100 and 1000 selectors, and the pairwise
subsumption audit over a registration-sized set.  Corpora mix shapes the
repo actually uses (role/capability equalities, threshold bands,
membership, negations) so the numbers reflect gate wall-clock, not a
micro-loop.
"""

import pytest

from repro.analysis import Verdict, analyze_selector, analyze_selector_set

ROLES = ("medic", "logistics", "command", "observer")
ENCODINGS = ("jpeg", "mpeg2", "h261", "png")


def build_corpus(n):
    """``n`` deterministic selectors over the repo's vocabulary."""
    out = []
    for i in range(n):
        role = ROLES[i % len(ROLES)]
        enc = ENCODINGS[i % len(ENCODINGS)]
        lo = 10 + (i * 7) % 60
        shape = i % 5
        if shape == 0:
            out.append(f"role == '{role}' and battery >= {lo}")
        elif shape == 1:
            out.append(f"load > {lo} and load < {lo + 25} and exists(device)")
        elif shape == 2:
            out.append(f"encoding in ['{enc}', 'jpeg'] and caps contains '{enc}'")
        elif shape == 3:
            out.append(f"not (role == '{role}') or battery < {lo}")
        else:
            out.append(f"kind == 'alert' or (kind == 'chat' and priority >= {lo % 10})")
    return out


def analyze_corpus(corpus):
    verdicts = [analyze_selector(text).verdict for text in corpus]
    assert all(v is Verdict.SAT for v in verdicts)  # corpus is well-formed
    return len(verdicts)


@pytest.mark.benchmark(group="analysis")
def test_analyzer_throughput_100(benchmark):
    """Full reports over a 100-selector corpus."""
    corpus = build_corpus(100)
    analyzed = benchmark(analyze_corpus, corpus)
    assert analyzed == 100


@pytest.mark.benchmark(group="analysis")
def test_analyzer_throughput_1000(benchmark):
    """Full reports over a 1000-selector corpus."""
    corpus = build_corpus(1000)
    analyzed = benchmark.pedantic(analyze_corpus, args=(corpus,), rounds=1, iterations=1)
    assert analyzed == 1000


@pytest.mark.benchmark(group="analysis")
def test_subsumption_audit_cost(benchmark):
    """Pairwise implication/overlap over a registration-sized set."""
    labelled = [(f"s{i}", text) for i, text in enumerate(build_corpus(40))]

    def audit():
        return analyze_selector_set(labelled, max_pairs=400)

    diags = benchmark.pedantic(audit, rounds=1, iterations=1)
    # generated corpus repeats shapes, so the audit must find equivalences
    assert any(d.code == "SEL005" for d in diags)


# ----------------------------------------------------------------------
# dataflow engine cost (call graph + UNI/EXC passes)
# ----------------------------------------------------------------------
from repro.analysis import build_call_graph_from_sources, dataflow_diagnostics

_DATAFLOW_MODULE = (
    "class WireError(Exception):\n"
    "    pass\n"
    "def parse_{i}(data):\n"
    "    if not data:\n"
    "        raise WireError('empty')\n"
    "    return data\n"
    "def deliver_{i}(data, src):\n"
    "    try:\n"
    "        parse_{i}(data)\n"
    "    except WireError:\n"
    "        return\n"
    "def attach_{i}(sock):\n"
    "    sock.on_receive = deliver_{i}\n"
    "def budget_{i}(rate_bps, margin_db):\n"
    "    window_bps = rate_bps + {i}\n"
    "    return window_bps\n"
    "def poll_{i}(net):\n"
    "    sock = DatagramSocket(net, 'a')\n"
    "    try:\n"
    "        sock.sendto(b'x', ('b', 7))\n"
    "    finally:\n"
    "        sock.close()\n"
)


def build_dataflow_corpus(n_modules):
    """``n_modules`` synthetic modules exercising every rule family."""
    return [
        (f"src/pkg/mod{i}.py", _DATAFLOW_MODULE.replace("{i}", str(i)))
        for i in range(n_modules)
    ]


@pytest.mark.benchmark(group="analysis")
def test_callgraph_construction_cost(benchmark):
    """Two-pass call-graph build over a 50-module synthetic tree."""
    sources = build_dataflow_corpus(50)
    graph = benchmark(build_call_graph_from_sources, sources)
    assert len(graph) == 50 * 5  # five functions per module


@pytest.mark.benchmark(group="analysis")
def test_dataflow_pass_throughput(benchmark):
    """All UNI/EXC passes (fixpoints included) over a prebuilt graph."""
    graph = build_call_graph_from_sources(build_dataflow_corpus(50))

    def run():
        return dataflow_diagnostics(graph)

    diags = benchmark.pedantic(run, rounds=3, iterations=1)
    assert diags == []  # corpus is the clean idiom for every family
