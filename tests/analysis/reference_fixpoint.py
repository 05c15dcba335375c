"""Round-robin references for the analyzer's call-graph fixpoints.

Each function sweeps every function of the graph, in graph order, until a
whole sweep changes nothing: the plain algorithm the worklist in
``repro.analysis.passes.solve`` must agree with.  Slow on purpose.
"""

from repro.analysis import dataflow, hotpath


def escapes(graph):
    """Escaping exception names per function (``_EscapeAnalyzer.compute``)."""
    analyzer = dataflow._EscapeAnalyzer(graph)
    summaries = analyzer.summaries = dict.fromkeys(graph.functions, frozenset())
    changed = True
    while changed:
        changed = False
        for q, fn in graph.functions.items():
            esc = frozenset(analyzer._escapes(fn.node.body, q, caught_stack=()))
            if esc != summaries[q]:
                summaries[q] = esc
                changed = True
    return summaries


def return_units(graph):
    """Return-unit summaries per function (``compute_return_units``)."""
    out = {}
    checker = dataflow._UnitChecker(graph, out)
    changed = True
    while changed:
        changed = False
        for q, fn in graph.functions.items():
            u = dataflow._return_unit(fn, checker)
            if u is not None and out.get(q) != u:
                out[q] = u
                changed = True
    return out


def hot_contexts(graph):
    """Loop context per hot-reachable function (``hot_contexts``)."""
    index = hotpath._DepthIndex(graph)
    context = dict.fromkeys(hotpath._entry_functions(graph, hotpath.HOT_ENTRY_SUFFIXES), 0)
    changed = True
    while changed:
        changed = False
        for q in graph.functions:
            if q not in context:
                continue
            for site in graph.calls_from(q):
                if site.callee not in graph.functions:
                    continue
                cand = min(hotpath._DEPTH_CAP, context[q] + index.depths(q).get(id(site.node), 0))
                if cand > context.get(site.callee, -1):
                    context[site.callee] = cand
                    changed = True
    return context


def reachable(graph, roots):
    """Forward closure of ``roots`` over resolved call edges."""
    seen = {r for r in roots if r in graph.functions}
    changed = True
    while changed:
        changed = False
        for q in list(seen):
            for callee in graph.callees_of(q) & graph.functions.keys():
                if callee not in seen:
                    seen.add(callee)
                    changed = True
    return seen
