"""The golden-corpus gate, one table for every family.

Each corpus directory (``corpus_perf``, ``corpus_concurrency``) holds
known-bad files, known-good twins and a checked-in
``expected_diagnostics.json``.  The gate runs one analyzer entry point
over the directory, compares against the golden set, and insists the
known-good twins stay silent::

    python tests/analysis/corpus_common.py                  # every family
    python tests/analysis/corpus_common.py perf             # just this one
    python tests/analysis/corpus_common.py --update perf    # regenerate

Regenerate an expectation (``--update``) only after intentionally
changing a rule or the corpus.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: family -> (attribute of repro.analysis mapping paths to diagnostics,
#: basenames of the known-good twins that must produce zero findings);
#: the corpus lives in ``corpus_<family>/`` next to this file
CORPORA = {
    "perf": ("analyze_hotpath", ("perf_clean.py",)),
    "concurrency": ("analyze_concurrency", ("locks_clean.py", "races_clean.py")),
}


def _current(analyzer_name, here):
    import repro.analysis

    analyze = getattr(repro.analysis, analyzer_name)
    diags = analyze([here])
    entries = [
        {
            "code": d.code,
            "file": os.path.basename(d.file or ""),
            "line": d.line,
            "subject": d.subject.rsplit(".", 2)[-1],
        }
        for d in diags
    ]
    return sorted(entries, key=lambda e: (e["file"], e["line"] or 0, e["code"]))


def run_corpus_gate(family, *, update=False):
    """Gate one corpus directory; returns a process exit status."""
    analyzer_name, clean_files = CORPORA[family]
    here = os.path.join(HERE, f"corpus_{family}")
    expected = os.path.join(here, "expected_diagnostics.json")
    got = _current(analyzer_name, here)
    if update:
        with open(expected, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{family}: wrote {len(got)} expected diagnostic(s)")
        return 0
    with open(expected, encoding="utf-8") as fh:
        want = json.load(fh)
    problems = []
    if got != want:
        problems.append(f"{family} corpus diagnostics drifted from the golden set:")
        for entry in want:
            if entry not in got:
                problems.append(f"  missing: {entry}")
        for entry in got:
            if entry not in want:
                problems.append(f"  unexpected: {entry}")
    clean_hits = [e for e in got if e["file"] in set(clean_files)]
    if clean_hits:
        problems.append("known-good corpus file produced findings:")
        problems.extend(f"  {entry}" for entry in clean_hits)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(f"{family} corpus OK: {len(got)} diagnostic(s) match the golden set")
    return 0


def main(argv):
    sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
    update = "--update" in argv
    families = [a for a in argv if a != "--update"] or list(CORPORA)
    unknown = [f for f in families if f not in CORPORA]
    if unknown:
        print(f"unknown corpus family: {', '.join(unknown)}", file=sys.stderr)
        return 2
    return max(run_corpus_gate(family, update=update) for family in families)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
