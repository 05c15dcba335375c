"""Incremental analysis cache keyed by file content hash.

Whole-repo analyzer runs repeat a lot of work: the per-file passes
(repo-lint, WIRE) re-parse every file even when nothing changed, and the
graph passes re-derive findings from an identical tree.  This cache
persists each pass's diagnostics keyed by a SHA-256 digest of the
analyzed file's bytes (per-file passes) or of the whole file set
(graph passes), so a warm run re-analyzes only what changed.

Correctness properties:

* The cache file carries a **salt** covering the schema version, the
  rule registry (codes, severities, and message templates), and the
  active ``ignore`` set.  Any rule change, new analyzer, or different
  ignore configuration makes every prior entry unreadable — a stale
  cache can never mask a finding a fresh run would produce.
* A corrupt, unreadable, or wrong-salt cache file degrades to an empty
  cache, never to an error.
* Entries round-trip :class:`~repro.analysis.diagnostics.Diagnostic`
  losslessly (``to_dict`` / ``Severity.parse``), so cached output is
  byte-identical to a cold run's.

The CLI persists the cache next to the analysis baseline
(``--cache [FILE]``, default ``analysis-cache.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Optional

from .diagnostics import RULES, Diagnostic, Severity

__all__ = ["AnalysisCache", "DEFAULT_CACHE_NAME"]

DEFAULT_CACHE_NAME = "analysis-cache.json"

_SCHEMA = 1


def _salt(ignore: Iterable[str]) -> str:
    h = hashlib.sha256()
    h.update(f"schema:{_SCHEMA}".encode())
    for code in sorted(RULES):
        sev, msg = RULES[code]
        h.update(f"{code}:{int(sev)}:{msg}".encode())
    for code in sorted({c.strip().upper() for c in ignore}):
        h.update(f"ignore:{code}".encode())
    return h.hexdigest()


def _load_diag(entry: dict) -> Diagnostic:
    return Diagnostic(
        code=str(entry["code"]),
        severity=Severity.parse(str(entry["severity"])),
        message=str(entry["message"]),
        subject=str(entry.get("subject", "")),
        file=entry.get("file"),
        line=entry.get("line"),
        column=entry.get("column"),
    )


class AnalysisCache:
    """Per-file and per-tree diagnostic memo, persisted as JSON."""

    def __init__(self, path: Optional[str], salt: str) -> None:
        self.path = path
        self.salt = salt
        #: {family: {file_path: {"digest": str, "diagnostics": [dict]}}}
        self._files: dict[str, dict[str, dict]] = {}
        #: {family-qualified tree key: [dict]}
        self._graphs: dict[str, list[dict]] = {}
        self.hits = 0
        self.misses = 0
        self._digests: dict[str, str] = {}

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: Optional[str], *, ignore: Iterable[str] = ()) -> "AnalysisCache":
        """Load the cache at ``path`` (None = in-memory only).

        A missing, corrupt, or differently-salted file yields an empty
        cache.
        """
        cache = cls(path, _salt(ignore))
        if path is None or not os.path.exists(path):
            return cache
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return cache
        if not isinstance(payload, dict) or payload.get("salt") != cache.salt:
            return cache
        files = payload.get("files", {})
        graphs = payload.get("graphs", {})
        if isinstance(files, dict):
            cache._files = files
        if isinstance(graphs, dict):
            cache._graphs = graphs
        return cache

    def save(self) -> None:
        """Persist atomically (write-then-replace); no-op when in-memory."""
        if self.path is None:
            return
        payload = {"salt": self.salt, "files": self._files, "graphs": self._graphs}
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path)

    # ------------------------------------------------------------------
    def digest(self, path: str) -> str:
        """SHA-256 of the file's bytes (memoized for this run)."""
        got = self._digests.get(path)
        if got is None:
            with open(path, "rb") as fh:
                got = hashlib.sha256(fh.read()).hexdigest()
            self._digests[path] = got
        return got

    def tree_key(self, files: Iterable[str]) -> str:
        """One digest over a whole file set — the graph-pass cache key."""
        h = hashlib.sha256()
        for path in files:
            h.update(path.encode("utf-8", "surrogateescape"))
            h.update(self.digest(path).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def _load(self, entries: Optional[list[dict]]) -> Optional[list[Diagnostic]]:
        """Decode one stored entry list, counting the hit or miss."""
        try:
            out = None if entries is None else [_load_diag(e) for e in entries]
        except (KeyError, TypeError, ValueError):
            out = None
        if out is None:
            self.misses += 1
        else:
            self.hits += 1
        return out

    def get(self, family: str, path: str, digest: str) -> Optional[list[Diagnostic]]:
        entry = self._files.get(family, {}).get(path)
        if entry is None or entry.get("digest") != digest:
            return self._load(None)
        return self._load(entry.get("diagnostics"))

    def put(
        self, family: str, path: str, digest: str, diagnostics: Iterable[Diagnostic]
    ) -> None:
        self._files.setdefault(family, {})[path] = {
            "digest": digest,
            "diagnostics": [d.to_dict() for d in diagnostics],
        }

    def get_graph(self, key: str) -> Optional[list[Diagnostic]]:
        return self._load(self._graphs.get(key))

    def put_graph(self, key: str, diagnostics: Iterable[Diagnostic]) -> None:
        self._graphs[key] = [d.to_dict() for d in diagnostics]
