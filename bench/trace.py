"""Span tracer that measures the layers from outside.

Nothing under ``src/`` knows about tracing: :class:`Tracer` wraps the
layers' *public* callables (see :mod:`bench.layers` for the table) and
records one span per call — name, start, end, the span that caused it,
and the op it belongs to.  Spans stay in memory (five parallel arrays,
28 bytes a span) and are aggregated or dumped when the run ends.

Two patching modes, because Python binds names twice:

* a method is replaced on its class, so every instance and every later
  ``obj.method`` lookup sees the wrapper;
* a module-level function is replaced at *every binding site*:
  ``from .ezw import encode_image`` copies the reference into
  ``progressive``'s namespace, so rebinding ``ezw.encode_image`` alone
  would trace nothing.  :meth:`Tracer.patch_function` scans the loaded
  ``repro`` modules for names that ``is`` the original (aliases such as
  ``sir_db as compute_sir_db`` included).

A wrapper records nothing — it calls straight through — when the tracer
is paused (set-up, output checks), on any thread but the one that built
the tracer (the sharded bus matches on worker threads; their time is
self time of the span that waits for them), and when the innermost open
span already has the same name (``ber.decode`` recursing through its
own TLVs, ``publish_many`` calling ``publish``), so ``calls`` counts
entries into a layer, not its internal recursion.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from array import array
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tracer", "self_times"]

#: spans written in full to a trace dump; the per-span aggregate that
#: follows them in the file always covers the whole run
DUMP_SPAN_LIMIT = 200_000


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> np.ndarray:
    """Self time of each span: its duration minus its child spans'.

    ``parents[i]`` is the index of the span that was open when span ``i``
    started, or ``-1`` for a root.  The tracer is single-threaded, so
    children never overlap each other and the subtraction is exact.
    """
    duration = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parent = np.asarray(parents, dtype=np.int64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - covered


class Tracer:
    """In-memory span recorder plus the patch bookkeeping to undo it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self._stack: list[int] = []
        #: wrappers record only while this is true (inside a timed op)
        self.active = False
        self.op = -1
        self._thread = threading.get_ident()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _intern(self, span: str) -> int:
        nid = self._ids.get(span)
        if nid is None:
            nid = self._ids[span] = len(self.names)
            self.names.append(span)
        return nid

    def wrap(self, span: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span named ``span`` around every recorded call."""
        nid = self._intern(span)
        tracer = self
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        clock = time.perf_counter
        ident = threading.get_ident
        owner = self._thread

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active or ident() != owner:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
                if name_ids[parent] == nid:
                    return fn(*args, **kwargs)
            else:
                parent = -1
            index = len(starts)
            name_ids.append(nid)
            parents.append(parent)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active = True

    def end_op(self) -> None:
        self.active = False

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch_function(self, module_name: str, func_name: str, span: str) -> int:
        """Rebind a module-level function at every ``repro`` binding site.

        Returns the number of names rebound (>= 1: the defining module).
        """
        original = getattr(importlib.import_module(module_name), func_name)
        wrapped = self.wrap(span, original)
        rebound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, original))
                    rebound += 1
        return rebound

    def patch_method(self, cls: type, method_name: str, span: str) -> None:
        """Replace ``cls.method_name`` (plain, class or static) on the class."""
        raw = cls.__dict__[method_name]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(span, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(span, raw.__func__))
        else:
            wrapped = self.wrap(span, raw)
        setattr(cls, method_name, wrapped)
        self._patches.append((cls, method_name, raw))

    def install(self, targets: Iterable[tuple[str, str]]) -> None:
        """Patch every ``(span, target)`` pair of a layer table.

        ``target`` is ``"module:function"``, ``"module:Class.method"``, or
        ``"module:Class.method+"`` to patch the method on every subclass
        that defines it as well (``Event.to_body`` is abstract-ish: the
        work is in the overrides).
        """
        for span, target in targets:
            module_name, _, qualname = target.partition(":")
            if "." not in qualname:
                self.patch_function(module_name, qualname, span)
                continue
            subclasses = qualname.endswith("+")
            class_name, method_name = qualname.rstrip("+").split(".")
            cls = getattr(importlib.import_module(module_name), class_name)
            owners = [cls]
            if subclasses:
                pending = list(cls.__subclasses__())
                while pending:
                    sub = pending.pop()
                    pending.extend(sub.__subclasses__())
                    owners.append(sub)
            for owner in owners:
                if method_name in owner.__dict__:
                    self.patch_method(owner, method_name, span)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def aggregate(self) -> dict[str, dict[str, float]]:
        """``{span: {"calls": n, "self_ms": host self time}}`` over the run."""
        if not len(self.starts):
            return {}
        own = self_times(self.starts, self.ends, self.parents)
        ids = np.asarray(self.name_ids, dtype=np.int64)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        return {
            name: {"calls": int(calls[i]), "self_ms": float(self_s[i]) * 1e3}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def covered_seconds(self) -> float:
        """Host time inside any span: the sum of the root spans' durations."""
        if not len(self.starts):
            return 0.0
        roots = np.asarray(self.parents, dtype=np.int64) < 0
        duration = np.asarray(self.ends, dtype=float) - np.asarray(self.starts, dtype=float)
        return float(duration[roots].sum())

    def dump(self, path: str, meta: dict[str, Any]) -> None:
        """Write the spans (columnar JSON) and their aggregate to ``path``.

        Columns are parallel: span ``i`` is ``names[name[i]]`` running
        from ``start[i]`` to ``end[i]`` (``perf_counter`` seconds, origin
        shifted to the first span), caused by span ``parent[i]`` (``-1``:
        called by the harness itself) during op ``op[i]``.
        """
        n = min(len(self.starts), DUMP_SPAN_LIMIT)
        origin = self.starts[0] if n else 0.0
        payload = {
            **meta,
            "names": self.names,
            "spans_recorded": len(self.starts),
            "spans_dumped": n,
            "name": self.name_ids[:n].tolist(),
            "start": [t - origin for t in self.starts[:n]],
            "end": [t - origin for t in self.ends[:n]],
            "parent": self.parents[:n].tolist(),
            "op": self.ops[:n].tolist(),
            "aggregate": self.aggregate(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
