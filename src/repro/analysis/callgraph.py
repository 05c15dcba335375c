"""Project call graph: who calls whom, resolved from the AST alone.

The dataflow passes (:mod:`repro.analysis.dataflow`) need to reason
*across* functions — a unit produced in ``wireless/sir.py`` is consumed
three layers up in ``core/basestation.py``; an exception raised in the
serialization codec escapes through the RTP reassembler into a transport
callback.  This module builds the interprocedural skeleton those passes
walk: every function/method in the analyzed tree becomes a node, every
call site an edge, resolved as far as static information allows.

Resolution is deliberately layered, cheapest first:

1. **Lexical**: ``from .sir import to_db`` / module-level ``def`` names
   resolve calls like ``to_db(x)`` directly.
2. **Self dispatch**: ``self.method(...)`` resolves within the enclosing
   class (no inheritance walk — the tree under analysis is flat).
3. **Type-tracked receivers**: locals assigned from a known constructor
   (``sock = DatagramSocket(...)``), parameters with a class annotation
   (``def f(sock: DatagramSocket)``), and ``self.attr`` slots assigned a
   constructor anywhere in the class resolve ``recv.method(...)`` to
   ``Class.method``.

Unresolved calls keep their textual shape (``recv_type``/``method``) so
the passes can still match them against registries (e.g. "any ``.sendto``
on something typed as a transport").

The small AST helpers every pass shares (:func:`rightmost_name`,
:func:`name_binding`, :func:`self_attr`, ...) and the file walk live here
too: this is the lowest module of the package.

Nothing here imports analyzed code; it is all :mod:`ast`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

__all__ = [
    "FunctionNode",
    "FunctionInfo",
    "CallSite",
    "CallGraph",
    "build_call_graph",
    "build_call_graph_from_sources",
    "module_name_for_path",
    "matches_suffix",
    "rightmost_name",
    "self_attr",
    "name_binding",
    "annotation_class_name",
    "walk_py_files",
    "read_source",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def module_name_for_path(path: str) -> str:
    """Dotted module name for ``path``, rooted at a ``src`` dir when present.

    ``.../src/repro/wireless/sir.py`` → ``repro.wireless.sir``; files
    outside a recognisable package root use their stem (good enough for
    single-file corpus tests).
    """
    norm = path.replace(os.sep, "/")
    if norm.endswith(".py"):
        norm = norm[: -len(".py")]
    parts = norm.split("/")
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    elif "repro" in parts:
        parts = parts[parts.index("repro") :]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p) or "module"


@dataclass
class FunctionInfo:
    """One function or method node in the graph."""

    qualname: str  #: ``module.func`` or ``module.Class.method``
    module: str
    name: str
    cls: Optional[str]  #: enclosing class short name, if a method
    node: FunctionNode
    path: str
    params: tuple[str, ...] = ()  #: positional-or-keyword names, ``self`` excluded


@dataclass
class CallSite:
    """One call expression inside a function body."""

    caller: str  #: qualname of the enclosing function ("" at module level)
    callee: Optional[str]  #: resolved qualname, or None
    func_repr: str  #: textual callee, e.g. ``self._sock.sendto``
    method: str  #: rightmost name, e.g. ``sendto``
    recv_type: Optional[str]  #: receiver's class short name when tracked
    node: ast.Call = field(repr=False, default=None)  # type: ignore[assignment]
    path: str = ""
    line: int = 0


class CallGraph:
    """Functions, classes, attribute types, and resolved call edges."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        #: class short name -> defining module (first wins; tree has unique names)
        self.classes: dict[str, str] = {}
        #: class short name -> base class short names (exception hierarchy)
        self.class_bases: dict[str, tuple[str, ...]] = {}
        #: (class short name, attr) -> class short name of the stored object
        self.attr_types: dict[tuple[str, str], str] = {}
        #: path -> source text (for suppression parsing downstream)
        self.sources: dict[str, str] = {}
        #: path -> parsed module (module-level / class-body scans downstream)
        self.trees: dict[str, ast.Module] = {}
        self.calls: list[CallSite] = []
        self._by_caller: dict[str, list[CallSite]] = {}
        self._callers: dict[str, set[str]] = {}
        self._sites_by_node: dict[str, dict[int, CallSite]] = {}

    def ancestors(self, cls: str) -> set[str]:
        """Transitive base-class names of ``cls`` within the analyzed tree."""
        out: set[str] = set()
        frontier = [cls]
        while frontier:
            c = frontier.pop()
            for base in self.class_bases.get(c, ()):
                if base not in out:
                    out.add(base)
                    frontier.append(base)
        return out

    # -- construction ---------------------------------------------------
    def add_function(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info

    def add_call(self, site: CallSite) -> None:
        self.calls.append(site)
        self._by_caller.setdefault(site.caller, []).append(site)
        if site.callee is not None:
            self._callers.setdefault(site.callee, set()).add(site.caller)

    # -- queries --------------------------------------------------------
    def calls_from(self, qualname: str) -> list[CallSite]:
        """Call sites lexically inside ``qualname``."""
        return self._by_caller.get(qualname, [])

    def sites_by_node(self, qualname: str) -> dict[int, CallSite]:
        """``id(call node) -> CallSite`` for the calls inside ``qualname``."""
        cached = self._sites_by_node.get(qualname)
        if cached is None:
            cached = {id(s.node): s for s in self.calls_from(qualname)}
            self._sites_by_node[qualname] = cached
        return cached

    def callers_of(self, qualname: str) -> set[str]:
        """Qualnames of functions with a resolved edge to ``qualname``."""
        return set(self._callers.get(qualname, ()))

    def callees_of(self, qualname: str) -> set[str]:
        return {s.callee for s in self.calls_from(qualname) if s.callee is not None}

    def method_qualname(self, cls: str, method: str) -> Optional[str]:
        """``Class.method`` resolved to a graph node, if the class is known."""
        module = self.classes.get(cls)
        if module is None:
            return None
        q = f"{module}.{cls}.{method}"
        return q if q in self.functions else None

    def function_by_suffix(self, suffix: str) -> Optional[FunctionInfo]:
        """First function whose qualname ends with ``suffix`` (tests/registries)."""
        for q, info in self.functions.items():
            if matches_suffix(q, suffix):
                return info
        return None


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
class _ModuleScope:
    """Per-module resolution environment."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.imports: dict[str, str] = {}  # local name -> dotted target
        self.functions: dict[str, str] = {}  # short name -> qualname
        self.classes: set[str] = set()


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    if level == 0:  # absolute import: the current module plays no part
        return target or ""
    parts = module.split(".")
    base = parts[: len(parts) - level] if level <= len(parts) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


class _Builder:
    def __init__(self) -> None:
        self.graph = CallGraph()
        self._pending: list[tuple[str, str, ast.Module]] = []  # (path, module, tree)

    def add_source(self, path: str, source: str) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return  # repo_lint reports unparseable files; skip here
        self.graph.sources[path] = source
        self.graph.trees[path] = tree
        self._pending.append((path, module_name_for_path(path), tree))

    def build(self) -> CallGraph:
        scopes: dict[str, _ModuleScope] = {}
        # pass 1: declarations (functions, classes, attr types, imports)
        for path, module, tree in self._pending:
            scopes[module] = self._collect_declarations(path, module, tree)
        # pass 2: call sites, with full cross-module knowledge available
        for path, module, tree in self._pending:
            self._collect_calls(path, module, tree, scopes[module])
        return self.graph

    # -- pass 1 ---------------------------------------------------------
    def _collect_declarations(self, path: str, module: str, tree: ast.Module) -> _ModuleScope:
        scope = _ModuleScope(module)
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    scope.imports[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(module, node.level, node.module)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    scope.imports[alias.asname or alias.name] = f"{base}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                q = f"{module}.{node.name}"
                scope.functions[node.name] = q
                self.graph.add_function(
                    FunctionInfo(q, module, node.name, None, node, path, _params(node))
                )
            elif isinstance(node, ast.ClassDef):
                scope.classes.add(node.name)
                self.graph.classes.setdefault(node.name, module)
                bases = tuple(
                    b for b in (rightmost_name(base) for base in node.bases) if b
                )
                self.graph.class_bases.setdefault(node.name, bases)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        q = f"{module}.{node.name}.{item.name}"
                        self.graph.add_function(
                            FunctionInfo(
                                q, module, item.name, node.name, item, path, _params(item)
                            )
                        )
                        for stmt in ast.walk(item):
                            # self.attr = Ctor(...) anywhere in the class
                            if (
                                isinstance(stmt, ast.Assign)
                                and len(stmt.targets) == 1
                                and isinstance(stmt.value, ast.Call)
                            ):
                                attr = self_attr(stmt.targets[0])
                                ctor = rightmost_name(stmt.value.func)
                                if attr and ctor and (ctor[0].isupper() or ctor == "socket"):
                                    self.graph.attr_types.setdefault((node.name, attr), ctor)
        return scope

    # -- pass 2 ---------------------------------------------------------
    def _collect_calls(
        self, path: str, module: str, tree: ast.Module, scope: _ModuleScope
    ) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_function(path, module, scope, None, node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._walk_function(path, module, scope, node.name, item)

    def _walk_function(
        self,
        path: str,
        module: str,
        scope: _ModuleScope,
        cls: Optional[str],
        fn: FunctionNode,
    ) -> None:
        caller = f"{module}.{cls}.{fn.name}" if cls else f"{module}.{fn.name}"
        local_types = self._annotation_types(fn, scope)
        # one linear pre-pass for `v = Ctor(...)` locals (flow-insensitive,
        # good enough: re-binding a resource var to a new type mid-function
        # is its own finding)
        for stmt in ast.walk(fn):
            bound = name_binding(stmt)
            if bound is not None and isinstance(bound[1], ast.Call):
                ctor = self._class_of_call(bound[1], scope, cls)
                if ctor is not None:
                    local_types.setdefault(bound[0], ctor)
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call):
                self.graph.add_call(
                    self._resolve_call(sub, caller, path, scope, cls, local_types)
                )

    def _annotation_types(
        self, fn: FunctionNode, scope: _ModuleScope
    ) -> dict[str, str]:
        out: dict[str, str] = {}
        for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
            name = annotation_class_name(arg.annotation)
            if name and (name in self.graph.classes or name in scope.classes):
                out[arg.arg] = name
        return out

    def _class_of_call(
        self, call: ast.Call, scope: _ModuleScope, cls: Optional[str]
    ) -> Optional[str]:
        """Class short name when ``call`` is a known constructor."""
        name = rightmost_name(call.func)
        if name is None:
            return None
        if name in scope.classes or name in self.graph.classes:
            return name
        # socket.socket(...) / _socketlib.socket(...): track raw OS sockets
        if (
            name == "socket"
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
        ):
            return "socket"
        return None

    def _resolve_call(
        self,
        call: ast.Call,
        caller: str,
        path: str,
        scope: _ModuleScope,
        cls: Optional[str],
        local_types: dict[str, str],
    ) -> CallSite:
        func = call.func
        repr_ = _expr_repr(func)
        method = rightmost_name(func) or "<expr>"
        callee: Optional[str] = None
        recv_type: Optional[str] = None

        if isinstance(func, ast.Name):
            name = func.id
            if name in scope.functions:
                callee = scope.functions[name]
            elif name in scope.imports:
                target = scope.imports[name]
                if target in self.graph.functions:
                    callee = target
                elif target.rsplit(".", 1)[-1] in self.graph.classes:
                    short = target.rsplit(".", 1)[-1]
                    callee = self.graph.method_qualname(short, "__init__")
                    recv_type = short
            elif name in scope.classes or name in self.graph.classes:
                callee = self.graph.method_qualname(name, "__init__")
                recv_type = name
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and cls is not None:
                    recv_type = cls
                elif base.id in local_types:
                    recv_type = local_types[base.id]
                elif base.id in scope.imports:
                    dotted = f"{scope.imports[base.id]}.{func.attr}"
                    if dotted in self.graph.functions:
                        callee = dotted
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and cls is not None
            ):
                recv_type = self.graph.attr_types.get((cls, base.attr))
            if recv_type is not None and callee is None:
                callee = self.graph.method_qualname(recv_type, func.attr)
        return CallSite(
            caller=caller,
            callee=callee,
            func_repr=repr_,
            method=method,
            recv_type=recv_type,
            node=call,
            path=path,
            line=call.lineno,
        )


def _params(fn: FunctionNode) -> tuple[str, ...]:
    names = [a.arg for a in fn.args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names + [a.arg for a in fn.args.kwonlyargs])


def rightmost_name(expr: Optional[ast.expr]) -> Optional[str]:
    """``f`` for ``f``, ``attr`` for ``a.b.attr``; None for anything else."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def self_attr(expr: Optional[ast.expr]) -> Optional[str]:
    """``attr`` when ``expr`` is exactly ``self.attr``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def name_binding(node: ast.AST) -> Optional[tuple[str, ast.expr]]:
    """``(x, value)`` when ``node`` is the single-target ``x = value``."""
    if (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    ):
        return node.targets[0].id, node.value
    return None


def annotation_class_name(ann: Optional[ast.expr]) -> Optional[str]:
    """Class short name a parameter annotation spells (``"pkg.Cls"`` too)."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.rsplit(".", 1)[-1]
    return rightmost_name(ann)


def matches_suffix(qualname: str, suffix: str) -> bool:
    """Whether ``qualname`` is ``suffix`` or ends with ``.suffix``."""
    return qualname == suffix or qualname.endswith("." + suffix)


def _expr_repr(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return f"{_expr_repr(expr.value)}.{expr.attr}"
    if isinstance(expr, ast.Call):
        return f"{_expr_repr(expr.func)}(...)"
    return "<expr>"


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def build_call_graph_from_sources(
    sources: Sequence[tuple[str, str]],
) -> CallGraph:
    """Build from in-memory ``(path, source)`` pairs (corpus tests)."""
    b = _Builder()
    for path, source in sources:
        b.add_source(path, source)
    return b.build()


def build_call_graph(paths: Iterable[str]) -> CallGraph:
    """Build from ``.py`` files under each path (files taken as-is)."""
    return build_call_graph_from_sources(
        [(p, read_source(p)) for p in walk_py_files(paths)]
    )


def walk_py_files(paths: Iterable[str]) -> list[str]:
    """Every ``.py`` file under each path, in deterministic walk order."""
    files: list[str] = []
    for root in paths:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__pycache__")))
            files.extend(
                os.path.join(dirpath, fn) for fn in sorted(filenames) if fn.endswith(".py")
            )
    return files


def read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()
