"""Outside-in tracer: spans around the public functions of each engine module.

``Tracer.install`` replaces every public function of the traced modules, and
every name other ``tangentcat`` modules bound to it with ``from .x import
y``, by a wrapper that records one span per call.  ``Polynomial.__mul__``,
``Polynomial.substitute`` and ``Report.check_equal`` are wrapped on their
classes.  ``Tracer.uninstall`` puts every original back.

A span is (name, start, end, parent, document).  Spans are kept in flat
arrays while the run lasts and written out by ``Tracer.write`` when it ends.
The self time of a span is its duration minus the durations of its
children; children of one span never overlap, since the engine runs on one
thread.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from typing import Callable

TRACED_MODULES = ("polycore", "tangent", "dbundle", "whitney", "connection", "serialize")
METHODS = (
    ("polycore", "Polynomial", "__mul__", "polycore.mul"),
    ("polycore", "Polynomial", "substitute", "polycore.substitute"),
    ("report", "Report", "check_equal", "report.check_equal"),
)
ROOT = "cli.main"


def _is_selection(m) -> bool:
    """Every component of the PolyMap is a bare variable with coefficient 1."""
    for c in m.components:
        if len(c.terms) != 1:
            return False
        exps, coeff = c.terms[0]
        if coeff != 1 or sum(exps) != 1:
            return False
    return True


def _observe_compose(stats: dict, args, result) -> None:
    g, f = args[0], args[1]
    if _is_selection(g) or _is_selection(f):
        stats["selection"] = stats.get("selection", 0) + 1
    stats["terms_out"] = stats.get("terms_out", 0) + sum(len(c.terms) for c in result.components)


def _observe_success(stats: dict, args, result) -> None:
    if result is not None:
        stats["success"] = stats.get("success", 0) + 1


def _observe_bytes(stats: dict, args, result) -> None:
    stats["bytes_out"] = stats.get("bytes_out", 0) + len(result.encode("utf-8"))


OBSERVERS: dict[str, Callable] = {
    "polycore.compose": _observe_compose,
    "polycore.invert_polymap": _observe_success,
    "polycore.matrix_inverse": _observe_success,
    "serialize.dumps": _observe_bytes,
}


class Tracer:
    """Span recorder for one traced run; not reentrant across threads."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.doc = array("i")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.stats: dict[str, dict] = {}
        self.current_doc = -1
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._intern(name)
        observe = OBSERVERS.get(name)
        stats = self.stats.setdefault(name, {})
        clock = time.perf_counter
        names, parents, docs, nested = self.name, self.parent, self.doc, self.nested
        starts, ends, stack, depth = self.start, self.end, self._stack, self._depth
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            docs.append(tracer.current_doc)
            nested.append(1 if depth[nid] else 0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[nid] -= 1
                stack.pop()
            if observe is not None:
                observe(stats, args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the engine of ``package`` (the imported ``tangentcat``)."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
        wrapped: dict[int, Callable] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[prefix + short]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[prefix + short], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self.wrap(name, original))
        cli = sys.modules[prefix + "cli"]
        self._restore.append((cli, "main", cli.main))
        cli.main = self.wrap(ROOT, cli.main)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -------------------------------------------------------------- results

    def span_count(self) -> int:
        return len(self.start)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans), self seconds."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if not self.nested[i]:
                rec["s"] += dur[i]
        return out

    def write(self, path: str) -> None:
        """One JSON header line, then the raw span arrays in header order."""
        header = {
            "names": self.names,
            "spans": self.span_count(),
            "arrays": [["name", "i"], ["parent", "i"], ["doc", "i"], ["nested", "b"], ["start", "d"], ["end", "d"]],
            "clock": "time.perf_counter seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.doc, self.nested, self.start, self.end):
                arr.tofile(fh)
