"""Span tracing of pgl3chow from outside the package.

``Tracer.install`` replaces every public module-level function of the traced
modules, and a few hot methods, with a wrapper that records one span per
call: (name, start, end, parent).  A function is replaced at every binding
site, that is under every name in every loaded ``pgl3chow`` module that
refers to it, so calls through ``from ... import`` names (for example
``checks.invariant_basis``) are traced too.  ``uninstall`` puts the original
objects back.

Spans are kept in flat arrays while the workload runs; ``aggregate`` turns
them into per-name call counts, total time and self time, where a span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

MODULES = ("poly", "groups", "intlinalg", "presented", "repcalc", "checks", "cli")
METHODS = (
    ("poly", "Polynomial", "__init__"),
    ("poly", "Polynomial", "__mul__"),
    ("poly", "RingMap", "apply"),
    ("groups", "MatrixGroup", "orbit_sum"),
)
OBSERVE = "trace.observe"

# An observer sees (tracer, args, result) after a call and records size
# statistics; its own time is recorded as a child span named OBSERVE, so it
# is not charged to the caller's self time.
Observer = Callable[["Tracer", tuple, object], None]


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _observe_smith(tracer: "Tracer", args: tuple, result) -> None:
    a = args[0]
    key = "intlinalg.smith_normal_form"
    tracer.raise_max(f"{key}.max_rows", len(a))
    tracer.raise_max(f"{key}.max_cols", len(a[0]) if a else 0)
    bits = max(_max_bits(a), _max_bits([result.diag]), _max_bits(result.left),
               _max_bits(result.right))
    tracer.raise_max(f"{key}.max_entry_bits", bits)


def _observe_relation_rows(tracer: "Tracer", args: tuple, result) -> None:
    basis, rows = result
    key = "presented.relation_rows"
    tracer.add(f"{key}.rows", len(rows))
    tracer.add(f"{key}.unit_rows",
               sum(1 for row in rows if any(abs(x) == 1 for x in row)))
    tracer.raise_max(f"{key}.cols", len(basis))


OBSERVERS: dict[str, Observer] = {
    "intlinalg.smith_normal_form": _observe_smith,
    "presented.relation_rows": _observe_relation_rows,
}

# Functions whose spans are named per call, "name[label]", so that time can
# be told apart by argument: one span name per check.
LABELS: dict[str, Callable[[tuple], str]] = {
    "checks.run_check": lambda args: str(args[0]),
}


class Tracer:
    """Records spans of wrapped calls, single-threaded."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[int] = []
        self.stats: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, n: int) -> None:
        self.stats[key] += n

    def raise_max(self, key: str, n: int) -> None:
        if n > self.stats[key]:
            self.stats[key] = n

    def record(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Append a finished span and return its index."""
        self.span_name.append(self.name_id(name))
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        return len(self.span_name) - 1

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None,
             label: Callable[[tuple], str] | None = None):
        nid = self.name_id(name)
        oid = self.name_id(OBSERVE)
        clock, stack = self.clock, self._stack
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent

        def open_span(span_id: int) -> int:
            idx = len(names)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            return idx

        def wrapper(*args, **kwargs):
            idx = open_span(nid if label is None
                            else self.name_id(f"{name}[{label(args)}]"))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if observe is not None:
                oidx = open_span(oid)
                starts[oidx] = clock()
                observe(self, args, result)
                ends[oidx] = clock()
                stack.pop()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self, package: str = "pgl3chow") -> None:
        """Wrap the traced functions of ``package`` at every binding site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for short in MODULES:
            importlib.import_module(f"{package}.{short}")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == package or n.startswith(package + "."))]
        for short in MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = self.wrap(name, fn, OBSERVERS.get(name), LABELS.get(name))
                for site in loaded:
                    for bound_name, value in list(vars(site).items()):
                        if value is fn:
                            self._patch(site, bound_name, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{package}.{short}"], cls_name)
            name = f"{short}.{cls_name}.{meth}"
            self._patch(cls, meth, self.wrap(name, vars(cls)[meth]))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def aggregate(self) -> dict[str, dict[str, int]]:
        """{name: {"calls", "total_ns", "self_ns"}} over every recorded span.

        Children are recorded after their parent, so one backwards pass sees
        every child of a span before the span itself."""
        n = len(self.span_name)
        child_ns = [0] * n
        out: dict[str, dict[str, int]] = {}
        for i in range(n - 1, -1, -1):
            dur = self.span_end[i] - self.span_start[i]
            parent = self.span_parent[i]
            if parent >= 0:
                child_ns[parent] += dur
            row = out.setdefault(self.names[self.span_name[i]],
                                 {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - child_ns[i]
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as gzip-compressed CSV: index, parent, name,
        start and end in nanoseconds of ``time.perf_counter_ns``."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("span,parent,name,start_ns,end_ns\n")
            names = self.names
            for i, (nid, s, e, p) in enumerate(zip(self.span_name, self.span_start,
                                                   self.span_end, self.span_parent)):
                f.write(f"{i},{p},{names[nid]},{s},{e}\n")
