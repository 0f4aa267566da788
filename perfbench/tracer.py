"""Thread-aware span tracer used by the benchmark's traced runs.

The tracer records spans from the benchmark's side only: it replaces a
``tricurves`` function by a timing wrapper in every module namespace that
binds it (``from .x import y`` creates one binding per importing module),
and ``restore`` puts the originals back.  Nothing inside ``src/tricurves``
changes.

Each thread keeps its own span stack.  A span opened on a thread whose
stack is empty (a worker of the spectrum stage's thread pool, which does
not carry context across threads) is attached to the innermost span open
on the thread that created the tracer -- the stage span that is waiting
for the pool.

Self time is a span's duration minus the length of the union of its
children's intervals.  Children from several threads may overlap, so
subtracting their summed durations would overcount.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional["Span"] = None
    thread: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list) -> dict:
    """Self time per span (keyed by span identity)."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): s.duration - union_length(children.get(id(s), ()), s.start, s.end) for s in spans}


def aggregate(spans: list) -> dict:
    """Per span name: calls, inclusive seconds ``s``, ``self_s`` and the
    summed counts.  ``s`` counts only the outermost span of a name, so a
    recursive call is not timed twice; spans of one name on parallel
    threads add up (busy time, which can exceed wall time)."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[id(s)]
        if not _has_ancestor_named(s, s.name):
            agg["s"] += s.duration
        for key, value in s.counts.items():
            agg[key] = agg.get(key, 0) + value
    return out


def _has_ancestor_named(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


class Tracer:
    """Collects spans in memory; ``instrument`` patches functions until
    ``restore``."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = self._stack()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A worker thread: the root thread is blocked inside the span
            # that started the pool, so its stack top is stable here.
            root = self._root_stack
            parent = root[-1] if root else None
        s = Span(name, time.perf_counter(), parent=parent, thread=threading.get_ident())
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def instrument(self, module, attr: str, name: str, count: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` in every loaded ``tricurves`` module that
        binds the same function object.  ``count(result, *args, **kwargs)``
        returns counters to add to the span.  A function the package no
        longer has is skipped, and its layer reports no calls."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self._wrap(original, name, count)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod is None or not (mod_name == "tricurves" or mod_name.startswith("tricurves.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def _wrap(self, func, name, count):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                try:
                    result = func(*args, **kwargs)
                except Exception:
                    s.counts["failed"] = 1
                    raise
                if count is not None:
                    s.counts.update(count(result, *args, **kwargs))
                return result

        return wrapper

    def restore(self) -> None:
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)
