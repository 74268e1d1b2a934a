"""Spans recorded from outside the program.

`Tracer.wrap` replaces a function at the name its caller looks it up by (a
module attribute or a class attribute) with a timing wrapper and puts the
original back on `uninstall`. Spans stay in memory: a flat list of
(name, start, end, parent index). Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

# Spans with this name hold the tracer's own work (graph walks); they are
# children of the span they interrupt, so they leave its self time.
OVERHEAD = "trace.overhead"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, info]
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, after=None):
        """Time every call of `owner.attr` as a span called `name`.

        `after(span, args, kwargs, result)` runs once the call has returned,
        inside an overhead span, and may store facts in `span[4]`.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                with tracer.span(OVERHEAD):
                    after(tracer.spans[idx], args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def view(self, start: int, areas=frozenset()) -> "SpanView":
        """Aggregates over the spans recorded since index `start`."""
        return SpanView(self.spans[start:], start, areas)


class SpanView:
    """Aggregates over a slice of the span list, such as one repetition.

    Each span gets an area: the name of its nearest enclosing span whose
    name is in `areas`, or None.
    """

    def __init__(self, spans: list[list], offset: int, areas=frozenset()):
        self.spans = spans
        self.child_time: dict[int, float] = defaultdict(float)
        self.area: list[str | None] = []
        for i, s in enumerate(spans, offset):
            p = s[3]
            if p >= offset:
                self.child_time[p] += s[2] - s[1]
                parent = spans[p - offset]
                self.area.append(parent[0] if parent[0] in areas
                                 else self.area[p - offset])
            else:
                self.area.append(None)
        self.offset = offset

    def select(self, name: str, within=None) -> list[tuple[int, list]]:
        """(index, span) of every span called `name`, optionally only
        those in area `within`."""
        return [(i, s) for i, s in enumerate(self.spans, self.offset)
                if s[0] == name and (within is None
                                     or self.area[i - self.offset] == within)]

    def total(self, name: str, within=None, self_time: bool = False) -> float:
        t = 0.0
        for i, s in self.select(name, within):
            t += s[2] - s[1]
            if self_time:
                t -= self.child_time.get(i, 0.0)
        return t

    def overhead_within(self, start: float, end: float) -> float:
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == OVERHEAD and start <= s[1] and s[2] <= end)


def graph_nodes(*outputs) -> set[int]:
    """Ids of the interior autodiff nodes reachable from `outputs`.

    Walks `_parents` read-only; leaves (parameters, constants) are not
    counted.
    """
    seen: set[int] = set()
    nodes: set[int] = set()
    stack = [t for t in outputs if t is not None]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._parents:
            nodes.add(id(t))
            stack.extend(t._parents)
    return nodes
