"""Spans recorded from outside the package, and the arithmetic on them.

A span is ``(layer, start, end, parent)``: the layer it is charged to, its
start and end on one clock, and the index of the span that was open when it
began (-1 for none).  Spans are kept in memory and reduced once the traced
command has finished.  One stack serves all calls, so a traced command must
run on one thread; traced repeats run at one worker, where the engine starts
no threads.
"""

from __future__ import annotations

import collections
import functools
import time


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its child spans."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per layer: summed self time, inclusive time and number of spans.

    Inclusive time counts only the outermost span of a layer on each path,
    so a layer that calls itself is not counted twice.
    """
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = collections.defaultdict(
        lambda: {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0})
    for index, (layer, start, end, parent) in enumerate(spans):
        entry = totals[layer]
        entry["self_s"] += selfs[index]
        entry["calls"] += 1
        while parent >= 0 and spans[parent][0] != layer:
            parent = spans[parent][3]
        if parent < 0:
            entry["inclusive_s"] += end - start
    return dict(totals)


class Tracer:
    """Records a span around every call of the callables it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []

    def traced(self, func, layer):
        """``func`` with a span around each call; ``layer`` may be a function of the arguments."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            stack = tracer._stack
            span = [name, tracer.clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                stack.pop()

        return wrapper

    def wrap(self, owner, attr: str, layer, count=None) -> None:
        """Replace ``owner.attr`` (a module function or a class's method) by a traced one.

        ``count(counts, result)`` runs after each call, outside the span.
        """
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        inner = self.traced(original, layer)
        if count is None:
            setattr(owner, attr, inner)
            return
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = inner(*args, **kwargs)
            count(counts, result)
            return result

        setattr(owner, attr, counted)
