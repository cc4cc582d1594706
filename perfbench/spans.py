"""Spans and counts recorded by the benchmark around calls into each layer.

A span is (id, name, start, end, parent).  Stage spans are named
``<layer>.<stage>`` and have the span of their item as parent; item spans
have no parent.  Stage spans never nest, so a layer's self time is the sum
of its stage spans.  Spans stay in memory and are written out when a pass
ends.  With tracing off, ``call`` is a plain call and nothing is recorded.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from effreal.errors import KernelError


class Tracer:
    def __init__(self, on: bool):
        self.on = on
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._item: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        self.counts[f"{name.split('.')[0]}.calls"] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except KernelError:
            self.counts[f"{name.split('.')[0]}.rejects"] += 1
            raise
        finally:
            self.spans.append((len(self.spans), name, start, perf_counter(), self._item))

    @contextmanager
    def item(self, name: str):
        if not self.on:
            yield
            return
        sid = len(self.spans)
        self.spans.append((sid, "item:" + name, perf_counter(), 0.0, None))
        self._item = sid
        try:
            yield
        finally:
            _, label, start, _, _ = self.spans[sid]
            self.spans[sid] = (sid, label, start, perf_counter(), None)
            self._item = None

    def count(self, key: str, n: int = 1) -> None:
        if self.on:
            self.counts[key] += n


def stage_seconds(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Total seconds per stage span name, and self seconds per layer."""
    stages: dict[str, float] = defaultdict(float)
    layers: dict[str, float] = defaultdict(float)
    for _, name, start, end, _ in spans:
        if name.startswith("item:"):
            continue
        stages[name] += end - start
        layers[name.split(".")[0]] += end - start
    return dict(stages), dict(layers)


def item_stage_seconds(spans) -> dict[str, dict[str, float]]:
    """Seconds per stage within each item, keyed by item name."""
    names = {sid: name[5:] for sid, name, _, _, parent in spans if parent is None}
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for _, name, start, end, parent in spans:
        if parent is not None:
            out[names[parent]][name] += end - start
    return out


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
