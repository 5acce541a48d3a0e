"""Spans around the benchmark's calls into unicipher, kept in memory.

A span is ``[name, start, end, parent, op]``: the public function called
(``module.function``), its ``perf_counter`` interval, the index of the span
that was open when it began (``None`` at the top), and the operation id the
benchmark had set (a message, block or sub-box index).  Spans are recorded
only around calls the benchmark makes, so every library span is a leaf and
its self time equals its duration until the library records spans itself.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class NullTracer:
    """Calls straight through; used for the untraced, end-to-end runs."""

    def __init__(self):
        self.op = None

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call made through :meth:`call`."""

    def __init__(self):
        self.op = None
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - cov for (_, start, end, _, _), cov in zip(spans, covered)]


def totals(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive seconds per span name, and self seconds per module (name prefix)."""
    inclusive: dict[str, float] = defaultdict(float)
    by_module: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        inclusive[span[0]] += span[2] - span[1]
        by_module[span[0].split(".", 1)[0]] += own
    return inclusive, by_module


def write_spans(path: Path, phases: dict[str, list]) -> None:
    """Write every phase's spans as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], **phases}, out)
