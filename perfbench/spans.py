"""In-memory span recording and self-time arithmetic.

A span is one call of a wrapped function: name, start, end, the index of
the span that was open when it started (its parent), and a run id.  Spans
are appended to a list in memory and written out once, when the traced
process ends.

All times come from ``time.monotonic``, which is CLOCK_MONOTONIC on Linux
and therefore comparable between the benchmark and the processes it
starts.  That lets a traced process open its root span at the moment the
benchmark spawned it.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, NamedTuple

from time import monotonic as clock


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    #: time the tracer itself spent inside this span computing ``info``;
    #: it is not charged to the span's self time
    tracer_s: float
    #: counts computed from the call's arguments, or None
    info: dict | None


class Tracer:
    """Records spans for the functions it wraps, in the process that made it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = True
        self._records: list[list] = []
        self._stack: list[int] = []

    def disable(self) -> None:
        self.enabled = False

    def open(self, name: str, start: float | None = None) -> int:
        start = clock() if start is None else start
        index = len(self._records)
        parent = self._stack[-1] if self._stack else None
        self._records.append([name, start, None, parent, self.run_id, 0.0, None])
        self._stack.append(index)
        return index

    def close(self, index: int, tracer_s: float = 0.0) -> None:
        record = self._records[index]
        record[2] = clock()
        record[5] += tracer_s
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {record[0]!r} closed out of order")

    def wrap(self, name: str, fn: Callable, count: Callable[..., dict] | None = None) -> Callable:
        """A wrapper around ``fn`` that records one span per call while enabled.

        ``count`` receives the call's bound arguments (defaults applied) and
        returns the counts to attach to the span; its cost is recorded as
        tracer time, not as the span's self time.
        """
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            tracer_s = 0.0
            try:
                if count is not None:
                    t0 = clock()
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self._records[index][6] = count(**bound.arguments)
                    tracer_s = clock() - t0
                return fn(*args, **kwargs)
            finally:
                self.close(index, tracer_s)

        return wrapper

    def spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return [Span(*record) for record in self._records]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and merged, so
    overlapping children are not subtracted twice.  The tracer's own time
    inside a span is subtracted as well.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.end - span.start - covered - span.tracer_s)
    return out
