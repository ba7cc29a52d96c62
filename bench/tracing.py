"""Spans around the benchmark's own calls into the program's layers.

A span records (span id, parent span id, operation id, name, start, end).
Spans are kept in memory and written out once, when the run ends.  Nothing
here reaches inside the program: a span covers one call that the benchmark
makes into a public function of a ``quadode`` module.
"""

from __future__ import annotations

import json
from collections import defaultdict
from statistics import median
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n):
        pass


class _Group:
    """A span that groups other spans (an operation, or its replay)."""

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._sid, self._parent = self._tracer._open()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._sid, self._parent, self._name, self._start, perf_counter())
        return False


class Tracer:
    """Tracing on: every call through :meth:`call` becomes a span."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, int | None, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end):
        self._stack.pop()
        self.spans.append((sid, parent, self.op_id, name, start, end))

    def call(self, name, fn, *args, **kwargs):
        sid, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._close(sid, parent, name, start, end)

    def group(self, name: str) -> _Group:
        return _Group(self, name)

    def count(self, name, n):
        self.counts[name] += n

    def self_times(self) -> dict[str, list[float]]:
        """Self time (duration minus direct children) of every span, by name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for sid, _, _, name, start, end in self.spans:
            out[name].append(end - start - child_time[sid])
        return out


def span_table(tracer: Tracer) -> list[tuple[str, int, float, float]]:
    """(name, spans, median self time in us, total self time in ms), by total."""
    rows = [
        (name, len(v), median(v) * 1e6, sum(v) * 1e3)
        for name, v in tracer.self_times().items()
    ]
    rows.sort(key=lambda r: -r[3])
    return rows


def write_spans(path, tracers: dict[str, Tracer]) -> int:
    """Write every span as one JSON line; returns the number written."""
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        for workload, tracer in tracers.items():
            for sid, parent, op, name, start, end in tracer.spans:
                fh.write(
                    json.dumps(
                        {
                            "workload": workload,
                            "span": sid,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                )
                fh.write("\n")
                written += 1
    return written
