"""Spans recorded around the benchmark's calls into qgame's layers.

Spans are kept in memory and written out once the run ends.  Every span
carries its name, start and end (``time.perf_counter`` seconds), the index
of the span it ran inside, and the id of the op it served (``None`` for
set-up work).  A disabled tracer hands out one shared no-op context, so
untraced runs pay a single attribute lookup per call site.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.record = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.op_id]

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another, so their coverage is the
        sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self, select, parent: str | None = None) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self seconds)}`` over selected spans.

        A span is selected when its op id passes ``select`` and, if ``parent``
        is given, it ran directly inside a span of that name.
        """
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, _, _, up, op_id), self_s in zip(self.spans, self.self_times()):
            if select(op_id) and (parent is None or (up is not None and self.spans[up][0] == parent)):
                out[name][0] += 1
                out[name][1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def durations(self, name: str, select) -> list[float]:
        return [end - start for n, start, end, _, op_id in self.spans if n == name and select(op_id)]

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
            for name, start, end, parent, op_id in self.spans
        ]
