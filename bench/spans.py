"""In-memory span recorder for the traced benchmark run.

Ops call into the program through a ``call(name, fn, *args)`` function.
The untraced run passes :func:`direct`, which only calls ``fn``; the
traced run passes :meth:`SpanRecorder.call`, which records one span per
call.  A span holds its name, start and end (``perf_counter_ns``), the
index of its parent span and the id of the op it belongs to.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


def direct(name, fn, *args):
    return fn(*args)


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.op_id = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self.starts.append(0)
        self.ends.append(0)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.starts[index] = start
            self.ends[index] = end

    def durations(self) -> dict[str, list[int]]:
        """Total duration in ns of every span, grouped by name."""
        out: dict[str, list[int]] = {}
        for name, start, end in zip(self.names, self.starts, self.ends):
            out.setdefault(name, []).append(end - start)
        return out

    def self_times(self) -> dict[str, int]:
        """Summed self time in ns per span name: each span's duration minus
        the time its child spans cover.  Children of one span run one after
        another in a single thread, so their durations do not overlap."""
        child_time = [0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        out: dict[str, int] = {}
        for index, name in enumerate(self.names):
            own = self.ends[index] - self.starts[index] - child_time[index]
            out[name] = out.get(name, 0) + own
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.op_ids):
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op"), row))) + "\n")
