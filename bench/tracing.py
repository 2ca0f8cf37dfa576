"""Spans around the benchmark's calls into majlat's public functions.

majlat carries no instrumentation of its own, so layers are timed from
outside: every call the benchmark makes into a module goes through
`Tracer.call`, and every operation through `Tracer.run_op`. Spans stay in
memory and are written out when the run ends. `NullTracer` has the same
interface and records nothing; end-to-end metrics are measured with it.
"""

from __future__ import annotations

import json
from time import perf_counter


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def run_op(self, kind, fn):
        return fn(self)


class Tracer:
    """Spans as (name, start, end, parent index, operation id, failed)."""

    def __init__(self):
        self.spans: list = []
        self._parent = None
        self._op = 0

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        failed = False
        try:
            return fn(*args, **kwargs)
        except Exception:
            failed = True
            raise
        finally:
            self.spans.append((name, start, perf_counter(), self._parent, self._op, failed))

    def run_op(self, kind, fn):
        self._op += 1
        index = len(self.spans)
        self.spans.append(None)  # the operation span, filled in when it ends
        self._parent = index
        start = perf_counter()
        failed = False
        try:
            return fn(self)
        except Exception:
            failed = True
            raise
        finally:
            self.spans[index] = ("op." + kind, start, perf_counter(), None, self._op, failed)
            self._parent = None

    def durations(self, name: str, factors: list[float]) -> list[float]:
        """Durations of the spans called name, each times its operation's factor."""
        return [(end - start) * factors[op - 1] for n, start, end, _, op, _ in self.spans if n == name]

    def summary(self, factors: list[float]) -> dict[str, list]:
        """Per span name: [calls, self seconds, failed calls].

        Self time is the span's duration minus the time its child spans
        cover, times factors[k - 1] for a span of operation k.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        stats: dict[str, list] = {}
        for i, (name, start, end, _, op, failed) in enumerate(self.spans):
            entry = stats.setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += (end - start - covered[i]) * factors[op - 1]
            entry[2] += failed
        return stats

    def write(self, handle, label: str) -> None:
        for span in self.spans:
            handle.write(json.dumps([label, *span]) + "\n")
