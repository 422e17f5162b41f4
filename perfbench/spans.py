"""In-memory spans and work counters for the traced benchmark run.

A span records a name, start and end (perf_counter seconds), the span that
caused it and the operation it belongs to.  Spans are taken only from the
benchmark's own files, around calls into the library's public functions;
nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, operation number]
        self.spans: list[list] = []
        self.counts: list[Counter] = []
        self._stack: list[int] = []

    def begin_op(self) -> int:
        self.counts.append(Counter())
        return len(self.counts) - 1

    @property
    def op(self) -> int:
        return len(self.counts) - 1

    def count(self, name: str, k: int = 1) -> None:
        self.counts[-1][name] += k

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def op_summary(self, op: int) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name for one operation: total time, self time and calls.

        Self time is a span's duration minus the time its child spans cover.
        """
        child: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, o in self.spans:
            if o == op and parent >= 0:
                child[parent] += end - start
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, start, end, parent, o) in enumerate(self.spans):
            if o != op:
                continue
            total[name] += end - start
            own[name] += end - start - child[idx]
            calls[name] += 1
        return dict(total), dict(own), dict(calls)

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": [dict(c) for c in self.counts],
        }
