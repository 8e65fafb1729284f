"""In-memory span recorder for the traced run.

A span is one call into a layer: name, start, end, parent span and batch id.
Spans stay in memory while the traced run goes on and are written out once at
the end. A span's self time is its duration minus the time its child spans
cover (children of one span never overlap: the program is single-threaded).

Most spans wrap one call. A span opened with :meth:`Tracer.begin` stays open
after the call that opened it returns, for a stretch of code that is no
function of its own (one batch of a loop); it ends at :meth:`Tracer.end`, or
when the span that encloses it ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        # [name, parent, batch, start_ns, end_ns, root]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, batch: int | None = None) -> int:
        """Open a span inside the innermost open one; the batch id is
        inherited from the parent unless given."""
        parent = self._stack[-1] if self._stack else -1
        if batch is None and parent >= 0:
            batch = self.spans[parent][2]
        sid = len(self.spans)
        root = self.spans[parent][5] if parent >= 0 else sid
        self.spans.append([name, parent, batch, time.perf_counter_ns(), 0, root])
        self._stack.append(sid)
        return sid

    def end(self, name: str) -> None:
        """End the innermost open span if it is called ``name``."""
        if self._stack and self.spans[self._stack[-1]][0] == name:
            self._close(self._stack[-1])

    def innermost(self) -> tuple[str | None, int | None]:
        """Name and batch id of the innermost open span."""
        if not self._stack:
            return None, None
        s = self.spans[self._stack[-1]]
        return s[0], s[2]

    def _close(self, sid: int) -> None:
        """End span ``sid`` and every span still open inside it."""
        if sid not in self._stack:
            return
        now = time.perf_counter_ns()
        while True:
            top = self._stack.pop()
            self.spans[top][4] = now
            if top == sid:
                return

    @contextmanager
    def span(self, name: str, batch: int | None = None):
        sid = self.begin(name, batch)
        try:
            yield
        finally:
            self._close(sid)

    def self_ns(self) -> list[int]:
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[4] - s[3]
        return out

    def _select(self, name: str, root: str | None) -> list[int]:
        return [
            i
            for i, s in enumerate(self.spans)
            if s[0] == name and (root is None or self.spans[s[5]][0] == root)
        ]

    def durations_s(self, name: str, root: str | None = None) -> list[float]:
        """Durations of the spans called ``name``, optionally only those
        under a root span called ``root``."""
        return [(self.spans[i][4] - self.spans[i][3]) / 1e9 for i in self._select(name, root)]

    def self_s(self, name: str, root: str | None = None) -> list[float]:
        own = self.self_ns()
        return [own[i] / 1e9 for i in self._select(name, root)]

    def write(self, path: Path) -> None:
        own = self.self_ns()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, batch, start, end, _) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "parent": parent,
                            "batch": batch,
                            "start_ns": start,
                            "end_ns": end,
                            "self_ns": own[i],
                        }
                    )
                    + "\n"
                )


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail(values) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, and the
    sample count. Below 20 samples that percentile would not lie above the
    median, and the maximum is reported instead."""
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return 0.0, 0
    return float(vals[n - 11] if n >= 20 else vals[-1]), n
