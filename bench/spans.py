"""In-memory span recorder and self-time arithmetic for traced benchmark runs.

A span is ``[name, start, end, parent]``, where ``parent`` is the index of the
span that was open when this one began (``-1`` for a root).  Spans are kept
in memory and written out once, when the traced process ends.

The recorder is fed from outside the library: :meth:`SpanRecorder.wrap`
returns a wrapper that opens a span around one call, and the benchmark
rebinds module attributes to such wrappers.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class SpanRecorder:
    """Spans of one single-threaded process, plus counters keyed by name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._open.remove(idx)

    def wrap(self, name: str, fn, on_return=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        The span closes whether or not ``fn`` raises.
        ``on_return(counts, args, kwargs, result)`` runs after the span has
        closed, so counting work does not inflate its time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start  # children's union is measured only past this point
        for c_start, c_end in sorted(children[idx]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and ``first_s``
    (the duration of the first call in the process)."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "first_s": end - start})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += own
    return out
