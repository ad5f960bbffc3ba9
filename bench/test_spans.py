"""Self-test of the span recorder and its self-time arithmetic."""

import pytest

from spans import SpanRecorder, self_times, summarize


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_and_sibling_self_times():
    clock = Clock()
    rec = SpanRecorder(clock=clock)
    root = rec.begin("root")                    # 0 .. 10
    clock.now = 1.0
    first = rec.begin("a")                      # 1 .. 3, child of root
    clock.now = 2.0
    inner = rec.begin("b")                      # 2 .. 2.5, child of the first "a"
    clock.now = 2.5
    rec.end(inner)
    clock.now = 3.0
    rec.end(first)
    clock.now = 4.0
    second = rec.begin("a")                     # 4 .. 6, sibling of the first "a"
    clock.now = 6.0
    rec.end(second)
    clock.now = 10.0
    rec.end(root)

    assert [s[3] for s in rec.spans] == [-1, 0, 1, 0]
    assert self_times(rec.spans) == [6.0, 1.5, 0.5, 2.0]
    summary = summarize(rec.spans)
    assert summary["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.5, "first_s": 2.0}
    assert summary["root"]["self_s"] == 6.0


def test_overlapping_children_are_counted_once_and_clipped():
    spans = [
        ["parent", 0.0, 5.0, -1],
        ["x", 1.0, 4.0, 0],
        ["y", 3.0, 6.0, 0],   # overlaps x and runs past the parent's end
    ]
    assert self_times(spans) == [1.0, 3.0, 3.0]


def test_wrap_closes_the_span_on_error_and_counts_work_after_it():
    clock = Clock()
    rec = SpanRecorder(clock=clock)

    def work(n):
        clock.now += n
        if n == 2:
            raise ValueError("two")
        return list(range(n))

    def rows(counts, args, kwargs, result):
        clock.now += 100.0  # must not land inside the span
        counts["mod.work.rows"] += len(result)

    traced = rec.wrap("mod.work", work, rows)
    assert traced(3) == [0, 1, 2]
    with pytest.raises(ValueError):
        traced(2)
    assert rec.counts == {"mod.work.rows": 3}
    assert all(end is not None for _, _, end, _ in rec.spans)
    assert summarize(rec.spans)["mod.work"]["total_s"] == 3.0 + 2.0
