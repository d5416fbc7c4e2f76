"""Spans around the benchmark's calls into the program, and their sums.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the
index of the enclosing span (-1 for none) and ``op`` the operation that
caused it.  Spans stay in this list until the run ends.  A span's self
time is its duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import gzip
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter_ns(), 0, parent, self.op]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans) -> list[int]:
    """Self time of every span, in the spans' clock unit.

    Children are merged as intervals clipped to their parent, so
    overlapping or out-of-order children are not counted twice.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_table(spans, op_nodes) -> dict[str, dict]:
    """Per layer: calls, self ms, and the median over ops of self µs/node.

    ``op_nodes`` maps an op id to its input constructor nodes.
    """
    selfs = self_times(spans)
    per_op = defaultdict(lambda: defaultdict(int))
    calls = defaultdict(int)
    total = defaultdict(int)
    for span, own in zip(spans, selfs):
        name, op = span[0], span[4]
        calls[name] += 1
        total[name] += own
        per_op[name][op] += own
    table = {}
    for name in sorted(calls):
        ratios = [
            own / 1000.0 / op_nodes[op]
            for op, own in per_op[name].items()
            if op_nodes.get(op)
        ]
        table[name] = {
            "calls": calls[name],
            "self_ms": total[name] / 1e6,
            "us_per_node": statistics.median(ratios) if ratios else None,
        }
    return table
