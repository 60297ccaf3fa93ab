"""In-memory spans for the traced run.

A span is ``[name, start, end, parent index or -1, op id]``; spans of one
operation share its op id.  They are kept in a list and written out once,
when the run ends.  The tracer also files every span's duration under
``samples[name][key]`` so the per-layer statistics need no second pass.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)


def percentile(ordered: list[float], share: float) -> float:
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def lower_decile(values: list[float]) -> float:
    """The quiet-machine estimate of a duration (see ``loops.py``)."""
    return percentile(sorted(values), 0.10)


class _Span:
    __slots__ = ("tracer", "index", "key")

    def __init__(self, tracer: "Tracer", index: int, key):
        self.tracer = tracer
        self.index = index
        self.key = key

    def __enter__(self) -> "_Span":
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][START] = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = perf_counter()
        tracer = self.tracer
        record = tracer.spans[self.index]
        record[END] = end
        tracer._stack.pop()
        tracer.samples[record[NAME]][self.key].append(end - record[START])

    @property
    def seconds(self) -> float:
        record = self.tracer.spans[self.index]
        return record[END] - record[START]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        #: name -> key -> durations, in the order recorded.
        self.samples: dict[str, dict[object, list[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self._stack: list[int] = []
        self._ops = 0

    def op(self, name: str, key=None) -> _Span:
        """A root span: starts a new operation id."""
        self._ops += 1
        return self._open(name, key, -1)

    def span(self, name: str, key=None) -> _Span:
        """A child of the innermost open span."""
        return self._open(name, key, self._stack[-1])

    def _open(self, name: str, key, parent: int) -> _Span:
        self.spans.append([name, 0.0, 0.0, parent, self._ops])
        return _Span(self, len(self.spans) - 1, key)

    def add_op(self, name: str, key, start: float, end: float) -> None:
        """A finished root span timed by the caller (concurrent
        operations cannot share the stack)."""
        self._ops += 1
        self.spans.append([name, start, end, -1, self._ops])
        self.samples[name][key].append(end - start)

    def floors(self, name: str) -> dict[object, float]:
        """Per key: the lower decile of the durations of ``name``."""
        return {
            key: lower_decile(values)
            for key, values in self.samples.get(name, {}).items()
        }

    def per_op(self, name: str) -> float:
        """Seconds of ``name`` per operation of a round-robin pass: the
        mean over keys of each key's floor (0.0 when never recorded)."""
        floors = self.floors(name)
        return sum(floors.values()) / len(floors) if floors else 0.0

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus what child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        totals: dict[str, float] = defaultdict(float)
        for span, inside in zip(self.spans, covered):
            totals[span[NAME]] += span[END] - span[START] - inside
        return dict(totals)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": None if parent < 0 else parent, "op": op,
                }) + "\n")

