"""In-memory span recorder and the runtime rebinding that feeds it.

A span has a name, a start and end from ``time.perf_counter``, the index of
the span that was open when it started (its parent), the request it belongs
to and a few counts taken at the same boundary.  Spans stay in memory until
the run ends.  A layer's self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    request: str | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while ``tracing`` is on; keeps the last result of
    captured calls either way, so correctness checks can see what a CLI
    command computed internally."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.tracing = False
        self.request: str | None = None
        self.captured: dict = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int | None:
        if not self.tracing:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.request))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int | None) -> None:
        if idx is None:
            return
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, **asdict(span)}) + "\n")


def wrap(rec: Recorder, name, fn, counts=None, capture: str | None = None):
    """``fn`` recorded as a span named ``name``, or ``name(args, kwargs)``.

    ``counts(args, kwargs, result)`` returns the counts to attach; it runs
    after the span has ended, so it costs the span nothing.  The result is
    kept under ``capture`` in ``rec.captured``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if idx is not None and counts is not None:
            rec.spans[idx].counts.update(counts(args, kwargs, result))
        if capture is not None:
            rec.captured[capture] = result
        return result

    return wrapper


class Patches:
    """Attribute rebindings that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def totals(spans: list[Span], keep) -> tuple[dict, dict, dict]:
    """Inclusive time, self time and summed counts per span name, over the
    spans whose request satisfies ``keep``."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for idx, span in enumerate(spans):
        if not keep(span.request):
            continue
        inclusive[span.name] += span.duration
        self_time[span.name] += span.duration - child_time[idx]
        for key, value in span.counts.items():
            counts[span.name][key] += value
    return inclusive, self_time, counts
