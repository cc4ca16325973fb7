"""In-memory spans recorded around calls into the program's layers.

The benchmark never instruments ``src/``: it opens a span around each
public call it makes, keeps every span in memory and writes them out when
the run ends.  A span has a name, a start, an end and a parent; the spans
of one operation share an operation id.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover,
so the self times of every span of an operation (the root's self time is
the ``other`` remainder) add up to the operation's duration.

Some layers cannot be timed from outside one fused call (``run_sharded``
shreds and checks in one pass).  For those, the workload times prefixes
of the pass separately and records *derived* spans that partition the
fused span by the measured shares (:meth:`Tracer.partition`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

_NULL = nullcontext()


@dataclass
class Span:
    id: int
    op: int
    name: str
    parent: Optional[int]
    start: float
    end: float
    derived: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "op": self.op,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "derived": self.derived,
        }


class Tracer:
    """Collects spans while an operation is open; a no-op otherwise.

    ``enabled=False`` makes every call a no-op, so untraced operations
    run the same benchmark code with nothing recorded.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_op = 0

    @contextmanager
    def _open(self, name: str, op: int) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), op, name, parent, time.perf_counter(), 0.0)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def op(self, name: str):
        """Open the root span of a new operation."""
        if not self.enabled:
            return _NULL
        if self._stack:
            raise RuntimeError(f"operation {name!r} opened inside another span")
        self._next_op += 1
        return self._open(name, self._next_op)

    def span(self, name: str):
        """Open a child span of the innermost open span (no-op outside an op)."""
        if not self.enabled or not self._stack:
            return _NULL
        return self._open(name, self._stack[-1].op)

    def partition(self, parent: Span, shares: Sequence[Tuple[str, float]]) -> None:
        """Split ``parent`` into consecutive derived child spans.

        ``shares`` are measured durations in order; each is clamped to what
        is left of the parent, and the last name takes the remainder, so
        the children cover the parent exactly.
        """
        cursor = parent.start
        for index, (name, share) in enumerate(shares):
            if index == len(shares) - 1:
                end = parent.end
            else:
                end = min(parent.end, cursor + max(share, 0.0))
            self.spans.append(
                Span(len(self.spans), parent.op, name, parent.id, cursor, end,
                     derived=True)
            )
            cursor = end

    def embed(self, parent: Span, name: str, share: float) -> None:
        """Record a derived child at the end of ``parent`` lasting ``share``
        (clamped to the parent): the part of a call measured separately."""
        start = max(parent.start, parent.end - max(share, 0.0))
        self.spans.append(
            Span(len(self.spans), parent.op, name, parent.id, start, parent.end,
                 derived=True)
        )


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent is not None:
            parent = by_id[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return {
        span.id: span.duration - _covered(children.get(span.id, []))
        for span in spans
    }


def operations(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Spans grouped by operation id, root first."""
    grouped: Dict[int, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.op, []).append(span)
    return grouped


def breakdown(spans: Sequence[Span]) -> Tuple[float, float, Dict[str, float]]:
    """One operation's ``(duration, other, self time per span name)``.

    ``other`` is the root span's self time: benchmark glue between the
    layer calls.  The self times plus ``other`` add up to ``duration``.
    """
    roots = [span for span in spans if span.parent is None]
    if len(roots) != 1:
        raise ValueError(f"an operation needs exactly one root span, found {len(roots)}")
    root = roots[0]
    own = self_times(spans)
    layers: Dict[str, float] = {}
    for span in spans:
        if span is not root:
            layers[span.name] = layers.get(span.name, 0.0) + own[span.id]
    return root.duration, own[root.id], layers
