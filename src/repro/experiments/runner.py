"""Timing utilities for the experiment harness.

The numbers of Figure 7 are wall-clock times of the algorithms on synthetic
inputs.  Absolute values on 2026 hardware are incomparable with the paper's
2003 setup, so what the harness reports are the *shapes*: growth rates,
ratios between algorithms, and sensitivity to each parameter.  This module provides a tiny, dependency-free timing helper with
best-of-``repeat`` semantics and simple tabular rendering shared by the
figure builders.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TimedCall:
    """The measurement :func:`time_call` returns.

    Unpacks as the historical ``(seconds, result)`` pair — every existing
    call site keeps working — while also carrying the CPU time of the best
    repetition and the number of GC collections (all generations) that ran
    across the whole call.  With the collector disabled around the timed
    region ``gc_collections`` is normally 0; a nonzero value flags a
    measurement whose numbers jittered with allocator state.
    """

    seconds: float
    result: Any
    cpu_seconds: float = 0.0
    gc_collections: int = 0

    def __iter__(self):
        return iter((self.seconds, self.result))


def time_call(fn: Callable[[], Any], repeat: int = 1) -> TimedCall:
    """Run ``fn`` ``repeat`` times; best wall-clock seconds plus context.

    The garbage collector is disabled around the timed region (and restored
    afterwards, also on error): a cycle collection landing inside one
    repetition but not another makes best-of-``repeat`` numbers jitter with
    allocator state rather than with the measured algorithm.
    """
    best = float("inf")
    best_cpu = float("inf")
    result: Any = None
    collections_before = sum(s["collections"] for s in gc.get_stats())
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        for _ in range(max(1, repeat)):
            cpu_start = time.process_time()
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            cpu_elapsed = time.process_time() - cpu_start
            if elapsed < best:
                best = elapsed
                best_cpu = cpu_elapsed
    finally:
        if was_enabled:
            gc.enable()
    collections = sum(s["collections"] for s in gc.get_stats()) - collections_before
    return TimedCall(
        seconds=best,
        result=result,
        cpu_seconds=best_cpu,
        gc_collections=collections,
    )


@dataclass
class SeriesPoint:
    """One measured point of an experiment series."""

    parameters: Dict[str, Any]
    seconds: Dict[str, float]
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ExperimentSeries:
    """A named series of measurements (one figure panel)."""

    name: str
    description: str
    x_label: str
    points: List[SeriesPoint] = field(default_factory=list)

    def add(self, parameters: Dict[str, Any], seconds: Dict[str, float], **extra: Any) -> None:
        self.points.append(SeriesPoint(parameters=parameters, seconds=seconds, extra=extra))

    def algorithms(self) -> List[str]:
        names: List[str] = []
        for point in self.points:
            for algorithm in point.seconds:
                if algorithm not in names:
                    names.append(algorithm)
        return names

    def column(self, algorithm: str) -> List[float]:
        return [point.seconds.get(algorithm, float("nan")) for point in self.points]

    def x_values(self) -> List[Any]:
        return [point.parameters.get(self.x_label) for point in self.points]

    def to_table(self) -> str:
        """ASCII table: one row per x value, one column per algorithm."""
        algorithms = self.algorithms()
        header = [self.x_label] + [f"{name} (s)" for name in algorithms]
        rows: List[List[str]] = []
        for point in self.points:
            row = [str(point.parameters.get(self.x_label))]
            for algorithm in algorithms:
                value = point.seconds.get(algorithm)
                row.append("-" if value is None else f"{value:.4f}")
            rows.append(row)
        widths = [len(h) for h in header]
        for row in rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.name + " — " + self.description]
        lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        lines.append("-+-".join("-" * w for w in widths))
        for row in rows:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Shape checks used by the integration tests.
    # ------------------------------------------------------------------
    def growth_ratio(self, algorithm: str) -> float:
        """Ratio of the last to the first measurement of an algorithm."""
        values = [v for v in self.column(algorithm) if v == v]  # drop NaN
        if len(values) < 2 or values[0] <= 0:
            return float("nan")
        return values[-1] / values[0]

    def always_faster(self, fast: str, slow: str, tolerance: float = 1.0) -> bool:
        """Is ``fast`` at most ``tolerance`` × ``slow`` at every point?"""
        for point in self.points:
            if fast in point.seconds and slow in point.seconds:
                if point.seconds[fast] > tolerance * point.seconds[slow]:
                    return False
        return True
