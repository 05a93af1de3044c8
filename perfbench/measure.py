"""The closed measurement loop every workload runs in, and its statistics.

A workload is a repeating cycle of units. A unit is one call sequence whose
results become available together: one (state, settings) pair, one batch of
two-mode states, one chunk of a cat scan, one CLI request. It completes a
declared number of items and reports how many of them failed their output
check. Units of one kind do the same work on different seeded inputs.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
# No cycle starts that the longest cycle so far says would end past this
# multiple of the measuring time, so a run with long cycles stays near it.
OVERRUN = 1.5


@dataclass
class Unit:
    kind: str
    items: int
    # run(tracer) -> (failed items, problems found by the output checks);
    # tracer is None on untraced runs.
    run: Callable


@dataclass
class Measurement:
    elapsed: float = 0.0
    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    durations: list[tuple[str, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def kind_medians(self) -> dict[str, float]:
        by_kind: dict[str, list[float]] = {}
        for kind, seconds in self.durations:
            by_kind.setdefault(kind, []).append(seconds)
        return {kind: statistics.median(v) for kind, v in by_kind.items()}

    @property
    def items_per_s(self) -> float:
        """Items passing their checks per second of summed unit time."""
        return (self.attempted - self.failed) / sum(s for _, s in self.durations)


def measure(cycle: Callable[[int], list[Unit]], seconds: float,
            tracer=None) -> Measurement:
    """Run whole cycles until ``seconds`` have passed, and at least one."""
    out = Measurement()
    start = time.perf_counter()
    longest = 0.0
    while True:
        cycle_start = time.perf_counter()
        elapsed = cycle_start - start
        if out.cycles and (elapsed >= seconds
                           or elapsed + longest > OVERRUN * seconds):
            break
        for unit in cycle(out.cycles):
            span = tracer.open("item", kind=unit.kind) if tracer else None
            t0 = time.perf_counter()
            try:
                failed, problems = unit.run(tracer)
            except Exception as exc:  # a broken item is counted, not fatal
                failed, problems = unit.items, [f"{type(exc).__name__}: {exc}"]
            t1 = time.perf_counter()
            if span is not None:
                tracer.close(span)
            out.attempted += unit.items
            out.failed += failed
            out.durations.append((unit.kind, t1 - t0))
            out.errors.extend(f"{unit.kind}: {p}" for p in problems)
        out.cycles += 1
        longest = max(longest, time.perf_counter() - cycle_start)
    out.elapsed = time.perf_counter() - start
    return out


def latency_summary(seconds: list[float]) -> tuple[float, float, float, int]:
    """(median, tail, tail percentile, sample count).

    The tail is the highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it; with too few samples it is the maximum, reported as p100.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    if n > TAIL_BEYOND:
        rank = n - TAIL_BEYOND - 1
        tail, pct = ordered[rank], 100.0 * (rank + 1) / n
    else:
        tail, pct = ordered[-1], 100.0
    return statistics.median(ordered), tail, pct, n


def report_errors(m: Measurement, limit: int = 5) -> None:
    for line in m.errors[:limit]:
        print(f"item error: {line}", file=sys.stderr)
    if len(m.errors) > limit:
        print(f"... {len(m.errors) - limit} more item errors", file=sys.stderr)
