"""Pure helpers: percentiles, span self time, failure accounting."""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

#: Percentiles the tail metric may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    With ``count`` samples, ``count * (1 - p/100)`` of them lie beyond the
    p-th percentile; ``None`` when even the median has fewer than ten.
    """
    for pct in TAIL_LADDER:
        # Integer arithmetic in thousandths keeps 99.9 exact.
        if count * (100_000 - round(pct * 1000)) >= TAIL_MIN_BEYOND * 100_000:
            return pct
    return None


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Tuple[float, float, int]]) -> List[float]:
    """Self time of each ``(start, end, parent_index)`` span: its duration
    minus the part of it that its direct children cover (children may
    overlap each other or stick out of the parent)."""
    children: List[List[Tuple[float, float]]] = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[index], start, end)
        for index, (start, end, _parent) in enumerate(spans)
    ]


def failed_count(
    offered: int, shed: int, aborted: int, check_failed: int, diverged: bool
) -> int:
    """Failed operations of one pass.

    Shed and aborted queries fail, and so does every query an output
    check rejects.  A pass whose sim outputs differ from an earlier
    repetition of the same input fails as a whole.  Never more than
    ``offered``."""
    if diverged:
        return offered
    return min(offered, shed + aborted + check_failed)

