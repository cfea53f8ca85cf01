"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

MIN_TAIL_SAMPLES = 10


def percentile(values, q: float, min_tail: int = MIN_TAIL_SAMPLES) -> float:
    """Nearest-rank ``q``-th percentile, refused without enough tail samples.

    A percentile is reported only when at least ``min_tail`` samples lie
    beyond it, so by default p99 needs at least 1000 samples.
    """
    n = len(values)
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    beyond = n - math.ceil(q / 100.0 * n)
    if beyond < min_tail:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {beyond} beyond it; need at least {min_tail}"
        )
    return sorted(values)[math.ceil(q / 100.0 * n) - 1]


def median(values) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
