"""Order statistics used by the benchmark's end-to-end metrics."""

from __future__ import annotations

import statistics
from typing import Sequence

# A tail value needs this many operations strictly beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND operations beyond it.

    Returns (value, percentile, sample count).  With n sorted values the
    value is the (TAIL_BEYOND + 1)-th largest, whose percentile is
    100 * (n - TAIL_BEYOND) / n.  The tail is never taken below the median:
    with fewer than 2 * TAIL_BEYOND values it is the median, percentile 50.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no values")
    if n < 2 * TAIL_BEYOND:
        return statistics.median(values), 50.0, n
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
