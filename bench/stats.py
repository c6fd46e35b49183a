"""Order statistics used by the benchmark and the comparison tool."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    values = list(values)
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile, sample count). With n sorted samples that
    is the sample at rank n - 10, i.e. percentile 100 * (n - 10) / n. Below
    21 samples that rank would fall under the median, so the (lower)
    median is returned: a run with few operations has no tail to report,
    and the value stays continuous in n.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n, n
