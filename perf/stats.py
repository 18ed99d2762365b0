"""Order statistics shared by the benchmark runner, the comparer and the tests.

Quartiles use :func:`statistics.quantiles` with ``n=4`` (the "exclusive"
method), so a spread computed here matches one computed by any other tool
that calls the standard library the same way.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, List, Sequence

#: Metric names: letters, digits, ``_``, ``.`` and ``-``, starting with a
#: letter or digit, at most 64 characters.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]``; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def iqr_frac(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a zero median)."""
    q1, _q2, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, weighted by the
    ``Beta(q(n+1), (1-q)(n+1))`` density (evaluated at each rank's midpoint
    and normalised).  Case times of a grid cluster by scenario family, and a
    plain order statistic that falls in a gap between clusters jumps by
    10% when one case swaps rank; this estimate moves smoothly instead.
    """
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logs = [
        (a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
        for i in range(n)
    ]
    peak = max(logs)
    weights = [math.exp(value - peak) for value in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and sample count of one metric."""
    q1, mid, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": mid,
        "q1": q1,
        "q3": q3,
        "min": float(min(values)),
        "max": float(max(values)),
        "iqr_frac": iqr_frac(values),
    }
