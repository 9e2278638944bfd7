"""The few order statistics the benchmark reports and compares with."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 values).

    The same rule the benchmark's acceptance uses: the quartiles are those
    of ``statistics.quantiles(values, n=4)``.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
