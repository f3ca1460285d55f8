"""The benchmark's own arithmetic: medians, the tail rule, quartile spread."""

from __future__ import annotations

import re
import statistics
from typing import Optional, Sequence

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(samples: Sequence[float]) -> Optional[tuple[float, float]]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples above it.

    With n samples and k = TAIL_BEYOND the value is the (n - k)-th smallest, so
    exactly k samples rank above it; its percentile is 100 (n - k) / n.
    Returns None when there are too few samples (n <= k) to name one.
    """
    n, k = len(samples), TAIL_BEYOND
    if n <= k:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - k) / n, ordered[n - k - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
