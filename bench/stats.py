"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(values, min_beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """(p, value) for the highest percentile in PERCENTILES that leaves at
    least `min_beyond` samples above its rank.

    Falls back to the median when there are too few samples for any.
    """
    n = len(values)
    chosen = PERCENTILES[0]
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
        if n - rank >= min_beyond:
            chosen = p
    return chosen, percentile(values, chosen)
