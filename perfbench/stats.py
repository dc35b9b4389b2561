"""Summary arithmetic for the benchmark: medians, quartiles, tails.

A timing is reported as its median plus the highest percentile of a
fixed ladder that still has at least :data:`TAIL_MIN_BEYOND` samples
beyond it, always with the sample count — so a tail is never quoted
from a handful of points.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

#: Percentiles considered for the tail, lowest first.
TAIL_LADDER = (90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it may be quoted.
TAIL_MIN_BEYOND = 10


class Tail(NamedTuple):
    """A quoted percentile: which one, its value and the sample count."""

    percentile: float
    value: float
    samples: int


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (``numpy``'s default rule)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(samples)
    rank = p / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def beyond(count: int, p: float) -> float:
    """Expected number of samples above the ``p``-th percentile."""
    return count * (100.0 - p) / 100.0


def tail(samples: Sequence[float]) -> Optional[Tail]:
    """The highest ladder percentile with enough samples beyond it.

    None when even the lowest rung lacks :data:`TAIL_MIN_BEYOND`
    samples beyond it (e.g. 4 samples support no tail at all).
    """
    count = len(samples)
    best: Optional[float] = None
    for p in TAIL_LADDER:
        # The tolerance absorbs float error: 100 - 99.9 is 0.0999...94.
        if beyond(count, p) >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    if best is None:
        return None
    return Tail(best, percentile(samples, best), count)
