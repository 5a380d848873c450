"""Summary statistics with the sample-count rules the report follows.

A timing is reported as its median plus the highest percentile that has
at least :data:`TAIL_SAMPLES` samples beyond it; asking for a percentile
the sample cannot support raises instead of returning a number.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

#: Tail percentiles considered, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


class TooFewSamples(ValueError):
    """A percentile was requested that the sample count cannot support."""


def percentile(values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile, refused below its sample count.

    The rank is ``ceil(pct/100 * n)``; at least :data:`TAIL_SAMPLES`
    samples must rank above it, so p99 needs 1000 samples and p50 20.
    """
    n = len(values)
    rank = math.ceil(pct / 100.0 * n)
    if n == 0 or n - rank < TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{pct:g} needs {TAIL_SAMPLES} samples beyond it; "
            f"{n} samples leave {max(0, n - rank)}"
        )
    return sorted(values)[max(rank, 1) - 1]


def highest_tail(values: Sequence[float]) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` the sample supports."""
    for pct in TAIL_LADDER:
        try:
            percentile(values, pct)
        except TooFewSamples:
            continue
        return pct
    return None


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, supported tail percentile and sample count of ``values``."""
    if not values:
        raise TooFewSamples("no samples")
    summary: Dict[str, object] = {
        "n": len(values),
        "median": statistics.median(values),
    }
    tail = highest_tail(values)
    if tail is not None:
        summary[f"p{tail:g}"] = percentile(values, tail)
    return summary

