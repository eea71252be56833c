"""Order statistics with the benchmark's minimum-sample rule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A p99 is reported only from at least this many samples, so that ten
#: samples lie beyond it.
P99_MIN_SAMPLES = 1000


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (0 < q <= 100) of *values*."""
    if not values:
        raise TooFewSamples("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} is outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p50(values: Sequence[float]) -> float:
    return percentile(values, 50)


def p99(values: Sequence[float]) -> float:
    """The 99th percentile of samples listed in the order they were taken.

    The samples are cut into as many consecutive chunks of at least
    :data:`P99_MIN_SAMPLES` as they fill, and the result is the median of
    the chunks' p99s (one chunk: its p99).  A burst of interference from
    outside the program lands in one chunk, so the median does not follow
    it, while a slow path the program takes all the time shows in every
    chunk.  Fewer samples than one chunk raise :class:`TooFewSamples`.
    """
    if len(values) < P99_MIN_SAMPLES:
        raise TooFewSamples(
            f"a p99 needs at least {P99_MIN_SAMPLES} samples, "
            f"got {len(values)}")
    chunks = len(values) // P99_MIN_SAMPLES
    size = len(values) / chunks
    return statistics.median(
        percentile(values[round(i * size):round((i + 1) * size)], 99)
        for i in range(chunks))


def ratio(part: float, whole: float) -> float:
    """*part* / *whole*, and 0 when nothing was counted."""
    return part / whole if whole else 0.0
