"""Percentiles, the sample-supported tail rule, and round aggregation."""

from __future__ import annotations

import math
import statistics

#: Tail percentiles the benchmark is willing to report, ascending, each
#: with ``k`` where one sample in ``k`` lies beyond it.
TAIL_PERCENTILES = ((50.0, 2), (90.0, 10), (95.0, 20), (99.0, 100), (99.9, 1000), (99.99, 10000))

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def highest_supported_percentile(samples: int) -> float:
    """The highest tail percentile with >= 10 samples beyond it."""
    supported = [q for q, one_in in TAIL_PERCENTILES if samples >= MIN_SAMPLES_BEYOND * one_in]
    if not supported:
        raise ValueError(f"{samples} samples support no percentile")
    return supported[-1]


def median_of_rounds(values) -> float:
    """One number per round in, their median out: one stalled round
    cannot move the reported value."""
    return statistics.median(values)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median — the same
    figure the acceptance rule computes over repeated runs."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
