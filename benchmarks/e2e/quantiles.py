"""Order statistics the benchmark reports: medians, quartiles, and the
highest percentile a sample supports."""

from __future__ import annotations

import math
import statistics

#: Percentiles a timing may be reported at, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """Nearest rank of the ``q``-th percentile among ``n`` samples (the
    rounding keeps 99.9 % of 10 000 at 9 990, not 9 990.000000000002)."""
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``q``-th percentile."""
    return n - _rank(n, q)


def supported_percentile(n: int) -> float:
    """The highest candidate percentile with at least :data:`MIN_BEYOND`
    of ``n`` samples beyond it (the median when even p90 has too few)."""
    best = CANDIDATE_PERCENTILES[0]
    for q in CANDIDATE_PERCENTILES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) the way the acceptance
    check takes them: ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")
