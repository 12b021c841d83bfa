import statistics

import pytest

from quantiles import (
    percentile, quartiles, samples_beyond, spread, supported_percentile,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (5, 50.0),      # nothing supports even p90: fall back to the median
    (99, 50.0),     # p90 leaves 9 beyond it
    (100, 90.0),    # p90 leaves exactly 10
    (199, 90.0),    # p95 leaves 9
    (200, 95.0),
    (999, 95.0),
    (1000, 99.0),
    (9999, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected
    if expected > 50.0:
        assert samples_beyond(n, expected) >= 10


def test_quartiles_match_the_acceptance_check():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, statistics.median(values), q3)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
