"""Statistics helpers of the benchmark: median, quartiles, spread, and the
highest percentile a sample count supports."""

import math
import statistics


def median(values):
    """The median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as `statistics.quantiles(values, n=4)` gives them.

    A single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def relative_spread(values):
    """(Q3 - Q1) / median: the run-to-run spread the benchmark's bounds are
    compared with. 0 when the median is 0."""
    q1, _, q3 = quartiles(values)
    m = median(values)
    return 0.0 if m == 0 else (q3 - q1) / abs(m)


def highest_supported_percentile(n, beyond=10):
    """The highest whole percentile p such that at least `beyond` of `n`
    samples lie above it, or None when n <= beyond."""
    if n <= beyond:
        return None
    return math.floor(100 * (n - beyond) / n)


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between the
    closest ranks of the sorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside 0..100")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
