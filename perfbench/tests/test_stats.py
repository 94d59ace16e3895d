"""Tests for perfbench/stats.py.

Run from the repository root:
    python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import stats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even_counts(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [1.2, 0.9, 1.0, 1.1, 1.4, 1.05, 0.95, 1.3, 1.15, 1.0]
        q1, q2, q3 = stats.quartiles(xs)
        self.assertEqual([q1, q2, q3], statistics.quantiles(xs, n=4))
        self.assertLessEqual(q1, q2)
        self.assertLessEqual(q2, q3)

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_relative_spread(self):
        xs = [10.0] * 10
        self.assertEqual(stats.relative_spread(xs), 0.0)
        xs = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.relative_spread(xs), (q3 - q1) / 5)


class PercentileTest(unittest.TestCase):
    def test_highest_supported_percentile(self):
        # Ten samples must lie beyond the reported percentile.
        self.assertIsNone(stats.highest_supported_percentile(10))
        self.assertEqual(stats.highest_supported_percentile(20), 50)
        self.assertEqual(stats.highest_supported_percentile(100), 90)
        self.assertEqual(stats.highest_supported_percentile(1000), 99)
        self.assertEqual(stats.highest_supported_percentile(13), 23)
        for n in range(11, 500):
            p = stats.highest_supported_percentile(n)
            self.assertGreaterEqual(n - n * p / 100, 10, n)

    def test_percentile_interpolates(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertEqual(stats.percentile(xs, 0), 1.0)
        self.assertEqual(stats.percentile(xs, 50), 3.0)
        self.assertEqual(stats.percentile(xs, 100), 5.0)
        self.assertEqual(stats.percentile(xs, 90), 4.6)

    def test_percentile_range_is_checked(self):
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


if __name__ == "__main__":
    unittest.main()
