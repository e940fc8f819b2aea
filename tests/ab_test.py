#!/usr/bin/env python3
"""Checks tools/ab.py's pair schedule and verdict arithmetic on canned runs.

    python3 tests/ab_test.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tools"))
import ab  # noqa: E402

PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0,
          109.0]  # q1 101.75, median 104.5, q3 107.25: IQR 5.5, spread 0.053


def scaled(values, factor):
    return [v * factor for v in values]


class VerdictTest(unittest.TestCase):
    def test_ten_wins_beyond_the_iqr_are_a_gain(self):
        row = ab.compare(PARENT, scaled(PARENT, 1.1), "higher", 0.24)
        self.assertEqual(row["change_better"], 10)
        self.assertEqual(row["verdict"], "gain")

    def test_eight_wins_are_not_a_gain(self):
        change = scaled(PARENT, 1.1)
        change[0], change[1] = PARENT[0] - 1, PARENT[1] - 1
        row = ab.compare(PARENT, change, "higher", 0.24)
        self.assertEqual(row["change_better"], 8)
        self.assertEqual(row["verdict"], "within bound")

    def test_nine_wins_inside_the_iqr_are_not_a_gain(self):
        change = [v + 1.0 for v in PARENT]
        change[0] = PARENT[0]
        row = ab.compare(PARENT, change, "higher", 0.24)
        self.assertEqual(row["change_better"], 9)
        self.assertEqual(row["verdict"], "within bound")

    def test_ties_count_for_neither_side(self):
        change = list(PARENT)
        change[0] += 1.0
        row = ab.compare(PARENT, change, "higher", 0.24)
        self.assertEqual(row["change_better"], 1)
        row = ab.compare(PARENT, change, "lower", 0.24)
        self.assertEqual(row["change_better"], 0)
        self.assertEqual(row["pair_ratio_median"], 1.0)

    def test_lower_is_better_flips_the_direction(self):
        faster = scaled(PARENT, 0.9)
        self.assertEqual(ab.compare(PARENT, faster, "lower", 0.24)["verdict"],
                         "gain")
        self.assertEqual(ab.compare(PARENT, faster, "higher", 0.24)["verdict"],
                         "within bound")
        slower = scaled(PARENT, 1.3)
        self.assertEqual(ab.compare(PARENT, slower, "lower", 0.24)["verdict"],
                         "regression")
        self.assertEqual(ab.compare(PARENT, slower, "higher", 0.24)["verdict"],
                         "gain")

    def test_a_median_worse_than_the_bound_is_a_regression(self):
        row = ab.compare(PARENT, scaled(PARENT, 0.7), "higher", 0.24)
        self.assertAlmostEqual(row["median_change"], -0.3)
        self.assertEqual(row["verdict"], "regression")
        row = ab.compare(PARENT, scaled(PARENT, 0.8), "higher", 0.24)
        self.assertEqual(row["verdict"], "within bound")

    def test_a_parent_spread_above_the_bound_is_unresolved(self):
        noisy = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0,
                 150.0]  # spread (136.25 - 77.5) / 105 = 0.56
        self.assertEqual(ab.compare(noisy, noisy, "higher", 0.24)["verdict"],
                         "unresolved")

    def test_unless_every_change_run_beats_every_parent_run(self):
        noisy = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0,
                 150.0]
        above = [151.0 + i for i in range(10)]
        self.assertEqual(ab.compare(noisy, above, "higher", 0.24)["verdict"],
                         "within bound")
        below = [59.0 - i for i in range(10)]
        self.assertEqual(ab.compare(noisy, below, "lower", 0.24)["verdict"],
                         "within bound")
        # One change run inside the parent's range leaves it unresolved.
        above[0] = 149.0
        self.assertEqual(ab.compare(noisy, above, "higher", 0.24)["verdict"],
                         "unresolved")

    def test_records_quartiles_ratios_and_iqr(self):
        row = ab.compare(PARENT, scaled(PARENT, 2.0), "higher", 0.24)
        self.assertEqual(row["parent"], [101.75, 104.5, 107.25])
        self.assertEqual(row["change"], [203.5, 209.0, 214.5])
        self.assertEqual(row["pairs"], 10)
        self.assertEqual(row["pair_ratio_range"], [2.0, 2.0])
        self.assertEqual(row["median_change"], 1.0)
        self.assertEqual(row["parent_iqr"], 5.5)


class ScheduleTest(unittest.TestCase):
    def test_pairs_share_a_seed_and_every_other_pair_runs_the_change_first(
            self):
        runs = ab.schedule(["bulk_wide", "tcp_narrow"], 500)
        self.assertEqual(len(runs), 2 * (10 + 20))
        pairs = [runs[i:i + 2] for i in range(0, len(runs), 2)]
        for i, (a, b) in enumerate(pairs):
            self.assertEqual(a[0], b[0])
            self.assertEqual(a[1], b[1])
            self.assertEqual(a[1], 500 + i)
            self.assertEqual({a[2], b[2]}, {"parent", "change"})
        firsts = [a[2] for a, _ in pairs]
        self.assertEqual(firsts[:10], ["parent", "change"] * 5)
        self.assertEqual(firsts[10:], ["parent", "change"] * 10)
        self.assertEqual([a[0] for a, _ in pairs],
                         ["bulk_wide"] * 10 + ["tcp_narrow"] * 20)


if __name__ == "__main__":
    unittest.main()
