"""Self-tests of run.py's statistics: the tail sample and the end-to-end
metrics of a measuring process's record.

    python3 dmllbench/test/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import run  # noqa: E402


def record(times, failed=0, elements=100):
    return {"times": times, "wall": times, "calib": [0.007],
            "attempted": len(times) + failed, "failed": failed,
            "elements": elements * len(times), "compile_s": [0.5, 0.7, 0.6],
            "reported": [0.1], "peak_rss_mb": 10.0}


class Tail(unittest.TestCase):
    def test_highest_rank_with_ten_beyond(self):
        self.assertEqual(run.tail(list(range(100, 0, -1))), (90, 90.0, 10, 100))

    def test_percentile_follows_sample_count(self):
        self.assertEqual(run.tail(list(range(1, 26))), (15, 60.0, 10, 25))

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(run.tail([3, 1, 2]), (3, 100.0, 0, 3))


class Summary(unittest.TestCase):
    def test_metrics_of_a_record(self):
        values, info = run.summary(record([1.0] * 15 + [2.0] * 15, failed=2), [3.0, 1.0, 2.0])
        self.assertEqual(info["jobs"], 30)
        self.assertEqual(info["tail_beyond"], 10)
        self.assertEqual(values["setup_s"], 2.0)
        self.assertEqual(values["job_p50_s"], 1.5)
        self.assertEqual(values["job_tail_s"], 2.0)
        self.assertEqual(values["throughput_elems_s"], 3000 / 45.0)
        self.assertEqual(values["compile_p50_s"], 0.6)
        self.assertEqual(values["ok_ratio"], 30 / 32)


if __name__ == "__main__":
    unittest.main()
