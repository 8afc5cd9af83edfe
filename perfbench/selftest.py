"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers job generation, the self-time computation, the output checks
(a corrupted output or a wrong exit code must count as a failure) and
the tracer's counters.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import tempfile
import unittest
from pathlib import Path

import checks
import run
import workloads
from tracer import self_times


def _dist_out() -> str:
    """A correct `dist --n 2` line: the two trees with 2 edges give 2q and
    q^2 + q^3."""
    return json.dumps({"n": 2, "method": "recurrence", "poly": [[1, "2"], [2, "1"], [3, "1"]]}) + "\n"


def _golden(out: str, code: int = 0) -> dict:
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}


class JobGeneration(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for w in workloads.WORKLOADS:
            a = [j.key for j in workloads.jobs_for(w, 7)]
            b = [j.key for j in workloads.jobs_for(w, 7)]
            self.assertEqual(a, b)
            self.assertNotEqual(a, [j.key for j in workloads.jobs_for(w, 8)])

    def test_every_job_is_in_the_universe_and_has_a_golden_result(self):
        golden = run.load_golden()
        for w in workloads.WORKLOADS:
            universe = {j.key for j in workloads.universe(w)}
            for seed in range(20):
                for job in workloads.jobs_for(w, seed):
                    self.assertIn(job.key, universe)
                    self.assertTrue(job.key in golden, job.describe())

    def test_random_tree_and_labeler(self):
        rng = workloads.random.Random(1)
        for edges in (0, 1, 5, 40):
            enc = workloads.random_tree(rng, edges)
            self.assertEqual(len(enc), 2 * edges + 2)
            self.assertEqual(sum(workloads.tree_poly(enc).values()), edges)
        self.assertEqual(workloads.tree_poly("((()))"), {2: 1, 3: 1})
        self.assertEqual(workloads.tree_poly("(()())"), {1: 2})

    def test_three_partition_is_valid(self):
        for k in range(10):
            a, partition = workloads.three_partition(workloads.random.Random(k), 3, 20)
            self.assertEqual(sorted(i for t in partition for i in t), list(range(1, 10)))
            for triple in partition:
                self.assertEqual(sum(a[i - 1] for i in triple), 20)


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # root [0, 10] has children [1, 3] and [4, 9]; the second has a
        # child [5, 6] and a grandchild [5.5, 6] that must not count twice
        spans = [(0, 0.0, 10.0, -1), (1, 1.0, 3.0, 0), (1, 4.0, 9.0, 0),
                 (2, 5.0, 6.0, 2), (3, 5.5, 6.0, 3)]
        got = self_times(spans)
        for value, want in zip(got, [3.0, 2.0, 4.0, 0.5, 0.5]):
            self.assertAlmostEqual(value, want)

    def test_overlapping_children_are_covered_once(self):
        spans = [(0, 0.0, 4.0, -1), (1, 1.0, 3.0, 0), (1, 2.0, 5.0, 0)]
        self.assertAlmostEqual(self_times(spans)[0], 1.0)

    def test_tail_has_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 41)]
        self.assertEqual(run.tail(samples, 40), (30.0, 75.0))
        # a run cut to half its rounds keeps the planned percentile
        self.assertEqual(run.tail(samples[:20], 40), (15.0, 75.0))


class OutputChecks(unittest.TestCase):
    job = workloads._dist(2)

    def test_correct_output_passes(self):
        out = _dist_out()
        self.assertIsNone(checks.check_output(self.job, 0, out, _golden(out)))

    def test_corrupted_coefficient_fails_even_with_matching_golden(self):
        bad = _dist_out().replace('[3, "1"]', '[3, "2"]')
        self.assertIsNotNone(checks.check_output(self.job, 0, bad, _golden(bad)))
        self.assertIsNotNone(checks.check_output(self.job, 0, bad, _golden(_dist_out())))

    def test_wrong_exit_code_fails(self):
        out = _dist_out()
        self.assertIsNotNone(checks.check_output(self.job, 1, out, _golden(out)))
        self.assertIsNotNone(checks.check_output(self.job, None, out, _golden(out)))

    def test_missing_golden_fails(self):
        self.assertIsNotNone(checks.check_output(self.job, 0, _dist_out(), None))

    def test_disagreeing_methods_fail(self):
        a, b = workloads._dist(3, "enum", group="g"), workloads._dist(3, "rec", group="g")
        right = json.dumps({"n": 3, "method": "recurrence", "poly": [
            [1, "5"], [2, "2"], [3, "4"], [4, "2"], [5, "1"], [6, "1"]]}) + "\n"
        # same mass, first moment and top term: only the comparison catches it
        wrong = right.replace('[2, "2"], [3, "4"], [4, "2"]', '[2, "1"], [3, "6"], [4, "1"]')
        self.assertIsNone(checks.check_output(b, 0, wrong, _golden(wrong)))
        self.assertEqual(checks.check_groups([a, b], [right, right], [False, False]), [False, False])
        self.assertEqual(checks.check_groups([a, b], [right, wrong], [False, False]), [True, True])

    def test_invert_tree_must_give_the_polynomial(self):
        job = workloads._invert({2: 1, 3: 1})
        self.assertIsNone(checks.check_output(job, 0, "((()))\n", _golden("((()))\n")))
        self.assertIsNotNone(checks.check_output(job, 0, "(()())\n", _golden("(()())\n")))


class TracerCounters(unittest.TestCase):
    def test_counts_repeat_and_match_the_enumeration(self):
        if not (run.SRC / "avpoly").is_dir():
            self.skipTest("no avpoly source")
        job = workloads._dist(5, "enum")
        runner = run.Runner()
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            counts = []
            for i in range(2):
                trace = Path(tmp) / f"{i}.marshal"
                result = runner.run(job, trace)
                self.assertEqual(result.code, 0, result.err)
                with open(trace, "rb") as fh:
                    counts.append(marshal.load(fh)["counters"])
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["tree.enumerate_trees.yields"], checks.catalan(5))


if __name__ == "__main__":
    unittest.main()
