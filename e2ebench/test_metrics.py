"""Tests of the benchmark's own maths.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import unittest

import metrics as m


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))       # 1..100, shuffled below
        values = values[50:] + values[:50]
        self.assertEqual(m.percentile(values, 0.5), 50)
        self.assertEqual(m.percentile(values, 0.9), 90)
        self.assertEqual(m.percentile(values, 0.99), 99)
        self.assertEqual(m.percentile([7.0], 0.99), 7.0)

    def test_ten_samples_beyond(self):
        # p90 needs 100 samples and p99 1000 for ten to lie beyond.
        self.assertEqual(m.samples_beyond(100, 0.9), 10)
        self.assertEqual(m.samples_beyond(99, 0.9), 9)
        self.assertEqual(m.samples_beyond(105, 0.9), 10)
        self.assertEqual(m.samples_beyond(1000, 0.99), 10)
        self.assertEqual(m.samples_beyond(999, 0.99), 9)
        values = list(range(105))
        p90 = m.percentile(values, 0.9)
        self.assertEqual(sum(1 for v in values if v > p90), 10)

    def test_median_of_percentiles(self):
        # Spikes in one group set the pooled p99 but not the median
        # of the groups' p99s.
        calm = list(range(1, 101))
        spiky = calm[:95] + [1000] * 5
        self.assertEqual(m.percentile(calm + calm + spiky, 0.99), 1000)
        self.assertEqual(
            m.median_of_percentiles([calm, spiky, calm], 0.99), 99)
        self.assertEqual(
            m.median_of_percentiles([calm, [x + 10 for x in calm]], 0.5),
            55)


def span(name, ts, dur, tid=1):
    return {'name': name, 'ts': ts, 'dur': dur, 'tid': tid}


class SelfTimeTest(unittest.TestCase):
    def test_span_minus_covered_children(self):
        spans = [span('round', 0, 100), span('search', 10, 30),
                 span('rank', 20, 10), span('finetune', 50, 40)]
        got = {s['name']: (self_us, parent)
               for s, self_us, parent in m.self_times(spans)}
        self.assertEqual(got['round'], (100 - 30 - 40, None))
        self.assertEqual(got['search'], (20, 0))
        self.assertEqual(got['rank'], (10, 1))
        self.assertEqual(got['finetune'], (40, 0))
        # Self times of a tree add up to its root's wall time.
        self.assertEqual(sum(v[0] for v in got.values()), 100)

    def test_other_threads_are_not_children(self):
        spans = [span('round', 0, 100, tid=1),
                 span('worker', 10, 50, tid=2)]
        got = [(s['name'], self_us, parent)
               for s, self_us, parent in m.self_times(spans)]
        self.assertEqual(got, [('round', 100, None), ('worker', 50, None)])

    def test_child_sticking_out_is_clipped(self):
        spans = [span('round', 0, 100), span('late', 90, 20)]
        got = {s['name']: self_us for s, self_us, _ in m.self_times(spans)}
        self.assertEqual(got['round'], 90)

    def test_adjacent_span_is_a_sibling(self):
        spans = [span('a', 0, 10), span('b', 10, 10)]
        parents = [p for _, _, p in m.self_times(spans)]
        self.assertEqual(parents, [None, None])


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # The second request was due at 10 but waited behind the
        # first, which ran until 50.
        requests = [{'due_us': 0, 'start_us': 0, 'end_us': 50},
                    {'due_us': 10, 'start_us': 50, 'end_us': 55}]
        latency, queue = m.open_loop(requests)
        self.assertEqual(latency, [50, 45])
        self.assertEqual(queue, [0, 40])


class FailureTest(unittest.TestCase):
    def test_failed_frac(self):
        self.assertEqual(m.failed_frac(200, 0), 0.0)
        self.assertEqual(m.failed_frac(200, 3), 0.015)
        with self.assertRaises(ValueError):
            m.failed_frac(0, 0)

    def test_failed_request_counts_as_over_limit(self):
        self.assertEqual(
            m.over_limit([1, 200, 3, 4], [True, True, False, True], 100),
            2)


def round_record(pairs):
    return {'candidates': [{'predicted_sec': p, 'measured_sec': q}
                           for p, q in pairs]}


class SearchHealthTest(unittest.TestCase):
    def test_rank_agreement(self):
        rounds = [round_record([(1, 10), (2, 20), (3, 15)])]
        # Pairs: (1,2) agree, (1,3) agree, (2,3) disagree.
        self.assertAlmostEqual(m.rank_agreement(rounds), 2 / 3)
        # Pairs are only formed within a round; ties are skipped.
        rounds.append(round_record([(5, 1), (5, 2)]))
        self.assertAlmostEqual(m.rank_agreement(rounds), 2 / 3)
        self.assertIsNone(m.rank_agreement([round_record([(1, 1)])]))

    def test_dup_score_frac(self):
        rounds = [round_record([(1, 0), (1, 0), (2, 0), (3, 0)]),
                  round_record([(2, 0), (4, 0)])]
        # Only the two equal scores of the first round count; the 2 in
        # the second round matches a score of another round.
        self.assertAlmostEqual(m.dup_score_frac(rounds), 2 / 6)

    def test_digest_ignores_wall_time(self):
        a = json.dumps({'round': 0, 'clock_sec': 8.5, 'wall_ms': 1.0})
        b = json.dumps({'round': 0, 'clock_sec': 8.5, 'wall_ms': 2.0})
        c = json.dumps({'round': 0, 'clock_sec': 8.6, 'wall_ms': 1.0})
        self.assertEqual(m.round_log_digest([a]), m.round_log_digest([b]))
        self.assertNotEqual(m.round_log_digest([a]),
                            m.round_log_digest([c]))


if __name__ == '__main__':
    unittest.main()
