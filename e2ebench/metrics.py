"""The benchmark's own maths: percentiles, span self time, open-loop
latency, failure counting and the search-health ratios derived from
the round log. Pure functions; test_metrics.py covers them."""

import hashlib
import json
import math


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median_of_percentiles(groups, q):
    """Median over groups of each group's nearest-rank q-quantile.
    A burst of host noise that hits a few groups, or a mix of fast and
    slow groups that drifts from run to run, moves it less than it
    moves the q-quantile of all samples pooled."""
    ordered = sorted(percentile(g, q) for g in groups)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else \
        (ordered[mid - 1] + ordered[mid]) / 2


def samples_beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank
    q-quantile's position."""
    return n - max(1, math.ceil(q * n))


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by its direct children on the same thread.

    spans: dicts with 'ts', 'dur', 'tid' (integer microseconds).
    Returns a list of (span, self_us, parent_index or None) in input
    order. A child that sticks out of its parent (microsecond
    rounding) is clipped to the parent's interval.
    """
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]['tid'], spans[i]['ts'],
                                  -spans[i]['dur']))
    parent = [None] * len(spans)
    children = [[] for _ in spans]
    stack = []
    for i in order:
        s = spans[i]
        while stack and (spans[stack[-1]]['tid'] != s['tid'] or
                         spans[stack[-1]]['ts'] + spans[stack[-1]]['dur']
                         <= s['ts']):
            stack.pop()
        if stack:
            parent[i] = stack[-1]
            children[stack[-1]].append(i)
        stack.append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s['ts'], s['ts'] + s['dur']
        covered, reach = 0, lo
        for c in sorted(children[i], key=lambda c: spans[c]['ts']):
            start = max(spans[c]['ts'], reach)
            end = min(spans[c]['ts'] + spans[c]['dur'], hi)
            if end > start:
                covered += end - start
                reach = end
        out.append((s, s['dur'] - covered, parent[i]))
    return out


def open_loop(requests):
    """Latency (end - due) and queue wait (start - due) of open-loop
    requests, in the requests' time unit."""
    latency = [r['end_us'] - r['due_us'] for r in requests]
    queue = [r['start_us'] - r['due_us'] for r in requests]
    return latency, queue


def failed_frac(attempted, failed):
    """Failed operations over attempted ones."""
    if attempted <= 0:
        raise ValueError('no operation attempted')
    return failed / attempted


def over_limit(latencies, oks, limit):
    """Requests over the latency limit; a failed request counts as
    over whatever its latency."""
    return sum(1 for lat, ok in zip(latencies, oks)
               if not ok or lat > limit)


def rank_agreement(rounds):
    """Pairwise agreement between predicted and measured order of the
    candidates measured in the same round, pooled over rounds. Pairs
    tied on either side are skipped. None when no pair is ordered."""
    agree = total = 0
    for record in rounds:
        cands = record['candidates']
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                dp = cands[i]['predicted_sec'] - cands[j]['predicted_sec']
                dm = cands[i]['measured_sec'] - cands[j]['measured_sec']
                if dp == 0 or dm == 0:
                    continue
                total += 1
                agree += (dp > 0) == (dm > 0)
    return agree / total if total else None


def dup_score_frac(rounds):
    """Share of measured candidates whose predicted score exactly
    equals another candidate's in the same round."""
    dup = total = 0
    for record in rounds:
        scores = [c['predicted_sec'] for c in record['candidates']]
        total += len(scores)
        dup += sum(1 for s in scores if scores.count(s) > 1)
    return dup / total if total else 0.0


def round_log_digest(lines):
    """Digest of a round log's deterministic content (wall_ms is the
    one wall-clock field and is dropped)."""
    h = hashlib.sha256()
    for line in lines:
        record = json.loads(line)
        record.pop('wall_ms', None)
        h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()
