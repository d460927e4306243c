"""Unit tests for the vendored fuzzy kernels against brute-force DP oracles."""

import random

import numpy as np
import pytest

from nmalign_ray.fuzzy import (
    indel_distance,
    indel_ratio,
    levenshtein_cdist,
    levenshtein_distance,
    partial_ratio,
    partial_ratio_alignment,
)
from align_oracles import shortest_path_dense
from nmalign_ray.align.graph import shortest_path_from0


def brute_levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def brute_indel(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            best = min(prev[j] + 1, cur[-1] + 1)
            if ca == cb:
                best = min(best, prev[j - 1])
            cur.append(best)
        prev = cur
    return prev[-1]


def random_strings(rng, n, alphabet="abcdef ", maxlen=30):
    out = []
    for _ in range(n):
        k = rng.randrange(0, maxlen)
        out.append("".join(rng.choice(alphabet) for _ in range(k)))
    return out


class TestLevenshtein:
    def test_against_brute_force(self):
        rng = random.Random(7)
        strs = random_strings(rng, 40)
        for _ in range(200):
            a, b = rng.choice(strs), rng.choice(strs)
            assert levenshtein_distance(a, b) == brute_levenshtein(a, b)

    def test_cdist_values_and_dtype(self):
        rng = random.Random(11)
        l1 = random_strings(rng, 12)
        l2 = random_strings(rng, 9)
        sim = levenshtein_cdist(l1, l2)
        assert sim.shape == (12, 9) and sim.dtype == np.float32
        for i, a in enumerate(l1):
            for j, b in enumerate(l2):
                denom = max(len(a), len(b))
                want = 1.0 if denom == 0 else 1.0 - brute_levenshtein(a, b) / denom
                assert sim[i, j] == pytest.approx(want, abs=1e-6)

    def test_cdist_cutoff_zeroes(self):
        sim = levenshtein_cdist(["abcd", "zzzz"], ["abcd"], score_cutoff=0.9)
        assert sim[0, 0] == 1.0
        assert sim[1, 0] == 0.0

    def test_processor_applied_both_sides(self):
        sim = levenshtein_cdist(["AB"], ["ab"], processor=str.lower)
        assert sim[0, 0] == 1.0

    def test_empty_strings(self):
        sim = levenshtein_cdist(["", "a"], ["", "ab"])
        assert sim[0, 0] == 1.0  # both empty -> similarity 1 (rapidfuzz semantics)
        assert sim[1, 0] == 0.0
        assert sim[0, 1] == 0.0
        assert sim[1, 1] == pytest.approx(0.5)

    def test_unicode(self):
        assert levenshtein_distance("Aufklärung", "Aufklaͤrung") == 2
        assert levenshtein_distance("ſind", "sind") == 1


class TestIndel:
    def test_against_brute_force(self):
        rng = random.Random(3)
        strs = random_strings(rng, 30)
        for _ in range(150):
            a, b = rng.choice(strs), rng.choice(strs)
            assert indel_distance(a, b) == brute_indel(a, b)

    def test_ratio(self):
        assert indel_ratio("abc", "abc") == 100.0
        assert indel_ratio("", "") == 100.0
        assert indel_ratio("abc", "") == 0.0
        # "this is a test" vs "this is a test!" -> 2*14/(14+15)
        assert indel_ratio("this is a test", "this is a test!") == pytest.approx(
            100 * (1 - 1 / 29)
        )


class TestPartialRatio:
    def test_exact_substring_scores_100(self):
        assert partial_ratio("test", "this is a test!") == 100.0
        res = partial_ratio_alignment("test", "xx test yy")
        assert res.score == 100.0
        assert "test" in "xx test yy"[res.dest_start : res.dest_end]

    def test_equal_strings(self):
        assert partial_ratio("hello world", "hello world") == 100.0

    def test_empty_needle(self):
        assert partial_ratio("", "abc") == 0.0
        assert partial_ratio("", "") == 100.0

    def test_swapped_orientation(self):
        # needle longer than haystack: dest positions must index s2
        res = partial_ratio_alignment("this is a long needle", "needle")
        assert 0 <= res.dest_start <= res.dest_end <= len("needle")

    def test_score_upper_bounds_windowed_ratio(self):
        rng = random.Random(5)
        for _ in range(50):
            a = "".join(rng.choice("abcd ") for _ in range(rng.randrange(1, 12)))
            b = "".join(rng.choice("abcd ") for _ in range(rng.randrange(1, 20)))
            score = partial_ratio(a, b)
            short, long_ = (a, b) if len(a) <= len(b) else (b, a)
            brute = max(
                (
                    100 * (1 - brute_indel(short, long_[i:j]) / (len(short) + j - i))
                    for i in range(len(long_) + 1)
                    for j in range(i, len(long_) + 1)
                    if len(short) + j - i > 0
                ),
                default=100.0,
            )
            # the windowed scan considers a subset of all substrings
            assert score <= brute + 1e-9

    def test_processor(self):
        res = partial_ratio_alignment("TEST", "xx test yy", processor=str.lower)
        assert res.score == 100.0


class TestShortestPath:
    """The dense oracle of the subsegmentation search."""

    def test_simple_chain(self):
        w = np.full((4, 4), np.inf)
        w[0, 1] = 1.0
        w[1, 2] = 2.0
        w[2, 3] = 1.0
        w[0, 3] = 10.0
        dist, pred = shortest_path_dense(w)
        assert dist[3] == 4.0
        assert pred[3] == 2 and pred[2] == 1 and pred[1] == 0

    def test_zero_entries_are_not_edges(self):
        w = np.full((3, 3), np.inf)
        w[0, 1] = 0.0  # csr_matrix drops explicit zeros -> no edge
        w[0, 2] = 5.0
        w[1, 2] = 1.0
        dist, pred = shortest_path_dense(w)
        assert np.isinf(dist[1])
        assert dist[2] == 5.0

    def test_unreachable_pred_sentinel(self):
        w = np.full((2, 2), np.inf)
        dist, pred = shortest_path_dense(w)
        assert pred[1] == -9999


class TestGapShortestPath:
    """The subsegmentation search: gap edges |j - i| between all nodes,
    replaced by the given edges; the cases of the dense oracle above."""

    def test_simple_chain(self):
        dist, pred = shortest_path_from0(4, {(0, 1): 0.5, (1, 3): 0.5})
        assert dist.tolist() == [0.0, 0.5, 1.5, 1.0]
        assert pred[3] == 1 and pred[2] == 1 and pred[1] == 0

    def test_zero_weights_are_not_edges(self):
        # the zero replaces the gap edge 0 -> 1, and is no edge itself
        dist, pred = shortest_path_from0(3, {(0, 1): 0.0})
        assert dist[1] == 3.0 and pred[1] == 2
        assert dist[2] == 2.0 and pred[2] == 0

    def test_unreachable_pred_sentinel(self):
        dist, pred = shortest_path_from0(2, {(0, 1): 0.0})
        assert np.isinf(dist[1])
        assert pred[1] == -9999

    def test_stops_at_target(self):
        dist, pred = shortest_path_from0(5, {(0, 4): 1.0}, target=4)
        assert dist[4] == 1.0 and pred[4] == 0
        # node 3 is not final: the full search reaches it through node 4
        assert dist[3] == 3.0 and pred[3] == 0
        full, full_pred = shortest_path_from0(5, {(0, 4): 1.0})
        assert full[3] == 2.0 and full_pred[3] == 4


class TestCdistMany:
    """levenshtein_cdist_many must equal per-job levenshtein_cdist
    BITWISE — it is substituted under every aligner batch, and the family
    hash oracles assume the substitution is invisible."""

    def _rstr(self, rng, maxlen):
        return "".join(
            rng.choice("abcdefgh ſäöü⸗") for _ in range(rng.randint(0, maxlen)))

    def test_matches_per_job_bitwise(self):
        from nmalign_ray.fuzzy.levenshtein import (
            levenshtein_cdist,
            levenshtein_cdist_many,
        )

        rng = random.Random(7)
        for trial in range(60):
            jobs = []
            for _ in range(rng.randint(0, 6)):
                n, m = rng.randint(0, 9), rng.randint(0, 9)
                # 70/120 exercise the both-sides->row-DP fallback;
                # 5/30 stay in the paired-Myers word
                maxlen = rng.choice([5, 30, 70, 120])
                jobs.append((
                    [self._rstr(rng, maxlen) for _ in range(n)],
                    [self._rstr(rng, maxlen) for _ in range(m)],
                ))
            cutoff = rng.choice([None, 0.0, 0.4, 0.7])
            batched = levenshtein_cdist_many(jobs, score_cutoff=cutoff)
            assert len(batched) == len(jobs)
            for d, (l1, l2) in enumerate(jobs):
                assert batched[d].shape == (len(l1), len(l2))
                assert batched[d].dtype == np.float32
                if len(l1) and len(l2):
                    single = levenshtein_cdist(l1, l2, score_cutoff=cutoff)
                    assert np.array_equal(batched[d], single), (trial, d)

    def test_processor_applied_per_string(self):
        from nmalign_ray.fuzzy.levenshtein import (
            levenshtein_cdist,
            levenshtein_cdist_many,
        )

        jobs = [(["ABC", "zz"], ["abc", "zZ "])]
        batched = levenshtein_cdist_many(jobs, processor=str.lower)
        single = levenshtein_cdist(*jobs[0], processor=str.lower)
        assert np.array_equal(batched[0], single)

    def test_empty_jobs_and_sides(self):
        from nmalign_ray.fuzzy.levenshtein import levenshtein_cdist_many

        outs = levenshtein_cdist_many([([], ["a"]), (["b"], []), ([], [])])
        assert [o.shape for o in outs] == [(0, 1), (1, 0), (0, 0)]
        assert levenshtein_cdist_many([]) == []


class TestPartialRatioMany:
    """The batched window search must be pair-for-pair identical to the
    scalar form — the merged-family hash oracle rides on these windows."""

    @staticmethod
    def _assert_same(pairs):
        from nmalign_ray.fuzzy.partial import partial_ratio_alignment_many

        batched = partial_ratio_alignment_many(pairs)
        for (a, b), m in zip(pairs, batched):
            s = partial_ratio_alignment(a, b)
            assert (
                s.score, s.src_start, s.src_end, s.dest_start, s.dest_end
            ) == (
                m.score, m.src_start, m.src_end, m.dest_start, m.dest_end
            ), (a, b)

    def test_fuzz_matches_scalar(self):
        rng = random.Random(42)
        alph = "ab cdef"
        pairs = []
        for _ in range(400):
            la = rng.choice([0, 3, 10, 40, 80, 120])
            lb = rng.choice([0, 3, 10, 40, 80, 120])
            pairs.append((
                "".join(rng.choice(alph) for _ in range(rng.randrange(0, la + 1))),
                "".join(rng.choice(alph) for _ in range(rng.randrange(0, lb + 1))),
            ))
        self._assert_same(pairs)

    def test_equal_length_retry_and_fallback_classes(self):
        rng = random.Random(7)
        alph = "abc "
        pairs = []
        # equal lengths exercise the symmetric retry; >63 needles the DP fallback
        for n in (1, 2, 5, 17, 63, 64, 90):
            for _ in range(10):
                pairs.append((
                    "".join(rng.choice(alph) for _ in range(n)),
                    "".join(rng.choice(alph) for _ in range(n)),
                ))
        pairs += [("", ""), ("", "abc"), ("abc", ""), ("a" * 70, "a" * 5)]
        self._assert_same(pairs)
