"""Unit tests for the core forced-alignment operator (the fixture oracle).

The reference has no unit tests on ``match`` (acknowledged at
``/root/reference/tests/test_all.py:159``); these are the unit tests the
SURVEY §5.2 plan calls for: identity, permutation (monotonicity), noise +
normalization, merged lines triggering splits, cutoff paths, guards.
"""

import numpy as np
import pytest

from nmalign_ray.align import AlignConfig, match

# The reference test-suite's historical-orthography normalization map
# (/root/reference/tests/test_all.py:16-26 shape: pattern -> replacement).
NRM = {
    "ſ": "s",
    "aͤ": "ä",
    "oͤ": "ö",
    "uͤ": "ü",
    "Aͤ": "Ä",
    "Oͤ": "Ö",
    "Uͤ": "Ü",
    "⸗": "-",
    " *\n": " ",
}

LINES = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "how vexingly quick daft zebras jump",
    "sphinx of black quartz judge my vow",
    "the five boxing wizards jump quickly",
]


class TestIdentity:
    def test_identical_lists(self):
        res, scores = match(LINES, LINES)
        assert res.tolist() == list(range(len(LINES)))
        assert np.allclose(scores, 1.0)

    def test_identical_with_splits_enabled(self):
        res, scores = match(LINES, LINES, try_subseg=True)
        idx, beg, end = res
        assert idx.tolist() == list(range(len(LINES)))
        assert (beg == -1).all() and (end == -1).all()


class TestMonotonicity:
    def test_permuted_neighbors_still_resolve(self):
        l2 = [LINES[1], LINES[0], LINES[2], LINES[4], LINES[3]]
        res, scores = match(LINES, l2)
        assert res.tolist() == [1, 0, 2, 4, 3]
        assert np.allclose(scores, 1.0)

    def test_near_duplicates_prefer_in_order_assignment(self):
        # two nearly identical lines: the monotonicity bonus must keep them
        # in reading order once neighbors are pinned
        l1 = ["alpha bravo charlie", "delta echo foxtrot", "alpha bravo charlies"]
        l2 = ["alpha bravo charlie", "delta echo foxtrot", "alpha bravo charlies"]
        res, _ = match(l1, l2)
        assert res.tolist() == [0, 1, 2]


class TestNormalization:
    def test_historic_glyphs_score_one_after_normalization(self):
        l1 = ["sind die süßen Wörter"]
        l2 = ["ſind die suͤßen Woͤrter"]
        res, scores = match(l1, l2, normalization=NRM)
        assert res.tolist() == [0]
        assert scores[0] == pytest.approx(1.0)

    def test_without_normalization_score_below_one(self):
        l1 = ["sind die süßen Wörter"]
        l2 = ["ſind die suͤßen Woͤrter"]
        _, scores = match(l1, l2)
        assert scores[0] < 1.0

    def test_output_not_normalized(self):
        # normalization affects matching only; indices returned, raw strings
        # stay the caller's business (ocrd-tool.json:20 semantics)
        res, _ = match(["abc"], ["ABC"], normalization={"[A-Z]": "x", "[a-c]": "x"})
        assert res.tolist() == [0]


class TestSplits:
    def test_merged_noisy_segment_is_split(self):
        l1 = [
            "the quick brown fox jumps over the lazy dog",
            "pack my box with five dozen liquor jugs",
            "how vexingly quick daft zebras jump",
        ]
        # noisy concatenation (as the reference corpus has): typos keep the
        # partial scores below 100 so the split edges survive (see quirk test)
        merged = "the quick brawn fox jumps ower the lazy dog " \
                 "pack my b0x with five dozen liquor jugs"
        l2 = [merged, l1[2]]
        res, scores = match(l1, l2, try_subseg=True)
        idx, beg, end = res
        assert idx.tolist() == [0, 0, 1]
        # both sub-matches carry slice positions into the merged segment
        assert beg[0] == 0 and end[0] <= len(merged)
        assert beg[1] >= end[0] - 1  # second part starts after the first
        assert beg[2] == -1 and end[2] == -1  # whole-segment match keeps -1
        assert (scores > 0.8).all()

    def test_perfectly_merged_segment_does_not_split(self):
        # Reference quirk, reproduced on purpose: a PERFECT submatch gets
        # edge weight (1 - 100/100) * len == 0.0, and csr_matrix drops zero
        # entries — the edge vanishes, the split fails, and the greedy loop
        # falls back to a single whole-segment pair
        # (/root/reference/nmalign/lib/align.py:209-214).
        l1 = [
            "the quick brown fox jumps over the lazy dog",
            "pack my box with five dozen liquor jugs",
        ]
        l2 = [l1[0] + " " + l1[1]]
        res, _ = match(l1, l2, try_subseg=True)
        idx, beg, end = res
        assert (idx == 0).sum() == 1
        assert (idx == -1).sum() == 1

    def test_without_splits_merged_segment_matches_once(self):
        l1 = ["the quick brown fox jumps over the lazy dog",
              "pack my box with five dozen liquor jugs"]
        l2 = [l1[0] + " " + l1[1]]
        res, scores = match(l1, l2)
        assert (res == 0).sum() == 1  # only one side-1 line wins the segment
        assert (res == -1).sum() == 1


class TestCutoff:
    def test_cutoff_breaks_without_splits(self):
        l1 = ["aaaa bbbb cccc", "zzzz yyyy xxxx"]
        l2 = ["aaaa bbbb cccc", "0000 1111 2222"]
        res, scores = match(l1, l2, cutoff=0.5)
        assert res.tolist() == [0, -1]
        assert scores[1] == 0.0

    def test_unmatched_short_lines(self):
        # the reference permits unmatched only for short (<=4 char) lines
        l1 = ["the quick brown fox jumps over the lazy dog", "ix"]
        l2 = ["the quick brown fox jumps over the lazy dog"]
        res, _ = match(l1, l2, cutoff=0.5)
        assert res.tolist() == [0, -1]


class TestGuards:
    def test_empty_sides_raise(self):
        with pytest.raises(ValueError):
            match([], ["a"])
        with pytest.raises(ValueError):
            match(["a"], [])

    def test_config_object_equivalent(self):
        cfg = AlignConfig(normalization=NRM, cutoff=0.3, try_subseg=True)
        r1, s1 = match(LINES, LINES, config=cfg)
        r2, s2 = match(LINES, LINES, normalization=NRM, cutoff=0.3, try_subseg=True)
        assert np.array_equal(r1, r2) and np.array_equal(s1, s2)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        l1 = LINES
        l2 = [s.replace("o", "0") for s in LINES[::-1]]
        a = match(l1, l2, try_subseg=True)
        b = match(l1, l2, try_subseg=True)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_scores_within_unit_interval(self):
        l2 = [s[3:] + "xy" for s in LINES]
        _, scores = match(LINES, l2)
        assert ((scores >= 0) & (scores <= 1)).all()


class TestReviewRegressions:
    def test_nfkc_lengthening_segment_does_not_crash(self):
        # NFKC expands '…' -> '...' so processed positions can exceed the
        # raw segment length; the reference would IndexError here — the
        # engine clamps both slice ends to the raw string instead
        l1 = [
            "erste zeile mit einigen worten darin…",
            "zweite zeile mit anderen worten dabei…",
        ]
        merged = "erste zeile mit einigcn worten darin… " \
                 "zweite zcile mit anderen worten dabei…"
        res, scores = match(l1, [merged], try_subseg=True)
        idx, beg, end = res
        assert (idx >= -1).all()
        for i in range(len(l1)):
            if beg[i] >= 0:
                assert 0 <= beg[i] <= end[i] <= len(merged)


class TestMemoryBound:
    """A long segment costs memory in proportion to its length: the
    subsegmentation search builds no (len + 1)^2 matrix, and the kernels
    hold no array that grows with length squared."""

    SEGMENT_CHARS = 30_000
    PEAK_MIB = 32

    def test_long_segment_peak_is_bounded(self):
        import tracemalloc

        from nmalign_ray.corpus import _corrupt, _sentence

        rng = np.random.default_rng(0)
        lines = [f"zeile {k:02d} " + _sentence(rng) for k in range(40)]
        parts = []
        while sum(map(len, parts)) + len(parts) < self.SEGMENT_CHARS:
            parts.append(_corrupt(lines[len(parts) % len(lines)], rng))
        seg = " ".join(parts)[: self.SEGMENT_CHARS]
        tracemalloc.start()
        try:
            res, _ = match(lines, [seg, "x"], try_subseg=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res[0] == 0).sum() > 1  # the segment was split
        assert peak <= self.PEAK_MIB * 2**20, f"peak {peak / 2**20:.0f} MiB"
