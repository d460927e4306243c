"""The bit-parallel kernels against the row-DP oracles, on mixed lengths,
and the subsegmentation search against its dense-matrix oracle.

Each example puts strings of every word-boundary length (0, 1, 63, 64,
65, 127, 128, 129) and haystacks of up to 1 200 characters into ONE
kernel call, so one call mixes one-word and multi-word needles and short
and long haystacks: this pins the longest-first lane order and its
unpermute, and the carry from word to word.  The Levenshtein call also
mixes the lengths around ``LONG_NEEDLE`` and haystacks of up to 3 000
characters, so both needle choices and many word counts of the word
wavefront meet in it.  ``match_subseg`` is compared with the dense
``(len + 1)^2`` graph of ``tests/align_oracles.py`` bit for bit.  A
further test pins that the aligner's batching of chunks never changes
its output.
"""

import random

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from align_oracles import match_subseg_dense
from fuzzy_oracles import (
    indel_windows_dp,
    levenshtein_matrix_dp,
    partial_ratio_alignment_dp,
)
from test_fuzzy import brute_indel, brute_levenshtein
from nmalign_ray.align.core import make_preprocessor, match_subseg
from nmalign_ray.fuzzy.codec import encode
from nmalign_ray.fuzzy.indel import indel_distance_windows
from nmalign_ray.fuzzy.levenshtein import LONG_NEEDLE, levenshtein_cdist_many
from nmalign_ray.fuzzy.partial import partial_ratio_alignment_many

EDGE_LENGTHS = [0, 1, 63, 64, 65, 127, 128, 129]
ALPHABET = "abc d"


@st.composite
def needle_and_hay(draw):
    """A needle of an edge length and a haystack of an edge length or up
    to 1 200 chars; a long haystack embeds a noisy copy of the needle so
    that the LCS runs long and carries cross word boundaries."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def text(n):
        return "".join(rng.choice(ALPHABET) for _ in range(n))

    needle = text(draw(st.sampled_from(EDGE_LENGTHS)))
    if draw(st.booleans()):
        return needle, text(draw(st.sampled_from(EDGE_LENGTHS)))
    noisy = "".join(c if rng.random() > 0.1 else rng.choice(ALPHABET)
                    for c in needle)
    total = draw(st.integers(len(noisy), 1200))
    at = rng.randint(0, total - len(noisy))
    return needle, text(at) + noisy + text(total - len(noisy) - at)


def test_oracles_match_brute_force():
    rng = random.Random(3)
    strs = ["".join(rng.choice(ALPHABET) for _ in range(rng.randrange(20)))
            for _ in range(12)]
    dist = levenshtein_matrix_dp(strs, strs)
    assert dist.tolist() == [[brute_levenshtein(a, b) for b in strs]
                             for a in strs]
    for a in strs:
        for b in strs:
            zero = np.zeros(1, dtype=np.int64)
            got = indel_windows_dp(encode(a), encode(b), zero, zero + len(b))
            assert int(got[0]) == brute_indel(a, b)


# lengths at which _distances changes the needle: word boundaries, and
# the cut above which the longer string is the needle whatever its words
NEEDLE_EDGES = [0, 1, 63, 64, 65, 127, 128, 129,
                LONG_NEEDLE - 1, LONG_NEEDLE, LONG_NEEDLE + 1]


@st.composite
def cdist_jobs(draw):
    """One ``levenshtein_cdist_many`` job: ``l1`` strings of needle-edge
    lengths, and ``l2`` strings of needle-edge lengths or haystacks of up
    to 3 000 characters around a noisy copy of an ``l1`` string.  Either
    side can be the longer, so both orientations and every word count
    meet in one call."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def text(n):
        return "".join(rng.choice(ALPHABET) for _ in range(n))

    l1 = [text(draw(st.sampled_from(NEEDLE_EDGES)))
          for _ in range(draw(st.integers(1, 3)))]
    l2 = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            l2.append(text(draw(st.sampled_from(NEEDLE_EDGES))))
            continue
        noisy = "".join(c if rng.random() > 0.1 else rng.choice(ALPHABET)
                        for c in rng.choice(l1))
        total = draw(st.integers(len(noisy), 3000))
        at = rng.randint(0, total - len(noisy))
        l2.append(text(at) + noisy + text(total - len(noisy) - at))
    return l1, l2


@settings(max_examples=25, deadline=None)
@given(jobs=st.lists(cdist_jobs(), min_size=1, max_size=4))
def test_cdist_many_matches_row_dp(jobs):
    # the row-DP runs over l1, so the long haystacks go in l2
    for (l1, l2), sim in zip(jobs, levenshtein_cdist_many(jobs)):
        dist = levenshtein_matrix_dp(l1, l2)
        denom = np.maximum.outer([len(s) for s in l1], [len(s) for s in l2])
        want = np.where(denom > 0, 1.0 - dist / np.maximum(denom, 1),
                        1.0).astype(np.float32)
        assert np.array_equal(sim, want)


@settings(max_examples=25, deadline=None)
@given(pairs=st.lists(needle_and_hay(), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_indel_windows_match_row_dp(pairs, seed):
    rng = random.Random(seed)
    needles = [encode(a) for a, _ in pairs]
    hays = [encode(b) for _, b in pairs]
    job, starts, ends = [], [], []
    for j, hay in enumerate(hays):
        for _ in range(rng.randint(1, 6)):
            s = rng.randint(0, len(hay))
            job.append(j)
            starts.append(s)
            ends.append(rng.randint(s, len(hay)))
    job, starts, ends = (np.array(x, dtype=np.int64)
                         for x in (job, starts, ends))
    got = indel_distance_windows(needles, hays, job, starts, ends)
    for j in range(len(pairs)):
        sel = job == j
        assert np.array_equal(
            got[sel],
            indel_windows_dp(needles[j], hays[j], starts[sel], ends[sel]))


@settings(max_examples=20, deadline=None)
@given(pairs=st.lists(needle_and_hay(), min_size=1, max_size=3),
       same=st.lists(st.tuples(st.sampled_from(EDGE_LENGTHS[1:]),
                               st.integers(0, 2**32 - 1)), max_size=2))
def test_partial_ratio_many_matches_row_dp(pairs, same):
    # equal-length pairs take the swapped retry; flipped pairs the
    # needle-is-s2 orientation
    for n, seed in same:
        rng = random.Random(seed)
        pairs.append(tuple("".join(rng.choice(ALPHABET) for _ in range(n))
                           for _ in range(2)))
    pairs += [(b, a) for a, b in pairs[:1]]
    for (a, b), got in zip(pairs, partial_ratio_alignment_many(pairs)):
        want = partial_ratio_alignment_dp(a, b)
        assert (got.score, got.src_start, got.src_end, got.dest_start,
                got.dest_end) == (want.score, want.src_start, want.src_end,
                                  want.dest_start, want.dest_end)


def _long_segment_document(seed: int):
    """Reference lines over 63 chars; each of two candidates joins 12 of
    them, noised, into one segment of about 1 150 chars, with an image
    marker between the two."""
    from nmalign_ray.corpus import _corrupt, _sentence

    rng = np.random.default_rng(seed)
    doc_id = "doc-longseg"
    lines = [f"zeile {k:05d} " + _sentence(rng) + " " + _sentence(rng)
             for k in range(24)]
    assert min(len(t) for t in lines) > 63
    spans, refs, offset = [], [], 0
    for g in (0, 12):
        if g:
            marker = {"kind": "image", "text": "",
                      "media_ref": f"media://{doc_id}/{g}", "offset": offset}
            spans.append(dict(marker))
            refs.append(dict(marker))
            offset += 1
        spans.append({"kind": "text", "media_ref": "", "offset": offset,
                      "text": " ".join(_corrupt(t, rng)
                                       for t in lines[g:g + 12])})
        for t in lines[g:g + 12]:
            refs.append({"kind": "text", "text": t, "media_ref": "",
                         "offset": offset})
            offset += 1
    return doc_id, spans, refs


def test_aligner_batch_equals_chunk_by_chunk_and_oracle():
    from nmalign_ray.corpus import make_skewed_document
    from nmalign_ray.document import oracle_table
    from nmalign_ray.pipelines.checkpoint import _add_pid
    from nmalign_ray.schema import CORPUS_SCHEMA, EngineConfig
    from nmalign_ray.stages.aligner import AlignChunks
    from nmalign_ray.stages.extract_stage import extract_and_salt
    from nmalign_ray.stages.reassemble import reassemble_group

    salt_threshold = 16
    docs = [make_skewed_document(k, 5, 40) for k in range(2)]
    docs.insert(1, _long_segment_document(5))
    corpus = pa.Table.from_pydict(
        {"doc_id": [d[0] for d in docs], "spans": [d[1] for d in docs],
         "ref_spans": [d[2] for d in docs]}, schema=CORPUS_SCHEMA)
    chunks = extract_and_salt(_add_pid(corpus, 32), salt_threshold=salt_threshold)
    assert chunks.num_rows == 7  # 3 + 1 + 3 chunks in one batch
    assert max(len(t) for c in chunks["cand_text"].to_pylist()
               for t in c) > 1100

    config = EngineConfig().align
    aligner = AlignChunks(config)
    batched = aligner(chunks)
    one_by_one = pa.concat_tables(
        [aligner(chunks.slice(k, 1)) for k in range(chunks.num_rows)])
    assert batched.equals(one_by_one)

    oracle = oracle_table(corpus, config, salt_threshold=salt_threshold)
    doc_ids = batched["doc_id"].to_pylist()
    for row in oracle.to_pylist():
        mine = reassemble_group(batched.take(
            [k for k, d in enumerate(doc_ids) if d == row["doc_id"]]))
        assert mine.to_pylist() == [row]
    longseg = oracle.to_pylist()[1]
    # the long segments were split across their reference lines
    assert longseg["matched"] > 2


@settings(max_examples=10, deadline=None)
@given(pairs=st.lists(needle_and_hay(), min_size=2, max_size=5))
def test_partial_ratio_blocks_equal_one_pass(pairs):
    # blocks of a few windows give the results of one pass over all jobs
    import nmalign_ray.fuzzy.partial as partial

    one_pass = partial_ratio_alignment_many(pairs)
    saved, partial.BLOCK_WINDOWS = partial.BLOCK_WINDOWS, 1000
    try:
        blocked = partial_ratio_alignment_many(pairs)
    finally:
        partial.BLOCK_WINDOWS = saved
    assert blocked == one_pass


def test_partial_ratio_many_pinned_mixed_call():
    # one call mixes an empty needle, a job whose windows are all pruned
    # (no boundary character occurs in the needle), an equal-length pair
    # whose swapped retry wins, a flipped pair, and a non-ASCII needle
    pairs = [("", "abc"), ("xyz", "abcabc"), ("aaaad", "acbca"),
             ("", ""), ("ab", "zzabzz"), ("üöa", "xöüay"), ("bca", "ab")]
    want = [(0.0, 0, 0, 0, 0), (0.0, 0, 3, 0, 3),
            (100.0 * (1 - 3 / 7), 0, 2, 0, 5), (100.0, 0, 0, 0, 0),
            (100.0, 0, 2, 2, 4), (100.0 * (1 - 2 / 6), 0, 3, 1, 4),
            (100.0 * (1 - 2 / 6), 0, 1, 0, 2)]
    got = partial_ratio_alignment_many(pairs)
    assert [(g.score, g.src_start, g.src_end, g.dest_start, g.dest_end)
            for g in got] == want
    for (a, b), g in zip(pairs, got):
        d = partial_ratio_alignment_dp(a, b)
        assert (g.score, g.src_start, g.src_end, g.dest_start, g.dest_end) == (
            d.score, d.src_start, d.src_end, d.dest_start, d.dest_end)


SUBSEG_WORDS = ["ab", "ba", "abc", "cab", "aa", "b", "a", "bb"]


@st.composite
def subseg_cases(draw):
    """``match_subseg``'s inputs: 2-7 short reference lines, and a segment
    of some of them joined, with 15% of the characters dropped, noise
    words and a ``'…'`` (which NFKC lengthens, so a window can end past
    the raw segment)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    l1 = [" ".join(rng.choice(SUBSEG_WORDS) for _ in range(rng.randint(1, 4)))
          for _ in range(rng.randint(2, 7))]
    words = " ".join(rng.choice(l1) for _ in range(rng.randint(1, 6))).split()
    for _ in range(rng.randint(0, 3)):
        words.insert(rng.randint(0, len(words)),
                     rng.choice(["zz", "q", "xyx", "…"]))
    words.insert(rng.randint(0, len(words)), "…")
    seg2 = "".join(c for c in " ".join(words) if rng.random() >= 0.15)
    col_scores = np.array([rng.uniform(-0.2, 1.0) for _ in l1])
    return (l1, seg2, col_scores, draw(st.sampled_from([0, 0.1, 0.3])),
            draw(st.sampled_from([None, make_preprocessor(None)])))


@settings(max_examples=1000, deadline=None)
@given(subseg_cases())
def test_match_subseg_equals_dense_oracle(case):
    l1, seg2, col_scores, min_score, processor = case
    rows = np.arange(len(l1))
    got = match_subseg(l1, seg2, col_scores, rows, min_score, processor)
    want = match_subseg_dense(l1, seg2, col_scores, rows, min_score,
                              processor)
    assert [(r, b, e, float(s).hex()) for r, b, e, s in got] == [
        (r, b, e, float(s).hex()) for r, b, e, s in want]
