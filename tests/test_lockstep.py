"""``match_many`` (the lock-step greedy loop of the aligner kernel)
against ``match`` (the per-chunk loop of the oracle), bit for bit.

One call mixes chunk shapes from 1x1 to 40x40, duplicate and empty
strings, ``'…'`` (which NFKC lengthens to three characters, so a
subsegmentation position can pass the raw length), merged lines long
enough to be split, every cutoff path and both ``try_subseg`` settings.  Also here: the coverage table
against the scalar expression, the loud preconditions of both entry
points, the size groups, and the early exit of the subsegmentation
shortest path.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nmalign_ray.align.core import (
    GROUP_CELLS,
    AlignConfig,
    _coverage,
    _lockstep_groups,
    make_preprocessor,
    match,
    match_many,
)
from align_oracles import gap_matrix, shortest_path_dense
from nmalign_ray.align.graph import shortest_path_from0
from nmalign_ray.fuzzy.levenshtein import levenshtein_cdist_many

WORDS = ["ab", "cd", "efg", "ſab", "…", "äo", "abc", "dd", "gfe"]


def _line(rng, pool):
    """A line: often one of ``pool`` (duplicates), sometimes empty."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    if rng.random() < 0.08:
        return ""
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 5)))


def _noisy(s, rng):
    return "".join(c if rng.random() > 0.1 else rng.choice("ax ") for c in s)


def _chunk(rng, n1, n2):
    """``(l1, l2)``: l2 holds noisy copies of l1 lines, runs of several
    l1 lines merged into one segment, and lines of its own."""
    l1 = []
    for _ in range(n1):
        l1.append(_line(rng, l1))
    l2 = []
    for _ in range(n2):
        roll = rng.random()
        if roll < 0.4:
            l2.append(_noisy(rng.choice(l1), rng))
        elif roll < 0.7:
            lo = rng.randrange(n1)
            l2.append(_noisy(" ".join(l1[lo:lo + rng.randint(2, 5)]), rng))
        else:
            l2.append(_line(rng, l2))
    return l1, l2


@st.composite
def calls(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    side = st.one_of(st.integers(1, 6), st.integers(1, 40))
    jobs = [_chunk(rng, draw(side), draw(side))
            for _ in range(draw(st.integers(1, 6)))]
    config = AlignConfig(
        normalization=draw(st.sampled_from([None, {"ſ": "s"}])),
        cutoff=draw(st.sampled_from([None, 0.5, 0.95])),
        try_subseg=draw(st.booleans()),
    )
    return jobs, config


def _assert_same_as_match(jobs, config):
    sims = levenshtein_cdist_many(
        jobs, score_cutoff=config.cutoff,
        processor=make_preprocessor(config.normalization))
    got = match_many(jobs, sims, config)
    assert len(got) == len(jobs)
    for (l1, l2), (res, scores) in zip(jobs, got):
        want_res, want_scores = match(l1, l2, config=config)
        assert res.dtype == want_res.dtype and np.array_equal(res, want_res)
        assert scores.dtype == want_scores.dtype
        assert scores.tobytes() == want_scores.tobytes()


MERGED = (
    ["the quick brown fox", "jumps over the lazy dog", "and runs … away"],
    ["the quick brown fox jumps over the lazy dog and runs … away", "dog"],
)


@settings(max_examples=120, deadline=None)
@given(calls())
@example(([MERGED, (["a"], ["a"])], AlignConfig(try_subseg=True)))
@example(([MERGED, (["ab", "ab"], ["ab"])],
          AlignConfig(try_subseg=True, cutoff=0.95)))
# a score of float32(0.95) is under the cutoff 0.95 (a float64 compare)
@example(([(["abcdefghijklmnopqrst"], ["abcdefghijklmnopqrsx"])],
          AlignConfig(cutoff=0.95)))
def test_match_many_equals_match(call):
    _assert_same_as_match(*call)


def test_match_many_equals_match_on_corpus_chunks():
    """Every chunk of a generated corpus (every document family) in one
    call, as the aligner kernel makes it."""
    from nmalign_ray.corpus import generate_corpus
    from nmalign_ray.pipelines.checkpoint import _add_pid
    from nmalign_ray.schema import EngineConfig
    from nmalign_ray.stages.extract_stage import extract_and_salt

    config = EngineConfig().align
    chunks = extract_and_salt(_add_pid(generate_corpus(60, seed=3), 8))
    jobs = [(r, c) for r, c in zip(chunks["ref_text"].to_pylist(),
                                   chunks["cand_text"].to_pylist()) if r and c]
    assert len(jobs) > 50
    _assert_same_as_match(jobs, config)


def test_coverage_table_equals_scalar_expression():
    n_max = 1024
    table = _coverage(np.arange(1, n_max + 1), n_max)
    for n1 in range(1, n_max + 1):
        row = table[n1 - 1]
        for alive in range(1, n1 + 1):
            assigned_frac = 1.0 - alive / n1
            cov = 0.5 / (1.0 + np.exp(5.0 * (0.5 - assigned_frac)))
            assert row[alive].tobytes() == cov.tobytes(), (n1, alive)


class TestPreconditions:
    def test_match_many_rejects_misshaped_sim(self):
        jobs = [(["a"], ["a"]), (["a", "b"], ["a"])]
        sims = [np.ones((1, 1), np.float32), np.ones((2, 2), np.float32)]
        with pytest.raises(ValueError, match="shape"):
            match_many(jobs, sims, AlignConfig())
        with pytest.raises(ValueError):
            match_many(jobs, sims[:1], AlignConfig())

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    def test_match_many_rejects_non_finite_sim(self, bad):
        jobs = [(["a"], ["a"]), (["a", "b"], ["a", "b"])]
        sim = np.ones((2, 2), np.float32)
        sim[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            match_many(jobs, [np.ones((1, 1), np.float32), sim], AlignConfig())

    @pytest.mark.parametrize("l1, l2", [([], ["a"]), (["a"], [])])
    def test_empty_side(self, l1, l2):
        with pytest.raises(ValueError, match="non-empty"):
            match(l1, l2)
        with pytest.raises(ValueError, match="non-empty"):
            match_many([(["x"], ["x"]), (l1, l2)],
                       [np.ones((1, 1), np.float32),
                        np.zeros((len(l1), len(l2)), np.float32)],
                       AlignConfig())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 300), st.integers(1, 300)),
                min_size=1, max_size=40))
def test_groups_bound_padding(shapes):
    groups = _lockstep_groups(shapes)
    assert sorted(k for g in groups for k in g) == list(range(len(shapes)))
    for g in groups:
        rows = max(shapes[k][0] for k in g)
        cols = max(shapes[k][1] for k in g)
        real = sum(shapes[k][0] * shapes[k][1] for k in g)
        padded = len(g) * rows * cols
        assert len(g) == 1 or (padded <= GROUP_CELLS and padded <= 2 * real)


@st.composite
def weight_matrices(draw):
    """Dense non-negative weights as the subsegmentation graph has them:
    zeros (not edges), inf, ties, and unrelated i->j and j->i entries."""
    v = draw(st.integers(2, 24))
    cell = st.one_of(st.just(0.0), st.just(np.inf),
                     st.sampled_from([1.0, 2.0, 0.5]),
                     st.floats(0.0, 30.0, allow_nan=False))
    w = np.array(draw(st.lists(cell, min_size=v * v, max_size=v * v)),
                 dtype=np.float64).reshape(v, v)
    if draw(st.booleans()):
        # the gap prefill of match_subseg: every node reachable
        span = np.arange(v)
        gaps = np.abs(span[:, None] - span[None, :]).astype(np.float64)
        w = np.where(np.isinf(w) | (w == 0.0), gaps, w)
    np.fill_diagonal(w, np.inf)
    return w


def _dijkstra_reference(weights):
    """Textbook dense Dijkstra from node 0 with a visited mask, the same
    edge conventions (zero and inf are no edges) and tie order (lowest
    node first): the reference for the dense oracle."""
    v = weights.shape[0]
    w = np.where(np.isfinite(weights) & (weights != 0.0), weights, np.inf)
    dist = np.full(v, np.inf)
    pred = np.full(v, -9999, dtype=np.int64)
    dist[0] = 0.0
    visited = np.zeros(v, dtype=bool)
    for _ in range(v):
        d = np.where(visited, np.inf, dist)
        u = int(np.argmin(d))
        if not np.isfinite(d[u]):
            break
        visited[u] = True
        for x in range(v):
            if dist[u] + w[u, x] < dist[x]:
                dist[x] = dist[u] + w[u, x]
                pred[x] = u
    return dist, pred


@settings(max_examples=300, deadline=None)
@given(weight_matrices())
def test_shortest_path_equals_reference_and_stops_at_target(w):
    want_dist, want_pred = _dijkstra_reference(w)
    full_dist, full_pred = shortest_path_dense(w)
    assert full_dist.tobytes() == want_dist.tobytes()
    assert np.array_equal(full_pred, want_pred)
    target = w.shape[0] - 1
    dist, pred = shortest_path_dense(w, target=target)
    assert dist[target] == want_dist[target] or (
        np.isinf(dist[target]) and np.isinf(want_dist[target]))
    pos = target
    while pos > 0 and pred[pos] >= 0:
        assert pred[pos] == want_pred[pos]
        assert dist[pos] == want_dist[pos]
        pos = int(pred[pos])
    assert pred[pos] == want_pred[pos]


@st.composite
def gap_graphs(draw):
    """A subsegmentation graph: ``nodes`` boundaries and edges that
    replace some gap edges, with zero (no edge), inf, ties, self loops
    and backward edges."""
    nodes = draw(st.integers(1, 24))
    weight = st.one_of(st.just(0.0), st.just(np.inf),
                       st.sampled_from([1.0, 2.0, 0.5]),
                       st.floats(0.0, 30.0, allow_nan=False))
    node = st.integers(0, nodes - 1)
    return nodes, draw(st.dictionaries(st.tuples(node, node), weight,
                                       max_size=3 * nodes))


@settings(max_examples=300, deadline=None)
@given(gap_graphs())
def test_gap_shortest_path_equals_dense_oracle(graph):
    # bit for bit, with and without the stop at the last node: both run
    # the same relaxations in the same order
    nodes, edges = graph
    for target in (None, nodes - 1):
        got = shortest_path_from0(nodes, edges, target=target)
        want = shortest_path_dense(gap_matrix(nodes, edges), target=target)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
