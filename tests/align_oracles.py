"""Dense-matrix oracles for the subsegmentation search of
``nmalign_ray.align``.

These are the forms the engine replaced: the reference's
``(len(seg2) + 1)^2`` gap-prefilled cost matrix with every candidate
edge written over its cell, and a Dijkstra over a dense ``(V, V)``
matrix with csr's edge convention (a zero or ``inf`` entry is no edge,
-9999 marks an unreachable predecessor).  They cost O(V^2) bytes, so the
tests run them on short segments only, and compare the engine's results
with theirs bit for bit.
"""

from __future__ import annotations

import numpy as np

from nmalign_ray.align.core import _subseg_candidates

NO_PRED = -9999


def shortest_path_dense(
    weights: np.ndarray, target: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Dijkstra from node 0 over a dense (V, V) matrix of non-negative
    weights; with a ``target`` the search stops once it is settled."""
    v = weights.shape[0]
    edge = np.isfinite(weights) & (weights != 0.0)
    w = np.where(edge, weights, np.inf)

    dist = np.full(v, np.inf)
    pred = np.full(v, NO_PRED, dtype=np.int64)
    dist[0] = 0.0
    frontier = dist.copy()
    for _ in range(v):
        u = int(frontier.argmin())
        du = frontier[u]
        if not np.isfinite(du):
            break
        frontier[u] = np.inf
        if u == target:
            break
        nd = du + w[u]
        better = np.flatnonzero(nd < dist)
        if better.size:
            dist[better] = frontier[better] = nd[better]
            pred[better] = u
    return dist, pred


def gap_matrix(nodes: int, edges: dict) -> np.ndarray:
    """The dense subsegmentation graph: ``|j - i|`` off the diagonal,
    ``inf`` on it, and each ``edges[i, j]`` written over its cell."""
    span = np.arange(nodes)
    costs = np.abs(span[:, None] - span[None, :]).astype(np.float64)
    np.fill_diagonal(costs, np.inf)
    for (i, j), w in edges.items():
        costs[i, j] = w
    return costs


def match_subseg_dense(l1, seg2, col_scores, col_rows, min_score=0,
                       processor=None):
    """``match_subseg`` over the dense cost and owner matrices."""
    cands = _subseg_candidates(l1, seg2, col_scores, col_rows, processor)
    if not cands:
        return []
    nodes = len(seg2) + 1
    costs = gap_matrix(nodes, {})
    owner = np.full((nodes, nodes), -1, dtype=np.int64)
    for row, start, end, cost in cands:
        costs[start, end] = cost
        owner[start, end] = row
    dist, pred = shortest_path_dense(costs, target=nodes - 1)
    score = (nodes - dist[-1]) / nodes
    if score <= min_score:
        return []
    chain = []
    pos = nodes - 1
    while pos > 0:
        prev = max(0, int(pred[pos]))
        edge_cost = dist[pos] - dist[prev]
        row = owner[prev, pos]
        if row >= 0:
            chain.append((int(row), prev, pos, 1.0 - edge_cost / (pos - prev)))
        pos = prev
    chain.reverse()
    for k in range(len(chain) - 1):
        r1, b1, e1, s1 = chain[k]
        r2, b2, e2, s2 = chain[k + 1]
        if e1 <= b2:
            continue
        if s1 > s2:
            chain[k + 1] = (r2, e1, e2, s2)
        else:
            chain[k] = (r1, b1, b2, s1)
    return chain
