"""Single-source shortest path on a small dense graph (scipy replacement).

The reference resolves subsegmentations with
``scipy.sparse.csgraph.shortest_path(csr_matrix(dense), indices=0,
return_predecessors=True)`` (``/root/reference/nmalign/lib/align.py:214-215``).
scipy is unavailable here; this is a plain O(V^2) Dijkstra with the same
edge convention:

* a ZERO entry in the dense matrix is NOT an edge (csr_matrix drops
  zeros — this matters: the reference's perfect-score submatch edges get
  weight 0.0 and silently vanish from the graph, a quirk kept as-is);
* ``inf`` entries are edges of infinite weight (csr keeps them), which
  never relax anything — equivalent to absent;
* unreachable predecessors are reported as -9999 (scipy's sentinel; the
  caller clamps with ``max(0, pred)``).
"""

from __future__ import annotations

import numpy as np

NO_PRED = -9999


def shortest_path_from0(
    weights: np.ndarray, target: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Dijkstra from node 0 over a dense (V, V) matrix of non-negative
    weights.

    Returns ``(dist, pred)`` — float64 distances and int predecessor
    indices, matching scipy's ``shortest_path(..., indices=0,
    return_predecessors=True)`` conventions.  With a ``target`` the
    search stops once that node is settled: its ``dist``/``pred``, and
    those of every node on its predecessor chain, are then final and
    equal the full search's; other nodes' entries may not be.
    """
    v = weights.shape[0]
    edge = np.isfinite(weights) & (weights != 0.0)
    w = np.where(edge, weights, np.inf)

    dist = np.full(v, np.inf)
    pred = np.full(v, NO_PRED, dtype=np.int64)
    dist[0] = 0.0
    # dist of the nodes not settled yet, inf once settled: no weight is
    # negative, so a settled node's dist never improves
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
