"""Single-source shortest path over the subsegmentation graph (scipy
replacement).

The reference resolves subsegmentations with
``scipy.sparse.csgraph.shortest_path(csr_matrix(dense), indices=0,
return_predecessors=True)`` (``nmalign/lib/align.py:214-215``)
over a dense matrix of the segment's character boundaries: every pair
``i != j`` is joined by a gap edge of weight ``|j - i|``, and candidate
edges overwrite some of those cells.  scipy is unavailable here, and the
dense matrix alone would cost ``(len + 1)^2`` cells per segment.  This is
Dijkstra over the same graph that never builds it: a node's row of
weights is built when the node settles, from one ``|k|`` ramp and that
node's candidate edges, so a search holds O(nodes) bytes.  The edge
convention is csr's:

* a ZERO weight is NOT an edge (csr_matrix drops zeros — this matters:
  the reference's perfect-score submatch edges get weight 0.0 and
  silently vanish from the graph, together with the gap edge they
  overwrote; a quirk kept as-is);
* the diagonal and ``inf`` weights are no edges;
* unreachable predecessors are reported as -9999 (scipy's sentinel; the
  caller clamps with ``max(0, pred)``).
"""

from __future__ import annotations

import numpy as np

NO_PRED = -9999


def shortest_path_from0(
    nodes: int, edges: dict, target: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Dijkstra from node 0 over ``nodes`` boundaries joined by gap edges,
    where ``edges[i, j]`` (a non-negative weight) replaces the gap edge
    from ``i`` to ``j``.

    Returns ``(dist, pred)`` — float64 distances and int predecessor
    indices, matching scipy's ``shortest_path(..., indices=0,
    return_predecessors=True)`` over the dense matrix.  Each relaxation
    is the dense search's float addition, so both are bit-identical.
    With a ``target`` the search stops once that node is settled: its
    ``dist``/``pred``, and those of every node on its predecessor chain,
    are then final and equal the full search's; other nodes' entries may
    not be.
    """
    out: dict[int, list[tuple[int, float]]] = {}  # each node's edges
    for (i, j), w in edges.items():
        out.setdefault(i, []).append((j, w if w != 0.0 else np.inf))
    # ramp[nodes - 1 - u:][:nodes] is the gap row |k - u| of node u
    ramp = np.abs(np.arange(1 - nodes, nodes, dtype=np.float64))

    dist = np.full(nodes, np.inf)
    pred = np.full(nodes, NO_PRED, dtype=np.int64)
    dist[0] = 0.0
    # dist of the nodes not settled yet, inf once settled: no weight is
    # negative, so a settled node's dist never improves
    frontier = dist.copy()
    for _ in range(nodes):
        u = int(frontier.argmin())
        du = frontier[u]
        if not np.isfinite(du):
            break
        frontier[u] = np.inf
        if u == target:
            break
        nd = du + ramp[nodes - 1 - u:2 * nodes - 1 - u]
        nd[u] = np.inf
        for j, w in out.get(u, ()):
            nd[j] = du + w
        better = np.flatnonzero(nd < dist)
        if better.size:
            dist[better] = frontier[better] = nd[better]
            pred[better] = u
    return dist, pred
