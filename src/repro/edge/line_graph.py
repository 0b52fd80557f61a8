"""Line-graph utilities.

Edge-coloring a graph ``G`` is vertex-coloring its line graph ``L(G)``:
every edge becomes a node, incident edges become adjacent.  In the LOCAL
model the reduction is free; in CONGEST it is not (which is why Section 5
works on edges directly), but the *simulation* is identical either way, so we
run our vertex stages on ``L(G)`` while accounting for bits as the real
two-endpoint protocol would.
"""

import numpy as np

from repro.runtime.graph import StaticGraph

__all__ = ["build_line_graph"]


def build_line_graph(graph, backend="auto"):
    """Return ``(line_graph, edge_index)`` for the given StaticGraph.

    ``line_graph`` has one vertex per edge of ``graph`` (in ``graph.edges``
    order); two are adjacent iff the edges share an endpoint.  ``edge_index``
    maps each original edge ``(u, v)`` (``u < v``) to its line-graph vertex.

    The line graph's maximum degree is at most ``2 * Delta - 2``.  The batch
    backend generates the incidence pairs with array ops (two simple edges
    share at most one endpoint, so every line edge is produced exactly once
    and the resulting :class:`StaticGraph` is identical).
    """
    edges = graph.edges
    edge_index = {edge: i for i, edge in enumerate(edges)}
    if backend != "reference" and hasattr(graph, "csr") and edges:
        line_edges = _line_edges_batch(graph.csr())
    else:
        incident = [[] for _ in range(graph.n)]
        for idx, (u, v) in enumerate(edges):
            incident[u].append(idx)
            incident[v].append(idx)
        line_edges = set()
        for around in incident:
            for i in range(len(around)):
                for j in range(i + 1, len(around)):
                    a, b = around[i], around[j]
                    line_edges.add((a, b) if a < b else (b, a))
        line_edges = sorted(line_edges)
    line_graph = StaticGraph(len(edges), line_edges)
    return line_graph, edge_index


def _line_edges_batch(csr):
    """All unordered pairs of edges sharing an endpoint, as an (L, 2) array."""
    m = csr.edge_u.shape[0]
    vert = np.concatenate([csr.edge_u, csr.edge_v])
    eidx = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    order = np.argsort(vert, kind="stable")
    grouped = eidx[order]
    vert = vert[order]
    slots = np.arange(vert.shape[0], dtype=np.int64)
    new_run = np.empty(vert.shape[0], dtype=bool)
    new_run[0] = True
    np.not_equal(vert[1:], vert[:-1], out=new_run[1:])
    starts = np.maximum.accumulate(np.where(new_run, slots, 0))
    boundary = np.nonzero(new_run)[0]
    sizes = np.diff(np.append(boundary, vert.shape[0]))
    run_len = np.repeat(sizes, sizes)
    offset = slots - starts
    rep = run_len - 1 - offset  # partners after this slot in its run
    total = int(rep.sum())
    if total == 0:
        return np.empty((0, 2), dtype=np.int64)
    first_pos = np.repeat(slots, rep)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(rep) - rep, rep
    )
    second_pos = first_pos + 1 + within
    a = grouped[first_pos]
    b = grouped[second_pos]
    pairs = np.empty((total, 2), dtype=np.int64)
    np.minimum(a, b, out=pairs[:, 0])
    np.maximum(a, b, out=pairs[:, 1])
    return pairs
