"""Kuhn's one-round 2-defective ``Delta^2``-edge-coloring (Section 5, stage 1).

Orient every edge towards its higher-ID endpoint.  Each vertex assigns its
outgoing edges distinct colors from ``{0, ..., Delta-1}`` and, independently,
its incoming edges distinct colors from the same range.  An edge's color is
the pair ``<i, j>``: ``i`` from its tail, ``j`` from its head.

At any vertex, two outgoing edges differ in ``i`` and two incoming edges
differ in ``j``, so at most one *other* incident edge can share an edge's
full pair — the coloring is 2-defective in the line graph, and each color
class is a disjoint union of paths and cycles (each vertex touches at most 2
class edges).  Everything is decided in one communication round with
``O(log n)``-bit messages (the exchanged IDs/indices), matching Lemma 5.2's
accounting.
"""

import numpy as np

__all__ = ["kuhn_defective_edge_coloring", "kuhn_defective_edge_arrays"]


def kuhn_defective_edge_coloring(graph, backend="auto"):
    """Return ``{(u, v): (i, j)}`` with ``u < v``, a 2-defective edge coloring.

    ``i`` is assigned by the lower-ID endpoint (tail of the orientation
    towards higher IDs), ``j`` by the higher-ID endpoint.  Colors are in
    ``range(Delta) x range(Delta)`` (``Delta^2`` pairs).  ``backend`` picks
    the execution tier (``auto``/``batch``/``reference``); the batch path
    computes the same counters with two sorts over the edge arrays and is
    bit-identical to the reference sweep.
    """
    if backend == "reference" or not hasattr(graph, "csr"):
        return _reference(graph)
    i, j = kuhn_defective_edge_arrays(graph)
    return dict(zip(graph.edges, zip(i.tolist(), j.tolist())))


def kuhn_defective_edge_arrays(graph):
    """The ``(i, j)`` pairs as two int64 arrays aligned with ``graph.edges``.

    The array form of :func:`kuhn_defective_edge_coloring`, used by the batch
    edge-coloring paths to skip the dict materialization.
    """
    csr = graph.csr()
    m = csr.edge_u.shape[0]
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ids = np.asarray(graph.ids, dtype=np.int64)
    swap = ids[csr.edge_u] > ids[csr.edge_v]
    tail = np.where(swap, csr.edge_v, csr.edge_u)
    head = np.where(swap, csr.edge_u, csr.edge_v)
    # Processing order: (tail id, head id) ascending — IDs are unique, so
    # equal-tail runs are contiguous and ``i`` is the rank within the run.
    order = np.lexsort((ids[head], ids[tail]))
    slots = np.arange(m, dtype=np.int64)
    i = slots - _run_starts(tail[order], slots)
    # ``j`` counts each head's incoming edges in the same processing order; a
    # stable sort by head keeps that order inside every head's run.
    by_head = np.argsort(head[order], kind="stable")
    rank_in_head = slots - _run_starts(head[order][by_head], slots)
    j = np.empty(m, dtype=np.int64)
    j[by_head] = rank_in_head
    # Undo the processing permutation so slot k describes graph.edges[k].
    i_aligned = np.empty(m, dtype=np.int64)
    j_aligned = np.empty(m, dtype=np.int64)
    i_aligned[order] = i
    j_aligned[order] = j
    return i_aligned, j_aligned


def _run_starts(values, slots):
    """Per-slot start index of the contiguous run of equal ``values``."""
    new_run = np.empty(values.shape[0], dtype=bool)
    new_run[0] = True
    np.not_equal(values[1:], values[:-1], out=new_run[1:])
    return np.maximum.accumulate(np.where(new_run, slots, 0))


def _reference(graph):
    ids = graph.ids
    colors = {}
    out_counter = [0] * graph.n
    in_counter = [0] * graph.n
    # Deterministic processing order: edges sorted by (tail id, head id) so
    # each vertex hands out 0, 1, 2, ... in a well-defined sequence.
    oriented = []
    for u, v in graph.edges:
        tail, head = (u, v) if ids[u] < ids[v] else (v, u)
        oriented.append((ids[tail], ids[head], tail, head, (u, v) if u < v else (v, u)))
    for _, _, tail, head, key in sorted(oriented):
        i = out_counter[tail]
        out_counter[tail] += 1
        j = in_counter[head]
        in_counter[head] += 1
        colors[key] = (i, j)
    return colors
