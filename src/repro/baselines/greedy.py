"""Centralized sequential greedy coloring — the correctness oracle.

Not a distributed algorithm: it exists so tests can compare distributed
results against the classical guarantee that greedy in any order uses at
most Delta + 1 colors.

The oracle is itself on the fast path now: sequential first-fit in order
``pi`` equals *wave-parallel* first-fit over the acyclic orientation that
directs every edge from its earlier endpoint (in ``pi``) to its later one.
A vertex is *ready* once all its earlier neighbors are colored; ready
vertices of one wave are pairwise non-adjacent (an edge between them would
make one the earlier neighbor of the other), so a whole wave can pick its
smallest free color from one boolean occupancy matrix — bit-identical to
the sequential sweep, in ``depth(pi)`` array rounds instead of ``n`` Python
steps.
"""

import numpy as np

__all__ = ["greedy_coloring"]


def greedy_coloring(graph, order=None, backend="auto"):
    """Greedy (Delta+1)-coloring in the given vertex order (default: 0..n-1).

    Returns a list of colors in ``range(Delta + 1)`` (entries stay ``None``
    for vertices a partial ``order`` never visits).  All backends produce
    bit-identical output: ``reference`` is the plain Python sweep, ``batch``
    (and ``auto``) the wave-parallel NumPy path, ``oocore`` the sharded
    sweep over a :class:`~repro.oocore.store.ShardedCSRGraph`.
    """
    if backend == "oocore" or type(graph).__name__ == "ShardedCSRGraph":
        # Out-of-core graphs never materialize a full CSR; the sharded
        # first-fit sweep is bit-identical to this function's natural order.
        from repro.oocore.engine import oocore_greedy
        from repro.oocore.store import ShardedCSRGraph

        if not isinstance(graph, ShardedCSRGraph):
            raise TypeError(
                "backend='oocore' greedy needs a ShardedCSRGraph; "
                "shard the graph with repro.oocore.writers first"
            )
        return oocore_greedy(graph, order=order)
    n = graph.n
    if backend == "reference":
        return _greedy_reference(graph, order)
    order_list = list(range(n)) if order is None else list(order)
    csr = graph.csr()
    if sorted(order_list) != list(range(n)):
        # Partial or repeating orders revisit vertices; the wave argument
        # needs a permutation.  These only appear in tiny oracle checks.
        return _greedy_reference(graph, order_list)
    return _greedy_waves(csr, order_list, graph.max_degree + 1)


def _greedy_reference(graph, order):
    if order is None:
        order = range(graph.n)
    colors = [None] * graph.n
    for v in order:
        taken = {colors[u] for u in graph.neighbors(v) if colors[u] is not None}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return colors


def _greedy_waves(csr, order_list, palette):
    n = csr.n
    pos = np.empty(n, dtype=np.int64)
    pos[np.asarray(order_list, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    earlier = pos[csr.indices] < pos[csr.rows]  # slot: neighbor precedes owner
    colors = np.full(n, -1, dtype=np.int32)
    first_fit_waves(
        csr.rows, csr.indices.astype(np.int32), earlier, ~earlier,
        csr.count_per_vertex(earlier), colors, palette,
    )
    return colors.tolist()


def first_fit_waves(rows, indices, earlier, later, indeg, colors, palette):
    """Wave-parallel first-fit over the rows ``[0, len(indeg))`` of a CSR.

    ``rows``/``indices`` give each adjacency slot's owner and neighbor.
    ``earlier`` marks the slots whose neighbor precedes the owner (they fill
    the occupancy), ``later`` the slots whose neighbor is colored by this
    sweep after the owner (they drive the readiness countdown), and
    ``indeg`` counts each row's earlier neighbors this sweep still has to
    color.  ``colors`` (-1 = uncolored) is filled in place; entries past the
    swept rows may come pre-colored (an out-of-core shard's halo).
    """
    k = indeg.shape[0]

    def half(mask):
        # Slot order is preserved.  A ready vertex's earlier neighbors are
        # all colored and its later ones never are, so each half serves
        # exactly one purpose per edge.
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[mask], minlength=k), out=indptr[1:])
        return indptr, indices[mask]

    e_indptr, e_indices = half(earlier)
    l_indptr, l_indices = half(later)

    def gather(indptr, indices, rows, repeats):
        """Concatenated rows of a CSR half, plus ``repeats`` spread per slot."""
        starts = indptr[rows]
        lens = indptr[rows + 1] - starts
        total = int(lens.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        shift = np.cumsum(lens) - lens
        slot = np.repeat(starts - shift, lens) + np.arange(total, dtype=np.int64)
        spread = np.repeat(repeats, lens) if repeats is not None else None
        return indices[slot], spread

    # Kahn-style frontier sweep: a vertex enters the wave exactly when its
    # last earlier neighbor gets colored, so each wave touches only its own
    # adjacency slots — total work O(m), not O(m * depth).
    wave = np.nonzero(indeg == 0)[0]
    indeg[wave] = -1  # colored vertices never re-enter
    remaining = k
    while wave.size:
        width = wave.size
        taken, key_base = gather(
            e_indptr, e_indices, wave, np.arange(width, dtype=np.int64) * palette
        )
        occupancy = np.bincount(key_base + colors[taken], minlength=width * palette)
        colors[wave] = (occupancy.reshape(width, palette) == 0).argmax(axis=1)
        remaining -= width
        if remaining == 0:
            break
        later_nbrs, _ = gather(l_indptr, l_indices, wave, None)
        if later_nbrs.size:
            indeg -= np.bincount(later_nbrs, minlength=k)
        wave = np.nonzero(indeg == 0)[0]
        indeg[wave] = -1
    return colors
