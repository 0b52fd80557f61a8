"""Compressed-sparse-row adjacency for the vectorized batch engine.

The reference engine rebuilds a Python tuple of neighbor colors per vertex
per round — O(n * Delta) interpreter work.  :class:`CSRAdjacency` flattens
the adjacency lists once into three NumPy arrays so a whole round becomes a
handful of array operations:

``indices``
    All neighbor lists concatenated in vertex order (length ``2 * m``).
``indptr``
    ``indices[indptr[v]:indptr[v + 1]]`` are the neighbors of ``v``.
``rows``
    ``rows[i]`` is the vertex that owns slot ``i`` of ``indices`` (the
    expansion of ``repeat(arange(n), degrees)``), so per-vertex reductions
    are one ``bincount`` away.

``edge_u`` / ``edge_v`` mirror ``StaticGraph.edges`` (sorted, ``u < v``) for
vectorized properness checks.

NumPy is a hard dependency of the package: every non-reference tier steps
its rounds through these arrays.
"""

import numpy as np

__all__ = ["CSRAdjacency"]


class CSRAdjacency:
    """Immutable CSR view of a :class:`~repro.runtime.graph.StaticGraph`.

    Build via :meth:`from_graph` (or, preferably, the cached
    ``StaticGraph.csr()``).  All arrays are ``int64``.
    """

    __slots__ = ("n", "m", "indptr", "indices", "rows", "degrees", "edge_u", "edge_v")

    def __init__(self, n, m, indptr, indices, rows, degrees, edge_u, edge_v):
        self.n = n
        self.m = m
        self.indptr = indptr
        self.indices = indices
        self.rows = rows
        self.degrees = degrees
        self.edge_u = edge_u
        self.edge_v = edge_v

    @classmethod
    def from_graph(cls, graph):
        """Flatten ``graph``'s adjacency into CSR arrays."""
        n = graph.n
        degrees = np.fromiter(
            (graph.degree(v) for v in range(n)), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.fromiter(
            (u for v in range(n) for u in graph.neighbors(v)),
            dtype=np.int64,
            count=total,
        )
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        edges = graph.edges
        if edges:
            edge_arr = np.asarray(edges, dtype=np.int64)
            edge_u, edge_v = edge_arr[:, 0], edge_arr[:, 1]
        else:
            edge_u = np.zeros(0, dtype=np.int64)
            edge_v = np.zeros(0, dtype=np.int64)
        return cls(n, len(edges), indptr, indices, rows, degrees, edge_u, edge_v)

    @classmethod
    def from_dynamic(cls, graph):
        """Compact CSR over a :class:`~repro.runtime.graph.DynamicGraph`.

        Dynamic graphs have an arbitrary present subset of ``range(n_bound)``,
        so the view is *compacted*: CSR vertex ``i`` is the ``i``-th smallest
        present vertex.  Returns ``(csr, vertices)`` where ``vertices`` is the
        ``int64`` array mapping compact index back to the original vertex id.
        The view is a snapshot — the batch self-stabilization engine rebuilds
        it once per topology epoch (crash / spawn / rewire), not per round.
        """
        from itertools import chain

        verts = graph.vertices()
        n = len(verts)
        verts_arr = np.asarray(verts, dtype=np.int64)
        degrees = np.fromiter(
            (graph.degree(v) for v in verts), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1])
        raw = np.fromiter(
            chain.from_iterable(graph.neighbors(v) for v in verts),
            dtype=np.int64,
            count=total,
        )
        # verts is sorted, so searchsorted *is* the original-id -> compact-id
        # map; neighbors() is sorted by original id and the map is monotone,
        # so each compact neighbor list comes out sorted too.
        indices = np.searchsorted(verts_arr, raw)
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        # Each edge appears once with compact u < v, in row-major order —
        # the same lexicographic order graph.edges() would yield.
        forward = rows < indices
        edge_u = rows[forward]
        edge_v = indices[forward]
        csr = cls(n, edge_u.size, indptr, indices, rows, degrees, edge_u, edge_v)
        return csr, verts_arr

    @classmethod
    def from_arrays(cls, n, indptr, indices):
        """Rebuild a CSR view from bare ``indptr``/``indices`` arrays.

        The shared-memory fan-out plane ships exactly those two arrays; the
        derived columns (``rows``, ``degrees``, ``edge_u``/``edge_v``) are
        recomputed here, producing the same values ``from_graph`` would —
        forward slots in row-major order enumerate the edges in the sorted
        ``u < v`` order of ``StaticGraph.edges``.
        """
        degrees = np.diff(indptr)
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        forward = rows < indices
        edge_u = rows[forward]
        edge_v = indices[forward]
        return cls(n, int(edge_u.size), indptr, indices, rows, degrees, edge_u, edge_v)

    # -- kernel building blocks -------------------------------------------------

    def gather(self, values):
        """Per-slot neighbor view: ``gather(x)[i] == x[indices[i]]``."""
        return values[self.indices]

    def owner_values(self, values):
        """Per-slot owner view: ``owner_values(x)[i] == x[rows[i]]``."""
        return values[self.rows]

    def count_per_vertex(self, slot_mask):
        """Count True slots per owning vertex (empty neighborhoods count 0)."""
        return np.bincount(self.rows[slot_mask], minlength=self.n)

    def any_per_vertex(self, slot_mask):
        """Per-vertex OR over the owning vertex's slots."""
        return self.count_per_vertex(slot_mask) > 0

    def distinct_slot_mask(self, *slot_columns):
        """Mask keeping one slot per distinct ``(owner, *columns)`` tuple.

        This is the SET-LOCAL collapse: within each vertex's neighborhood,
        neighbors broadcasting identical colors become indistinguishable, so
        multiplicity-sensitive rules (ArbAG's conflict count) must dedupe
        before counting.  Columns are the components of the neighbor color.
        """
        size = self.rows.size
        keep = np.ones(size, dtype=bool)
        if size == 0:
            return keep
        order = np.lexsort(tuple(reversed(slot_columns)) + (self.rows,))
        sorted_cols = [self.rows[order]] + [col[order] for col in slot_columns]
        differs = np.zeros(size - 1, dtype=bool)
        for col in sorted_cols:
            differs |= col[1:] != col[:-1]
        keep_sorted = np.ones(size, dtype=bool)
        keep_sorted[1:] = differs
        keep[order] = keep_sorted
        return keep

    def __repr__(self):
        return "CSRAdjacency(n=%d, m=%d)" % (self.n, self.m)
