"""Graph topologies for the simulator.

:class:`StaticGraph` is the immutable adjacency view handed to algorithms in
the static setting; :class:`DynamicGraph` supports the topology churn of the
fully-dynamic self-stabilizing setting (vertices crash, appear, and links
change arbitrarily, as long as the published bounds on ``n`` and ``Delta``
hold — Section 1.2.1).

Vertices are integers.  A static graph's vertex set is ``range(n)``; a dynamic
graph's vertex set is an arbitrary subset of ``range(n_bound)`` so that crashes
and re-appearances keep stable identities.
"""

from collections import deque

import numpy as np

from repro.runtime.csr import CSRAdjacency

__all__ = ["StaticGraph", "DynamicGraph"]


class StaticGraph:
    """Immutable undirected graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are rejected; duplicate
        edges are collapsed.
    ids:
        Optional sequence of unique vertex identifiers (the ``id(v)`` of the
        paper).  Defaults to the vertex index itself.
    """

    __slots__ = ("n", "_adjacency", "_edges", "ids", "_max_degree", "_csr")

    # Below this many input edges the plain-Python constructor wins; above
    # it the array path (same validation, dedup, and sorted structures)
    # avoids the per-edge set churn.
    _BULK_EDGES = 2048

    def __init__(self, n, edges, ids=None):
        if n < 0:
            raise ValueError("n must be non-negative")
        is_array = hasattr(edges, "ndim")  # ndarray input skips listification
        if not (is_array or isinstance(edges, (list, tuple))):
            edges = list(edges)
        if (is_array or len(edges) >= self._BULK_EDGES) and self._bulk_init(n, edges):
            pass
        else:
            adjacency = [set() for _ in range(n)]
            edge_set = set()
            for u, v in edges:
                if u == v:
                    raise ValueError("self-loop (%d, %d) not allowed" % (u, v))
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(
                        "edge (%d, %d) out of range for n=%d" % (u, v, n)
                    )
                key = (u, v) if u < v else (v, u)
                if key in edge_set:
                    continue
                edge_set.add(key)
                adjacency[u].add(v)
                adjacency[v].add(u)
            self.n = n
            self._adjacency = tuple(
                tuple(sorted(neighbors)) for neighbors in adjacency
            )
            self._edges = tuple(sorted(edge_set))
            self._max_degree = max(
                (len(neighbors) for neighbors in self._adjacency), default=0
            )
            self._csr = None
        if ids is None:
            self.ids = tuple(range(n))
        else:
            self.ids = tuple(ids)
            if len(self.ids) != n:
                raise ValueError("ids must have length n")
            if len(set(self.ids)) != n:
                raise ValueError("ids must be unique")

    def _bulk_init(self, n, edges):
        """Array-path constructor body; returns False for ragged or
        non-integer input, which takes the per-edge loop instead.

        Bit-identical to the per-edge loop: same first-error messages (the
        first offending edge in input order, self-loop checked before range),
        same dedup, the same sorted adjacency tuples and edge tuple.  Also
        pre-builds the CSR view from the arrays already in hand, so the first
        ``csr()`` call is free.

        The Python-side structures (``_adjacency``/``_edges``) are built
        lazily from the CSR on first access — batch pipelines that only ever
        touch ``csr()`` (e.g. engine runs on a line graph) never pay for the
        per-vertex tuple materialization.
        """
        try:
            arr = np.asarray(edges)
        except (ValueError, TypeError):
            return False
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
            return False  # ragged / non-integer input: scalar path semantics
        arr = arr.astype(np.int64, copy=False)
        u, v = arr[:, 0], arr[:, 1]
        bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bool(bad.any()):
            k = int(np.argmax(bad))
            uk, vk = int(u[k]), int(v[k])
            if uk == vk:
                raise ValueError("self-loop (%d, %d) not allowed" % (uk, vk))
            raise ValueError("edge (%d, %d) out of range for n=%d" % (uk, vk, n))
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        key = np.unique(lo * n + hi)  # sorted == lexicographic (lo, hi)
        edge_u = key // n
        edge_v = key % n
        src = np.concatenate([edge_u, edge_v])
        dst = np.concatenate([edge_v, edge_u])
        order = np.lexsort((dst, src))
        dst = dst[order]
        degrees = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        self._adopt(
            CSRAdjacency(
                n,
                int(key.shape[0]),
                indptr,
                dst,
                np.repeat(np.arange(n, dtype=np.int64), degrees),
                degrees,
                edge_u,
                edge_v,
            )
        )
        return True

    def _adopt(self, csr):
        """Become the CSR-backed lazy graph over ``csr``."""
        self.n = csr.n
        self._adjacency = None
        self._edges = None
        self._max_degree = int(csr.degrees.max()) if csr.n else 0
        self._csr = csr

    def _materialize(self):
        """Build the Python adjacency/edge tuples from the CSR (lazy path)."""
        csr = self._csr
        bounds = csr.indptr.tolist()
        flat = csr.indices.tolist()
        self._adjacency = tuple(
            tuple(flat[bounds[i]:bounds[i + 1]]) for i in range(self.n)
        )
        self._edges = tuple(zip(csr.edge_u.tolist(), csr.edge_v.tolist()))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_csr(cls, csr):
        """A graph over an existing :class:`~repro.runtime.csr.CSRAdjacency`.

        The arrays are used as they are (no copy), so ``csr`` may live in
        shared memory; the adjacency and edge tuples are built from them on
        first access.  ``ids`` is ``range(n)``, every generated graph's
        default.
        """
        graph = cls.__new__(cls)
        graph._adopt(csr)
        graph.ids = range(csr.n)
        return graph

    @classmethod
    def from_networkx(cls, nx_graph, ids=None):
        """Build a :class:`StaticGraph` from a networkx graph.

        Nodes are relabeled to ``0..n-1`` in sorted order; the original labels
        become the vertex ids unless ``ids`` overrides them.
        """
        nodes = sorted(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in nx_graph.edges()]
        if ids is None:
            try:
                ids = [int(node) for node in nodes]
                if len(set(ids)) != len(ids):
                    ids = list(range(len(nodes)))
            except (TypeError, ValueError):
                ids = list(range(len(nodes)))
        return cls(len(nodes), edges, ids=ids)

    def to_networkx(self):
        """Export to a networkx Graph (vertex ids become node attributes)."""
        import networkx as nx

        nx_graph = nx.Graph()
        for v in self.vertices():
            nx_graph.add_node(v, id=self.ids[v])
        nx_graph.add_edges_from(self.edges)
        return nx_graph

    # -- queries --------------------------------------------------------------

    def vertices(self):
        """Return the vertex range ``0..n-1``."""
        return range(self.n)

    def neighbors(self, v):
        """Return the sorted tuple of neighbors of ``v``."""
        if self._adjacency is None:
            self._materialize()
        return self._adjacency[v]

    def degree(self, v):
        """Return the degree of ``v``."""
        if self._adjacency is None:
            return int(self._csr.degrees[v])
        return len(self._adjacency[v])

    @property
    def edges(self):
        """Return the sorted tuple of edges as ``(u, v)`` with ``u < v``."""
        if self._edges is None:
            self._materialize()
        return self._edges

    @property
    def m(self):
        """Return the number of edges."""
        if self._edges is None:
            return self._csr.m
        return len(self._edges)

    @property
    def max_degree(self):
        """Return the maximum degree ``Delta`` (0 for the empty graph).

        Cached at construction — the engine and every stage's ``configure``
        query it repeatedly, and the graph is immutable.
        """
        return self._max_degree

    def csr(self):
        """Return the cached :class:`~repro.runtime.csr.CSRAdjacency` view.

        Built lazily on first use and cached for the lifetime of the graph
        (the graph is immutable, so the arrays never go stale).
        """
        if self._csr is None:
            self._csr = CSRAdjacency.from_graph(self)
        return self._csr

    def has_edge(self, u, v):
        """Return True iff ``(u, v)`` is an edge."""
        if self._adjacency is None:
            self._materialize()
        return v in self._adjacency[u]

    def bfs_distances(self, sources):
        """Return a dict of BFS distances from the closest vertex in ``sources``.

        Vertices unreachable from every source are absent from the result.
        Used to measure adjustment radii (distance from the closest fault).
        """
        if self._adjacency is None:
            self._materialize()
        distances = {}
        queue = deque()
        for source in sources:
            if source not in distances:
                distances[source] = 0
                queue.append(source)
        while queue:
            u = queue.popleft()
            for w in self._adjacency[u]:
                if w not in distances:
                    distances[w] = distances[u] + 1
                    queue.append(w)
        return distances

    def subgraph(self, vertex_subset):
        """Return the induced subgraph on ``vertex_subset``.

        The result is a new :class:`StaticGraph` whose vertex ``i`` corresponds
        to the ``i``-th smallest vertex of the subset; the mapping is returned
        alongside.

        Returns
        -------
        (StaticGraph, dict):
            The induced subgraph and the ``original -> new`` index map.
        """
        ordered = sorted(set(vertex_subset))
        index = {v: i for i, v in enumerate(ordered)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        ids = [self.ids[v] for v in ordered]
        return StaticGraph(len(ordered), edges, ids=ids), index

    def __repr__(self):
        return "StaticGraph(n=%d, m=%d, max_degree=%d)" % (
            self.n,
            self.m,
            self.max_degree,
        )


class DynamicGraph:
    """Mutable undirected graph for the fully-dynamic self-stabilizing setting.

    The graph lives inside hard bounds ``n_bound`` (vertex identities are
    ``0..n_bound-1``) and ``delta_bound`` (no vertex may exceed that degree).
    These bounds mirror the ROM-resident ``n`` and ``Delta`` of Section 4: the
    adversary may rewire anything, but never beyond them.
    """

    def __init__(self, n_bound, delta_bound):
        if n_bound < 0:
            raise ValueError("n_bound must be non-negative")
        if delta_bound < 0:
            raise ValueError("delta_bound must be non-negative")
        self.n_bound = n_bound
        self.delta_bound = delta_bound
        self._present = set()
        self._adjacency = {v: set() for v in range(n_bound)}

    @classmethod
    def from_static(cls, graph, n_bound=None, delta_bound=None):
        """Seed a dynamic graph with a static topology.

        Bounds default to the static graph's own ``n`` and ``max_degree``.
        """
        dynamic = cls(
            n_bound if n_bound is not None else graph.n,
            delta_bound if delta_bound is not None else graph.max_degree,
        )
        for v in graph.vertices():
            dynamic.add_vertex(v)
        for u, v in graph.edges:
            dynamic.add_edge(u, v)
        return dynamic

    # -- mutation -------------------------------------------------------------

    def add_vertex(self, v):
        """Make vertex ``v`` present (idempotent)."""
        self._check_vertex(v)
        self._present.add(v)

    def remove_vertex(self, v):
        """Crash vertex ``v``, removing its incident edges (idempotent)."""
        self._check_vertex(v)
        if v not in self._present:
            return
        for u in list(self._adjacency[v]):
            self._adjacency[u].discard(v)
        self._adjacency[v].clear()
        self._present.discard(v)

    def add_edge(self, u, v):
        """Add the edge ``(u, v)``; both endpoints must be present.

        Raises :class:`ValueError` if the edge would violate ``delta_bound``.
        """
        if u == v:
            raise ValueError("self-loop not allowed")
        for w in (u, v):
            self._check_vertex(w)
            if w not in self._present:
                raise ValueError("vertex %d is not present" % w)
        if v in self._adjacency[u]:
            return
        if len(self._adjacency[u]) >= self.delta_bound:
            raise ValueError("adding edge would exceed delta_bound at %d" % u)
        if len(self._adjacency[v]) >= self.delta_bound:
            raise ValueError("adding edge would exceed delta_bound at %d" % v)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    def remove_edge(self, u, v):
        """Remove the edge ``(u, v)`` (idempotent)."""
        self._check_vertex(u)
        self._check_vertex(v)
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)

    # -- queries --------------------------------------------------------------

    def _check_vertex(self, v):
        if not (0 <= v < self.n_bound):
            raise ValueError("vertex %d out of range for n_bound=%d" % (v, self.n_bound))

    def vertices(self):
        """Return the sorted list of present vertices."""
        return sorted(self._present)

    def is_present(self, v):
        """Return True iff vertex ``v`` is currently present."""
        return v in self._present

    def neighbors(self, v):
        """Return the sorted tuple of present neighbors of ``v``."""
        return tuple(sorted(self._adjacency[v]))

    def degree(self, v):
        """Return the present degree of ``v``."""
        return len(self._adjacency[v])

    @property
    def n(self):
        """Return the number of present vertices."""
        return len(self._present)

    def edges(self):
        """Return the sorted list of present edges as ``(u, v)``, ``u < v``."""
        result = []
        for u in self._present:
            for v in self._adjacency[u]:
                if u < v:
                    result.append((u, v))
        return sorted(result)

    def has_edge(self, u, v):
        """Return True iff ``(u, v)`` is a present edge."""
        return v in self._adjacency.get(u, ())

    def snapshot(self):
        """Return a :class:`StaticGraph` of the present subgraph.

        Vertex ``i`` of the snapshot is the ``i``-th smallest present vertex;
        its id is the original vertex number.  The mapping is returned too.
        """
        ordered = self.vertices()
        index = {v: i for i, v in enumerate(ordered)}
        edges = [(index[u], index[v]) for u, v in self.edges()]
        static = StaticGraph(len(ordered), edges, ids=ordered)
        return static, index

    def bfs_distances(self, sources):
        """BFS distances over the present subgraph from the closest source."""
        distances = {}
        queue = deque()
        for source in sources:
            if source in self._present and source not in distances:
                distances[source] = 0
                queue.append(source)
        while queue:
            u = queue.popleft()
            for w in self._adjacency[u]:
                if w not in distances:
                    distances[w] = distances[u] + 1
                    queue.append(w)
        return distances

    def __repr__(self):
        return "DynamicGraph(n=%d/%d, delta_bound=%d)" % (
            self.n,
            self.n_bound,
            self.delta_bound,
        )
