"""Seeded fault campaigns for exercising the self-stabilizing algorithms.

The fully-dynamic adversary of Section 1.2.1 may, between rounds, make
"arbitrary and completely unpredictable changes in the entire RAM" and
rewire the topology within the ROM bounds.  :class:`FaultCampaign` packages
the standard attack patterns used by tests, benchmarks and examples:

* random RAM corruption (garbage colors, stolen neighbor colors — the
  nastiest kind, since they create real conflicts),
* vertex churn (crash / respawn),
* edge churn (rewire links under the degree bound).

Everything is driven by an explicit seed for reproducibility.

All injection goes through the engine's ``corrupt`` fault API, so it is
array-backed for free on a :class:`~repro.selfstab.fast_engine.
BatchSelfStabEngine`: each corruption writes the encoded value straight
into the RAM columns in place (no dict rebuild, no column re-encode), and
topology churn invalidates the CSR view once per epoch, not per event.
"""

import bisect
import random

__all__ = ["FaultCampaign", "TargetedAttacks"]


class FaultCampaign:
    """A reproducible source of faults against a SelfStabEngine."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def corrupt_random_rams(self, engine, count):
        """Overwrite ``count`` random vertices' RAM with adversarial values.

        Half the corruptions copy a neighbor's RAM (guaranteed conflicts),
        half write garbage.
        """
        vertices = engine.graph.vertices()
        if not vertices:
            return []
        hit = []
        for _ in range(count):
            v = self.rng.choice(vertices)
            neighbors = engine.graph.neighbors(v)
            if neighbors and self.rng.random() < 0.5:
                engine.corrupt(v, engine.rams[self.rng.choice(neighbors)])
            else:
                engine.corrupt(v, self._garbage())
            hit.append(v)
        return hit

    def corrupt_many(self, engine, assignments):
        """Apply an explicit ``{vertex: ram}`` burst through the fault API.

        Deterministic (consumes no randomness); useful for replaying a
        recorded burst against several engines.  On a batch engine each
        write lands in the RAM columns in place.
        """
        hit = []
        for vertex, ram in sorted(assignments.items()):
            engine.corrupt(vertex, ram)
            hit.append(vertex)
        return hit

    def _garbage(self):
        choice = self.rng.randrange(4)
        if choice == 0:
            return self.rng.randrange(10 ** 9)
        if choice == 1:
            return -self.rng.randrange(1, 10 ** 6)
        if choice == 2:
            return ("junk", self.rng.randrange(100))
        return None

    def churn_vertices(self, engine, crashes=1, spawns=1):
        """Crash random present vertices and spawn random absent ones."""
        affected = []
        for _ in range(crashes):
            present = engine.graph.vertices()
            if not present:
                break
            v = self.rng.choice(present)
            engine.crash_vertex(v)
            affected.append(v)
        for _ in range(spawns):
            absent = [
                v
                for v in range(engine.graph.n_bound)
                if not engine.graph.is_present(v)
            ]
            if not absent:
                break
            v = self.rng.choice(absent)
            engine.spawn_vertex(v)
            # Attach somewhere legal so the new vertex participates.
            candidates = [
                u
                for u in engine.graph.vertices()
                if u != v
                and engine.graph.degree(u) < engine.graph.delta_bound
                and engine.graph.degree(v) < engine.graph.delta_bound
            ]
            self.rng.shuffle(candidates)
            for u in candidates[:2]:
                if engine.graph.degree(v) < engine.graph.delta_bound:
                    engine.add_edge(u, v)
            affected.append(v)
        return affected

    def churn_edges(self, engine, removals=1, additions=1):
        """Remove random edges and add random legal ones."""
        affected = []
        for _ in range(removals):
            edges = _SortedEdges(engine.graph)
            if not len(edges):
                break
            u, v = self.rng.choice(edges)
            engine.remove_edge(u, v)
            affected.extend((u, v))
        for _ in range(additions):
            if len(engine.graph.vertices()) < 2:
                break
            candidates = _OpenPairs(engine.graph)
            if not len(candidates):
                break
            u, v = self.rng.choice(candidates)
            engine.add_edge(u, v)
            affected.extend((u, v))
        return affected


class _SortedEdges:
    """The present edges ``(u, v)``, ``u < v``, in ``graph.edges()`` order.

    A lazy sequence for ``rng.choice``: ``len`` sums the degrees in O(n),
    and indexing walks the vertices to the k-th edge in O(n + m) without
    building and sorting the list of all m edges per removed edge.
    """

    def __init__(self, graph):
        self.graph = graph
        self.total = sum(graph.degree(v) for v in graph.vertices()) // 2

    def __len__(self):
        return self.total

    def __getitem__(self, k):
        for u in self.graph.vertices():
            neighbors = self.graph.neighbors(u)
            first = bisect.bisect_right(neighbors, u)
            if k < len(neighbors) - first:
                return u, neighbors[first + k]
            k -= len(neighbors) - first
        raise IndexError(k)


class _OpenPairs:
    """The legal new edges ``(u, v)``, ``u < v``, in lexicographic order.

    A lazy sequence for ``rng.choice``: both endpoints present and below
    ``delta_bound``, not yet adjacent.  ``len`` is O(n + m) and indexing
    walks to the k-th pair in O(n + m), where listing every pair would be
    O(n^2) per added edge.
    """

    def __init__(self, graph):
        self.graph = graph
        bound = graph.delta_bound
        self.open = [v for v in graph.vertices() if graph.degree(v) < bound]
        is_open = set(self.open)
        # Pairs owned by the i-th open vertex u: every later open vertex
        # except u's (open) neighbors above u.
        self.counts = [
            len(self.open) - 1 - i
            - sum(1 for w in graph.neighbors(u) if w > u and w in is_open)
            for i, u in enumerate(self.open)
        ]
        self.total = sum(self.counts)

    def __len__(self):
        return self.total

    def __getitem__(self, k):
        for i, count in enumerate(self.counts):
            if k < count:
                break
            k -= count
        u = self.open[i]
        taken = set(self.graph.neighbors(u))
        for v in self.open[i + 1:]:
            if v not in taken:
                if k == 0:
                    return u, v
                k -= 1
        raise IndexError(k)


class TargetedAttacks:
    """Hand-crafted worst-case attack patterns (deterministic).

    These target the algorithms' specific weak points rather than random
    state: color theft creates guaranteed conflicts; reset storms force the
    full interval descent; chain attacks try to build long dependency
    cascades (they cannot — adjustment radii are constant — which is exactly
    what the tests assert).
    """

    @staticmethod
    def steal_colors_along_path(engine, path_vertices):
        """Each vertex on the path copies its successor's RAM."""
        hit = []
        for a, b in zip(path_vertices, path_vertices[1:]):
            if engine.graph.is_present(a) and engine.graph.is_present(b):
                engine.corrupt(a, engine.rams[b])
                hit.append(a)
        return hit

    @staticmethod
    def clone_everything(engine, source=None):
        """Overwrite every RAM with one vertex's RAM — maximal symmetry."""
        vertices = engine.graph.vertices()
        if not vertices:
            return []
        if source is None:
            source = vertices[0]
        value = engine.rams[source]
        for v in vertices:
            engine.corrupt(v, value)
        return list(vertices)

    @staticmethod
    def descent_interruption(engine, victims, rounds_between=1):
        """Re-corrupt the same victims every few rounds mid-descent."""
        for _ in range(3):
            for v in victims:
                if engine.graph.is_present(v):
                    engine.corrupt(v, ("interrupted",))
            for _ in range(rounds_between):
                engine.step()
        return list(victims)

    @staticmethod
    def isolate_and_reconnect(engine, vertex):
        """Drop all of a vertex's links, then wire it back elsewhere."""
        graph = engine.graph
        if not graph.is_present(vertex):
            return []
        old_neighbors = list(graph.neighbors(vertex))
        for u in old_neighbors:
            engine.remove_edge(vertex, u)
        candidates = [
            u
            for u in graph.vertices()
            if u != vertex
            and not graph.has_edge(vertex, u)
            and graph.degree(u) < graph.delta_bound
        ]
        for u in candidates[: graph.delta_bound]:
            if graph.degree(vertex) < graph.delta_bound:
                engine.add_edge(vertex, u)
        return [vertex] + old_neighbors
