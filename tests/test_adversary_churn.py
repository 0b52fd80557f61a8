"""``FaultCampaign.churn_edges``: same edges as the pair enumeration, at scale.

The campaign draws each removed edge with ``rng.choice`` over the present
edges in sorted order, and each added edge over the legal non-edges in
lexicographic order.  It finds the drawn pair by walking the vertices
instead of listing every edge or all O(n^2) pairs; these tests pin the
choice to the listing it replaces and bound its cost at n = 20000.
"""

import random
import time

import pytest

from repro.graphgen import gnp_graph, random_regular
from repro.runtime.graph import DynamicGraph
from repro.selfstab import FaultCampaign


class _TopologyOnly:
    """The slice of an engine ``churn_edges`` touches: graph + rewiring."""

    def __init__(self, graph):
        self.graph = graph

    def add_edge(self, u, v):
        self.graph.add_edge(u, v)

    def remove_edge(self, u, v):
        self.graph.remove_edge(u, v)


def _listing_churn(rng, engine, removals, additions):
    """The pair-listing ``churn_edges`` the campaign used to run."""
    affected = []
    for _ in range(removals):
        edges = engine.graph.edges()
        if not edges:
            break
        u, v = rng.choice(edges)
        engine.remove_edge(u, v)
        affected.extend((u, v))
    for _ in range(additions):
        present = engine.graph.vertices()
        if len(present) < 2:
            break
        candidates = [
            (u, v)
            for u in present
            for v in present
            if u < v
            and not engine.graph.has_edge(u, v)
            and engine.graph.degree(u) < engine.graph.delta_bound
            and engine.graph.degree(v) < engine.graph.delta_bound
        ]
        if not candidates:
            break
        u, v = rng.choice(candidates)
        engine.add_edge(u, v)
        affected.extend((u, v))
    return affected


def _dynamic(static, slack, absent=()):
    graph = DynamicGraph.from_static(
        static, delta_bound=static.max_degree + slack
    )
    for v in absent:
        for u in graph.neighbors(v):
            graph.remove_edge(u, v)
        graph.remove_vertex(v)
    return graph


@pytest.mark.parametrize("seed", range(12))
def test_chosen_edges_match_pair_listing(seed):
    static = gnp_graph(24, 0.2, seed=seed)
    absent = (seed % 5, 7) if seed % 3 == 0 else ()
    slack = seed % 3
    fast = _TopologyOnly(_dynamic(static, slack, absent))
    slow = _TopologyOnly(_dynamic(static, slack, absent))
    campaign = FaultCampaign(seed)
    oracle_rng = random.Random(seed)
    for _ in range(3):
        got = campaign.churn_edges(fast, removals=2, additions=3)
        want = _listing_churn(oracle_rng, slow, 2, 3)
        assert got == want
        assert fast.graph.edges() == slow.graph.edges()
    # Both consumed the identical random stream.
    assert campaign.rng.random() == oracle_rng.random()


def test_removals_never_list_every_edge(monkeypatch):
    static = random_regular(2000, 8, seed=3)
    listed = _TopologyOnly(DynamicGraph.from_static(static))
    want = _listing_churn(random.Random(4), listed, 40, 0)
    want_edges = listed.graph.edges()

    def no_listing(self):
        raise AssertionError("churn_edges listed every edge")

    engine = _TopologyOnly(DynamicGraph.from_static(static))
    monkeypatch.setattr(DynamicGraph, "edges", no_listing)
    got = FaultCampaign(4).churn_edges(engine, removals=40, additions=0)
    monkeypatch.undo()
    assert got == want
    assert engine.graph.edges() == want_edges


def test_no_legal_pair_adds_nothing():
    # A triangle at its degree bound has no legal addition.
    static = gnp_graph(3, 1.0, seed=0)
    engine = _TopologyOnly(_dynamic(static, 0))
    assert FaultCampaign(1).churn_edges(engine, removals=0, additions=2) == []


def test_churn_at_scale_is_linear():
    static = random_regular(20000, 16, seed=1)
    engine = _TopologyOnly(DynamicGraph.from_static(static))
    start = time.perf_counter()
    affected = FaultCampaign(5).churn_edges(engine, removals=8, additions=8)
    elapsed = time.perf_counter() - start
    assert len(affected) == 32
    assert len(engine.graph.edges()) == static.m
    assert all(engine.graph.degree(v) <= 16 for v in affected)
    # Listing every pair took minutes here; the walk takes well under a
    # second per added edge.
    assert elapsed < 30.0
