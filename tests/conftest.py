"""Shared fixtures and helpers for the test suite.

Set ``REPRO_THOROUGH=1`` to load a hypothesis profile with a 300-example
budget.  (Tests that pin their own ``@settings(max_examples=...)`` keep
their explicit budgets; rerun individual modules with
``--hypothesis-seed=random`` for fresh exploration of those.)
"""

import os

import pytest
from hypothesis import settings

from repro import graphgen
from repro.analysis import is_proper_coloring

settings.register_profile("default", settings())
settings.register_profile(
    "thorough", settings(max_examples=300, deadline=None)
)
settings.load_profile(
    "thorough" if os.environ.get("REPRO_THOROUGH") == "1" else "default"
)


def standard_graphs():
    """A representative zoo of small graphs used across test modules."""
    return [
        ("empty", graphgen.path_graph(1)),
        ("edge", graphgen.path_graph(2)),
        ("path", graphgen.path_graph(25)),
        ("cycle-even", graphgen.cycle_graph(24)),
        ("cycle-odd", graphgen.cycle_graph(25)),
        ("star", graphgen.star_graph(20)),
        ("clique", graphgen.complete_graph(9)),
        ("grid", graphgen.grid_graph(5, 6)),
        ("hypercube", graphgen.hypercube_graph(4)),
        ("tree", graphgen.random_tree(40, seed=7)),
        ("gnp-sparse", graphgen.gnp_graph(60, 0.05, seed=3)),
        ("gnp-dense", graphgen.gnp_graph(40, 0.3, seed=4)),
        ("regular", graphgen.random_regular(48, 6, seed=5)),
        ("bipartite", graphgen.random_bipartite(20, 25, 0.15, seed=6)),
        ("barbell", graphgen.barbell_of_cliques(6, 8)),
        ("caterpillar", graphgen.caterpillar_graph(8, 4)),
        ("complete-bipartite", graphgen.complete_bipartite_graph(6, 9)),
        ("circulant", graphgen.circulant_graph(30, (1, 3, 7))),
        ("disconnected", graphgen.disjoint_union(
            [graphgen.cycle_graph(7), graphgen.complete_graph(5), graphgen.path_graph(6)]
        )),
    ]


@pytest.fixture(params=standard_graphs(), ids=lambda pair: pair[0])
def any_graph(request):
    """Parametrized fixture running a test over the whole graph zoo."""
    return request.param[1]


def assert_proper(graph, colors, context=""):
    """Assert the coloring is proper with a helpful failure message."""
    assert is_proper_coloring(graph, colors), "improper coloring %s: %r" % (
        context,
        [(u, v) for u, v in graph.edges if colors[u] == colors[v]][:5],
    )


def id_coloring(graph):
    """The trivial n-coloring by vertex index."""
    return list(range(graph.n))
