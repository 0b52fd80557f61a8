"""Differential tests: vectorized baseline modules vs their scalar references.

Every baseline this repo benchmarks against — the greedy oracle, the
randomized trial/Luby pair, Barenboim–Elkin–Kuhn, Kuhn–Wattenhofer, and the
rank-greedy self-stabilizing coloring — now has a CSR batch kernel.  The
contract is *bit-for-bit* equivalence with the scalar reference: identical
colors, identical round counts, and (for engine-run stages) identical
per-round metrics rows.  These tests enforce that across topologies, seeds
and orders, through the module functions and through the
:func:`repro.parallel.jobs.register_algorithm` registry.
"""

from repro.baselines.bek import bek_delta_plus_one
from repro.baselines.greedy import greedy_coloring
from repro.baselines.kuhn_wattenhofer import KuhnWattenhoferReduction
from repro.baselines.randomized import luby_mis, random_trial_coloring
from repro.graphgen import (
    complete_graph,
    gnp_graph,
    path_graph,
    random_regular,
    star_graph,
)
from repro.parallel.jobs import algorithm_names, resolve_algorithm
from repro.runtime.backends import resolve_backend
from repro.runtime.graph import StaticGraph

def graphs():
    yield StaticGraph(0, [])
    yield StaticGraph(5, [])  # edgeless
    yield path_graph(9)
    yield star_graph(7)
    yield complete_graph(6)
    yield gnp_graph(40, 0.15, seed=3)
    yield random_regular(60, 6, seed=4)
    yield random_regular(200, 12, seed=5)


class TestGreedyParity:
    def test_natural_order(self):
        for graph in graphs():
            assert greedy_coloring(graph, backend="batch") == greedy_coloring(
                graph, backend="reference"
            )

    def test_permuted_orders(self):
        import random

        graph = gnp_graph(50, 0.2, seed=9)
        for seed in range(5):
            order = list(range(graph.n))
            random.Random(seed).shuffle(order)
            assert greedy_coloring(
                graph, order=order, backend="batch"
            ) == greedy_coloring(graph, order=order, backend="reference")

    def test_partial_order_falls_back_identically(self):
        graph = path_graph(8)
        order = [0, 2, 4]  # not a permutation: scalar sweep on both tiers
        assert greedy_coloring(
            graph, order=order, backend="batch"
        ) == greedy_coloring(graph, order=order, backend="reference")


class TestRandomizedParity:
    def test_trial_coloring_across_seeds(self):
        for graph in graphs():
            if graph.n == 0:
                continue
            for seed in (1, 7, 42):
                assert random_trial_coloring(
                    graph, seed, backend="batch"
                ) == random_trial_coloring(graph, seed, backend="reference")

    def test_trial_coloring_wide_palette(self):
        # A palette much wider than Delta+1 exercises the uniform-draw
        # fast path (mirrored Mersenne-Twister stream) on later rounds too.
        graph = random_regular(80, 8, seed=2)
        for seed in (3, 11):
            assert random_trial_coloring(
                graph, seed, palette=40, backend="batch"
            ) == random_trial_coloring(
                graph, seed, palette=40, backend="reference"
            )

    def test_luby_mis(self):
        for graph in graphs():
            for seed in (1, 5):
                assert luby_mis(graph, seed, backend="batch") == luby_mis(
                    graph, seed, backend="reference"
                )


class TestEngineBaselineParity:
    """Engine-run baselines must match colors, rounds AND metrics rows."""

    def _run(self, stage_factory, graph, backend):
        engine = resolve_backend("engine", backend)(graph)
        return engine.run(
            stage_factory(),
            list(range(graph.n)),
            in_palette_size=max(2, graph.n),
        )

    def test_kuhn_wattenhofer(self):
        for graph in graphs():
            ref = self._run(KuhnWattenhoferReduction, graph, "reference")
            bat = self._run(KuhnWattenhoferReduction, graph, "batch")
            assert ref.to_dict() == bat.to_dict()

    def test_bek(self):
        for graph in graphs():
            ref = bek_delta_plus_one(graph, backend="reference")
            bat = bek_delta_plus_one(graph, backend="batch")
            assert ref.to_dict() == bat.to_dict()


class TestRegistryParity:
    """The registered job surface returns bit-identical summaries per tier."""

    NAMES = (
        "greedy",
        "random-trial",
        "bek",
        "kuhn-wattenhofer",
        "selfstab-rank",
    )

    def test_names_registered(self):
        for name in self.NAMES:
            assert name in algorithm_names()

    def test_cross_tier_summaries(self):
        graph = random_regular(80, 6, seed=6)
        graph.csr()
        for name in self.NAMES:
            fn = resolve_algorithm(name)
            ref = fn(graph, backend="reference", seed=3)
            bat = fn(graph, backend="batch", seed=3)
            assert ref.to_dict() == bat.to_dict(), name
            assert bat.rounds == ref.rounds
            assert bat.num_colors == ref.num_colors

    def test_reference_tier_runs_everywhere(self):
        graph = path_graph(12)
        for name in self.NAMES:
            result = resolve_algorithm(name)(graph, backend="reference", seed=1)
            assert result.rounds >= 0
            assert result.num_colors >= 1
