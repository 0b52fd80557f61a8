"""Differential tests: edge-coloring and bit-round modules, batch vs scalar.

The Section 5 edge-coloring pipeline (line graph + CONGEST ledger) and the
Section 3 bit-channel executions (vertex and edge) now run as CSR batch
kernels.  The contract is bit-for-bit equivalence with the channel-level
references: identical edge colors, identical per-stage round counts, and
identical bit ledgers (``bits_per_edge_by_stage`` / ``bit_rounds_by_phase``
— the batch tier computes them from the channel drain's closed form, the
reference by actually shipping every bit).  The suite covers every protocol
variant and degenerate topologies.
"""

from repro.bitround.edge_coloring import run_edge_coloring_bit_protocol
from repro.bitround.vertex_coloring import run_vertex_coloring_bit_protocol
from repro.edge.congest import edge_coloring_congest
from repro.edge.line_graph import build_line_graph
from repro.graphgen import (
    complete_graph,
    gnp_graph,
    path_graph,
    random_regular,
    star_graph,
)
from repro.parallel.jobs import resolve_algorithm
from repro.runtime.graph import StaticGraph

def graphs():
    yield StaticGraph(0, [])
    yield StaticGraph(3, [])  # edgeless
    yield StaticGraph(2, [(0, 1)])  # single edge
    yield path_graph(8)
    yield star_graph(6)
    yield complete_graph(5)
    yield gnp_graph(30, 0.15, seed=21)
    yield random_regular(48, 6, seed=22)


def _assert_proper_edge_coloring(graph, edge_colors):
    for v in graph.vertices():
        incident = [
            edge_colors[(min(v, u), max(v, u))] for u in graph.neighbors(v)
        ]
        assert len(incident) == len(set(incident)), v


class TestLineGraphParity:
    def test_batch_line_graph_matches_reference(self):
        for graph in graphs():
            ref_line, ref_index = build_line_graph(graph, backend="reference")
            bat_line, bat_index = build_line_graph(graph, backend="batch")
            assert ref_index == bat_index
            assert ref_line.n == bat_line.n
            assert sorted(ref_line.edges) == sorted(bat_line.edges)


class TestCongestEdgeParity:
    def test_cross_tier_summaries(self):
        for graph in graphs():
            for exact in (False, True):
                ref = edge_coloring_congest(
                    graph, exact=exact, backend="reference"
                )
                bat = edge_coloring_congest(graph, exact=exact, backend="batch")
                assert ref.to_dict() == bat.to_dict(), (graph.n, exact)

    def test_coloring_is_proper_within_palette(self):
        graph = random_regular(48, 6, seed=23)
        result = edge_coloring_congest(graph, exact=True, backend="batch")
        _assert_proper_edge_coloring(graph, result.edge_colors)
        delta = graph.max_degree
        assert result.num_colors <= 2 * delta - 1


class TestBitroundVertexParity:
    def test_cross_tier_summaries(self):
        for graph in graphs():
            ref = run_vertex_coloring_bit_protocol(graph, backend="reference")
            bat = run_vertex_coloring_bit_protocol(graph, backend="batch")
            assert ref.to_dict() == bat.to_dict(), graph.n

    def test_ledger_phases_present(self):
        graph = random_regular(40, 4, seed=24)
        run = run_vertex_coloring_bit_protocol(graph, backend="batch")
        assert set(run.rounds_by_phase) == {
            "linial",
            "additive-group",
            "standard-reduction",
        }
        assert run.total_bit_rounds == sum(run.bit_rounds_by_phase.values())
        assert run.num_colors <= graph.max_degree + 1


class TestBitroundEdgeParity:
    def test_cross_tier_summaries_all_variants(self):
        for graph in graphs():
            for exact in (False, True):
                for known in (False, True):
                    ref = run_edge_coloring_bit_protocol(
                        graph,
                        exact=exact,
                        neighbor_ids_known=known,
                        backend="reference",
                    )
                    bat = run_edge_coloring_bit_protocol(
                        graph,
                        exact=exact,
                        neighbor_ids_known=known,
                        backend="batch",
                    )
                    assert ref.to_dict() == bat.to_dict(), (
                        graph.n,
                        exact,
                        known,
                    )

    def test_exact_variant_hits_2delta_minus_1(self):
        graph = random_regular(32, 4, seed=25)
        run = run_edge_coloring_bit_protocol(graph, exact=True, backend="batch")
        _assert_proper_edge_coloring(graph, run.edge_colors)
        assert run.num_colors <= 2 * graph.max_degree - 1
        # the id-exchange phase is only charged when IDs are unknown
        known = run_edge_coloring_bit_protocol(
            graph, exact=True, neighbor_ids_known=True, backend="batch"
        )
        assert "id-exchange" in run.rounds_by_phase
        assert "id-exchange" not in known.rounds_by_phase


class TestRegistryParity:
    def test_cross_tier_summaries(self):
        graph = random_regular(40, 6, seed=26)
        graph.csr()
        for name in ("edge", "bitround", "bitround-edge"):
            fn = resolve_algorithm(name)
            ref = fn(graph, backend="reference", seed=2)
            bat = fn(graph, backend="batch", seed=2)
            assert ref.to_dict() == bat.to_dict(), name

    def test_reference_tier_runs_everywhere(self):
        graph = path_graph(10)
        for name in ("edge", "bitround", "bitround-edge"):
            result = resolve_algorithm(name)(graph, backend="reference", seed=2)
            assert result.rounds > 0
            assert result.num_colors >= 1
