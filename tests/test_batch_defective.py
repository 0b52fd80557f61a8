"""Differential tests: the defective-coloring modules' batch kernels.

:class:`DefectiveLinialColoring` (Lemma 3.4's tolerant Linial stage) and
:func:`kuhn_defective_edge_coloring` (the one-round 2-defective edge stage)
must be bit-for-bit identical between the scalar reference and the CSR
batch tier — colors, round counts, and per-round metrics rows.  The suite
also pins the tolerant step's fixed-point behavior and the Maus-style ``k``
knob that parameterizes the whole sublinear family.
"""

import pytest

from repro.analysis.invariants import coloring_defect
from repro.defective.kuhn_edge import (
    kuhn_defective_edge_arrays,
    kuhn_defective_edge_coloring,
)
from repro.defective.vertex import (
    DefectiveLinialColoring,
    defective_linial_next_color,
)
from repro.graphgen import (
    complete_graph,
    gnp_graph,
    path_graph,
    random_regular,
    star_graph,
)
from repro.parallel.jobs import resolve_algorithm
from repro.recipes import (
    _resolve_k_knob,
    one_plus_eps_delta_coloring,
    sublinear_delta_plus_one_coloring,
)
from repro.runtime.backends import resolve_backend
from repro.runtime.graph import StaticGraph


def graphs():
    yield StaticGraph(0, [])
    yield StaticGraph(4, [])  # edgeless
    yield path_graph(10)
    yield star_graph(9)
    yield complete_graph(7)
    yield gnp_graph(50, 0.12, seed=8)
    yield random_regular(80, 8, seed=9)


def _run_defective(graph, tolerance, backend):
    engine = resolve_backend("engine", backend)(graph)
    return engine.run(
        DefectiveLinialColoring(tolerance),
        list(range(graph.n)),
        in_palette_size=max(2, graph.n),
    )


class TestDefectiveLinialParity:
    def test_cross_tier_summaries_and_metrics(self):
        for graph in graphs():
            for tolerance in (1, 2, 4):
                ref = _run_defective(graph, tolerance, "reference")
                bat = _run_defective(graph, tolerance, "batch")
                assert ref.to_dict() == bat.to_dict(), (graph.n, tolerance)

    def test_defect_stays_within_stage_bound(self):
        graph = random_regular(120, 10, seed=11)
        for tolerance in (1, 3):
            stage = DefectiveLinialColoring(tolerance)
            engine = resolve_backend("engine", "batch")(graph)
            run = engine.run(
                stage, list(range(graph.n)), in_palette_size=max(2, graph.n)
            )
            # configure() fills defect_bound with the run's concrete bound
            assert coloring_defect(graph, run.int_colors) <= stage.defect_bound

    def test_fixed_point_neighborhood_skips_the_scan(self):
        # All neighbors share our color: no distinctly-colored neighbor can
        # collide, so the step must return the x=0 evaluation — the same
        # answer an isolated vertex gets — instead of scanning every point.
        q, degree = 7, 2
        for color in (0, 3, 11):
            alone = defective_linial_next_color(color, [], q, degree)
            crowded = defective_linial_next_color(
                color, [color, color, color], q, degree
            )
            assert alone == crowded
            assert crowded // q == 0  # x = 0 wins with zero collisions


class TestKuhnEdgeParity:
    def test_edge_coloring_matches_reference(self):
        for graph in graphs():
            assert kuhn_defective_edge_coloring(
                graph, backend="batch"
            ) == kuhn_defective_edge_coloring(graph, backend="reference")

    def test_arrays_agree_with_dict_form(self):
        graph = gnp_graph(40, 0.2, seed=12)
        by_edge = kuhn_defective_edge_coloring(graph, backend="batch")
        i_arr, j_arr = kuhn_defective_edge_arrays(graph)
        for slot, edge in enumerate(graph.edges):
            assert by_edge[edge] == (int(i_arr[slot]), int(j_arr[slot]))


class TestKKnob:
    def test_mapping_is_ceil_delta_over_k(self):
        assert _resolve_k_knob(None, 1, 16) == 16
        assert _resolve_k_knob(None, 3, 16) == 6
        assert _resolve_k_knob(None, 16, 16) == 1
        assert _resolve_k_knob(None, 100, 16) == 1  # clamps at 1
        assert _resolve_k_knob(5, None, 16) == 5  # tolerance passes through

    def test_both_spellings_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            _resolve_k_knob(3, 2, 16)
        with pytest.raises(ValueError, match=">= 1"):
            _resolve_k_knob(None, 0, 16)

    def test_recipes_accept_k(self):
        graph = random_regular(60, 8, seed=13)
        small_k = one_plus_eps_delta_coloring(graph, k=1)
        large_k = one_plus_eps_delta_coloring(graph, k=8)
        # Maus direction: larger k buys rounds with palette.
        assert small_k.num_colors <= large_k.num_colors
        exact = sublinear_delta_plus_one_coloring(graph, k=2)
        assert exact.num_colors <= graph.max_degree + 1
        with pytest.raises(ValueError, match="not both"):
            one_plus_eps_delta_coloring(graph, tolerance=2, k=2)

    def test_registry_defective_takes_k(self):
        graph = random_regular(60, 8, seed=14)
        graph.csr()
        fn = resolve_algorithm("defective")
        ref = fn(graph, backend="reference", seed=1, k=2)
        bat = fn(graph, backend="batch", seed=1, k=2)
        assert ref.to_dict() == bat.to_dict()
        with pytest.raises(ValueError, match="not both"):
            fn(graph, backend="reference", seed=1, k=2, tolerance=3)
