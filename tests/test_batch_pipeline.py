"""End-to-end batch pipeline tests: Corollary 3.6 on the vectorized path.

PR 1 established the bit-for-bit contract for the AG family; with the Linial
and standard-reduction kernels the whole headline pipeline (Linial -> AG ->
standard reduction) runs vectorized.  These tests pin down:

* full three-stage parity (``backend="batch"`` vs ``"reference"`` vs
  ``"auto"``) on graphs where Linial performs real iterations, in both
  visibility modes;
* the ndarray hand-off between stages (``RunResult.int_colors_array``)
  yielding identical results;
* exact scalar error messages out of the batch kernels (under-sized field,
  exhausted target palette);
* the uniform-stage fixed-point early exit behaving identically on both
  engines.
"""

import numpy as np
import pytest

from repro import graphgen
from repro.recipes import delta_plus_one_coloring
from repro.core.reductions import StandardColorReduction
from repro.linial.core import LinialColoring
from repro.runtime import (
    BatchColoringEngine,
    ColoringEngine,
    ColoringPipeline,
    StaticGraph,
    Visibility,
)
from repro.runtime.algorithm import LocallyIterativeColoring, NetworkInfo

BOTH_VISIBILITIES = (Visibility.LOCAL, Visibility.SET_LOCAL)


def linial_heavy_graph():
    """A graph whose palette sits well above the Linial fixpoint.

    ``n >> (2 * Delta + 1)^2`` guarantees the plan contains at least one real
    iteration, so the batch Linial kernel actually executes.
    """
    graph = graphgen.random_regular(1000, 4, seed=7)
    stage = LinialColoring()
    stage.configure(NetworkInfo(graph.n, graph.max_degree, graph.n))
    assert stage.rounds_bound >= 1, "fixture must exercise a real Linial round"
    return graph


@pytest.mark.parametrize("visibility", BOTH_VISIBILITIES, ids=lambda v: v.value)
def test_three_stage_pipeline_parity(visibility):
    """Corollary 3.6 end to end: batch == reference == auto, bit for bit."""
    graph = linial_heavy_graph()
    results = {
        backend: delta_plus_one_coloring(
            graph, visibility=visibility, check_proper_each_round=True,
            backend=backend,
        )
        for backend in ("reference", "batch", "auto")
    }
    reference = results["reference"]
    assert reference.num_colors <= graph.max_degree + 1
    for backend in ("batch", "auto"):
        result = results[backend]
        assert result.colors == reference.colors
        assert result.total_rounds == reference.total_rounds
        assert result.rounds_by_stage() == reference.rounds_by_stage()
        assert result.to_dict() == reference.to_dict()


def test_pipeline_threads_ndarray_between_stages():
    """Batch stage outputs stay ndarrays across stage boundaries."""
    graph = linial_heavy_graph()
    result = delta_plus_one_coloring(graph, backend="batch")
    for _, stage_result in result.stage_results:
        assert isinstance(stage_result.int_colors_array, np.ndarray)
        assert stage_result.int_colors_array.tolist() == stage_result.int_colors
    # The public result stays a plain list regardless of the backend.
    assert isinstance(result.colors, list)
    assert all(isinstance(c, int) for c in result.colors)


def test_reference_engine_leaves_array_field_unset():
    graph = graphgen.cycle_graph(8)
    result = ColoringEngine(graph).run(
        StandardColorReduction(), [v % 4 for v in range(8)], in_palette_size=4
    )
    assert result.int_colors_array is None


def test_pipeline_accepts_list_tuple_and_array_inputs():
    graph = graphgen.cycle_graph(9)
    initial = [v % 3 for v in range(9)]
    pipeline = ColoringPipeline([StandardColorReduction])
    from_list = pipeline.run(graph, initial, in_palette_size=3)
    from_tuple = pipeline.run(graph, tuple(initial), in_palette_size=3)
    assert from_list.colors == from_tuple.colors
    assert initial == [v % 3 for v in range(9)], "input list must not be mutated"
    from_array = pipeline.run(
        graph, np.asarray(initial, dtype=np.int64), in_palette_size=3
    )
    assert from_array.colors == from_list.colors


def test_pipeline_skips_palette_scan_when_size_given():
    """An explicit in_palette_size is used verbatim (no max() rescan)."""
    graph = graphgen.path_graph(5)
    stage = StandardColorReduction()
    pipeline = ColoringPipeline([stage])
    pipeline.run(graph, [v % 2 for v in range(5)], in_palette_size=7)
    assert stage.info.in_palette_size == 7
    assert stage.start_palette == 7


# -- exact scalar errors out of the batch kernels --------------------------------


def test_linial_batch_out_of_field_error_matches():
    """An input color too large for GF(q)^(d+1) raises the scalar message."""
    graph = graphgen.random_regular(1000, 4, seed=7)
    bad = list(range(graph.n))
    bad[7] = 10 ** 9
    messages = []
    for engine_cls in (ColoringEngine, BatchColoringEngine):
        with pytest.raises(ValueError) as excinfo:
            engine_cls(graph).run(LinialColoring(), bad, in_palette_size=graph.n)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    assert "does not fit" in messages[0]


def test_linial_batch_no_free_point_error_matches():
    """An under-sized field (lying NetworkInfo) raises the scalar message."""
    graph = graphgen.complete_graph(30)
    messages = []
    for engine_cls in (ColoringEngine, BatchColoringEngine):
        stage = LinialColoring()
        stage.configure(NetworkInfo(graph.n, 3, 900))
        with pytest.raises(ValueError) as excinfo:
            engine_cls(graph).run(
                stage, list(range(graph.n)), in_palette_size=900, configure=False
            )
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    assert "no conflict-free point" in messages[0]


def test_reduction_batch_exhausted_palette_error_matches():
    """A target palette below the true degree raises the scalar message."""
    graph = graphgen.complete_graph(30)
    messages = []
    for engine_cls in (ColoringEngine, BatchColoringEngine):
        stage = StandardColorReduction()
        stage.configure(NetworkInfo(graph.n, 3, graph.n))
        with pytest.raises(AssertionError) as excinfo:
            engine_cls(graph).run(
                stage, list(range(graph.n)), in_palette_size=graph.n,
                configure=False,
            )
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    assert "no free color" in messages[0]


# -- uniform fixed-point early exit ----------------------------------------------


class _FrozenUniformStage(LocallyIterativeColoring):
    """A uniform rule that never changes anything and never finalizes."""

    name = "frozen-uniform"
    uniform_step = True

    @property
    def out_palette_size(self):
        return self.info.in_palette_size

    @property
    def rounds_bound(self):
        return 40

    def step(self, round_index, color, neighbor_colors):
        return color

    def step_batch(self, round_index, state, csr, visibility):
        return state

    def batch_encode_initial(self, initial):
        return (initial,)

    def batch_is_final(self, state):
        return np.zeros(state[0].shape[0], dtype=bool)

    def batch_decode_final(self, state):
        return state[0]

    def batch_to_scalar(self, state):
        return state[0].tolist()


def test_uniform_fixed_point_early_exit_reference():
    """A global no-op round of a uniform rule stops the reference engine."""
    graph = graphgen.cycle_graph(6)
    result = ColoringEngine(graph).run(
        _FrozenUniformStage(), list(range(6)), in_palette_size=6
    )
    assert result.rounds_used == 1
    assert [r.changed_vertices for r in result.metrics.rounds] == [0]


def test_uniform_fixed_point_early_exit_parity():
    """Both engines take the identical early exit on the no-op fixed point."""
    graph = graphgen.cycle_graph(6)
    reference = ColoringEngine(graph, record_history=True).run(
        _FrozenUniformStage(), list(range(6)), in_palette_size=6
    )
    batch = BatchColoringEngine(graph, record_history=True).run(
        _FrozenUniformStage(), list(range(6)), in_palette_size=6
    )
    assert batch.rounds_used == reference.rounds_used == 1
    assert batch.history == reference.history
    assert batch.metrics.to_dict() == reference.metrics.to_dict()


def test_round_dependent_stage_survives_no_op_round():
    """Non-uniform stages must NOT early-exit on a no-op round.

    The standard reduction regularly has rounds where the acting color class
    is empty (a no-op), yet later rounds still act; the early exit must leave
    it untouched.
    """
    graph = StaticGraph(3, [(0, 1), (1, 2)])
    # Palette of size 6, colors {0, 1, 4}: round 0 (acting color 5) is a
    # global no-op, round 1 (acting color 4) recolors vertex 2.  A bogus
    # early exit after round 0 would leave color 4 in place forever.
    initial = [0, 1, 4]
    result = ColoringEngine(graph).run(
        StandardColorReduction(), initial, in_palette_size=6
    )
    assert result.rounds_used == 2
    assert [r.changed_vertices for r in result.metrics.rounds] == [0, 1]
    assert max(result.int_colors) <= graph.max_degree
    batch = BatchColoringEngine(graph).run(
        StandardColorReduction(), initial, in_palette_size=6
    )
    assert batch.int_colors == result.int_colors
    assert batch.rounds_used == result.rounds_used
    assert batch.metrics.to_dict() == result.metrics.to_dict()
