"""CONGEST compliance of the vertex-coloring pipelines.

The paper's vertex algorithms are communication-frugal: Linial broadcasts a
color out of a poly(n) palette (O(log n) bits), AG broadcasts its pair once
and then a single final/rotated bit per round, the hybrid two bits.  These
tests pin the engine's accounting to those claims.
"""

import math

from repro.core import (
    AdditiveGroupColoring,
    ExactDeltaPlusOneHybrid,
    StandardColorReduction,
    ThreeDimensionalAG,
)
from repro.recipes import delta_plus_one_coloring
from repro.graphgen import random_regular
from repro.linial import LinialColoring
from repro.runtime import ColoringEngine
from repro.runtime.algorithm import NetworkInfo


def congest_budget(n):
    """A CONGEST round may carry O(log n) bits; fix the constant at 4."""
    return 4 * max(1, math.ceil(math.log2(max(2, n))))


class TestPerStageMessageSizes:
    def test_ag_one_bit_rounds(self):
        stage = AdditiveGroupColoring()
        stage.configure(NetworkInfo(1000, 8, 17 * 17))
        assert stage.message_bits(0) <= congest_budget(1000)
        for r in range(1, 20):
            assert stage.message_bits(r) == 1

    def test_3ag_two_bit_rounds(self):
        stage = ThreeDimensionalAG()
        stage.configure(NetworkInfo(1000, 8, 29 ** 3))
        assert stage.message_bits(0) <= congest_budget(10 ** 6)
        for r in range(1, 20):
            assert stage.message_bits(r) == 2

    def test_hybrid_two_bit_rounds(self):
        stage = ExactDeltaPlusOneHybrid()
        stage.configure(NetworkInfo(1000, 8, 17))
        for r in range(1, 20):
            assert stage.message_bits(r) == 2

    def test_linial_messages_fit_congest(self):
        stage = LinialColoring()
        stage.configure(NetworkInfo(10 ** 5, 8, 10 ** 5))
        for r in range(stage.rounds_bound):
            assert stage.message_bits(r) <= congest_budget(10 ** 5)

    def test_standard_reduction_fits_congest(self):
        stage = StandardColorReduction()
        stage.configure(NetworkInfo(500, 8, 100))
        for r in range(stage.rounds_bound):
            assert stage.message_bits(r) <= congest_budget(500)


class TestPipelineBitTotals:
    def test_total_bits_dominated_by_first_exchanges(self):
        graph = random_regular(96, 8, seed=1)
        result = delta_plus_one_coloring(graph)
        # AG's metered bits: one full color exchange + ~1 bit per round.
        for stage, run in result.stage_results:
            if stage.name == "additive-group":
                per_edge = run.metrics.total_bits / (2 * graph.m)
                assert per_edge <= congest_budget(graph.n) + run.rounds_used

    def test_every_round_within_congest(self):
        graph = random_regular(64, 6, seed=2)
        engine = ColoringEngine(graph)
        stage = AdditiveGroupColoring()
        run = engine.run(stage, list(range(graph.n)))
        for metrics in run.metrics.rounds:
            per_message = metrics.bits / max(1, metrics.messages)
            assert per_message <= congest_budget(graph.n)
