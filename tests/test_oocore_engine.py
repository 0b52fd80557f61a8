"""Differential parity of the out-of-core engine against the batch engine.

Everything observable must match at sizes where both engines run: colors,
per-stage rounds, per-round metrics rows, error types and messages, and the
early-exit behavior.  The oocore tier earns its keep purely by scaling —
never by changing an answer.
"""

import os
import tempfile

import pytest

from repro.analysis import is_proper_coloring
from repro.graphgen import gnp_graph, random_regular

def _sharded(graph, shards=4):
    from repro.oocore.writers import shard_static_graph

    return shard_static_graph(
        graph, tempfile.mkdtemp(prefix="oocore-engine-test-"), shards=shards
    )


def _metric_rows(result):
    return [
        (r.round_index, r.messages, r.bits, r.changed_vertices)
        for r in result.metrics.rounds
    ]


def _stage_classes():
    from repro.core.ag import AdditiveGroupColoring
    from repro.core.reductions import StandardColorReduction
    from repro.linial.core import LinialColoring

    return [LinialColoring, AdditiveGroupColoring, StandardColorReduction]


class TestStageParity:
    @pytest.mark.parametrize("stage_index", [0, 1, 2])
    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_single_stage_matches_batch(self, stage_index, shards):
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        make = _stage_classes()[stage_index]
        graph = random_regular(60, 4, seed=5)
        sharded = _sharded(graph, shards=shards)
        initial = list(range(graph.n))
        batch = BatchColoringEngine(graph).run(make(), initial)
        oocore = OocoreColoringEngine(sharded).run(make(), initial)
        assert oocore.int_colors == batch.int_colors
        assert oocore.rounds_used == batch.rounds_used
        assert _metric_rows(oocore) == _metric_rows(batch)
        assert oocore.num_colors == batch.num_colors

    def test_gnp_pipeline_parity(self):
        from repro.recipes import delta_plus_one_coloring

        graph = gnp_graph(90, 0.08, seed=3)
        sharded = _sharded(graph, shards=4)
        batch = delta_plus_one_coloring(graph, backend="batch")
        oocore = delta_plus_one_coloring(sharded, backend="oocore")
        assert list(oocore.colors) == list(batch.colors)
        assert oocore.rounds_by_stage() == batch.rounds_by_stage()
        assert oocore.total_bits == batch.total_bits
        assert is_proper_coloring(graph, oocore.colors)

    def test_check_proper_each_round(self):
        from repro.core.ag import AdditiveGroupColoring
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        graph = random_regular(40, 4, seed=2)
        sharded = _sharded(graph)
        initial = list(range(graph.n))
        batch = BatchColoringEngine(graph, check_proper_each_round=True).run(
            AdditiveGroupColoring(), initial
        )
        oocore = OocoreColoringEngine(
            sharded, check_proper_each_round=True
        ).run(AdditiveGroupColoring(), initial)
        assert oocore.int_colors == batch.int_colors

    def test_improper_initial_raises_identically(self):
        from repro.core.ag import AdditiveGroupColoring
        from repro.errors import ImproperColoringError
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        graph = random_regular(30, 3, seed=4)
        sharded = _sharded(graph)
        improper = [0] * graph.n  # monochromatic everywhere
        with pytest.raises(ImproperColoringError) as batch_err:
            BatchColoringEngine(graph, check_proper_each_round=True).run(
                AdditiveGroupColoring(), improper, in_palette_size=graph.n
            )
        with pytest.raises(ImproperColoringError) as oocore_err:
            OocoreColoringEngine(sharded, check_proper_each_round=True).run(
                AdditiveGroupColoring(), improper, in_palette_size=graph.n
            )
        assert str(oocore_err.value) == str(batch_err.value)

    def test_max_rounds_parity(self):
        from repro.core.ag import AdditiveGroupColoring
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        # Truncating AG mid-run leaves working vertices; the final decode
        # must fail identically in both engines.
        graph = random_regular(40, 5, seed=7)
        sharded = _sharded(graph)
        initial = list(range(graph.n))
        with pytest.raises(ValueError) as batch_err:
            BatchColoringEngine(graph).run(
                AdditiveGroupColoring(), initial, max_rounds=2
            )
        with pytest.raises(ValueError) as oocore_err:
            OocoreColoringEngine(sharded).run(
                AdditiveGroupColoring(), initial, max_rounds=2
            )
        assert str(oocore_err.value) == str(batch_err.value)

    def test_pool_mode_parity(self):
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        graph = random_regular(80, 5, seed=1)
        sharded = _sharded(graph, shards=4)
        initial = list(range(graph.n))
        batch = BatchColoringEngine(graph).run(LinialColoring(), initial)
        oocore = OocoreColoringEngine(sharded, workers=2).run(
            LinialColoring(), initial
        )
        assert oocore.int_colors == batch.int_colors

    def test_in_memory_graph_is_auto_sharded(self):
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        graph = random_regular(40, 4, seed=6)
        initial = list(range(graph.n))
        batch = BatchColoringEngine(graph).run(LinialColoring(), initial)
        oocore = OocoreColoringEngine(graph, shards=3).run(
            LinialColoring(), initial
        )
        assert oocore.int_colors == batch.int_colors


class TestTelemetryRowParity:
    """The one round loop produces the same rows over either plane.

    Per-round ``changed`` / ``finalized`` / ``conflicts`` and the rest of
    the ``engine.run`` record, plus the scalar colors, must match the
    in-memory plane for every shard count, inline and pooled.  Conflicts
    are the sensitive column: a cross-shard edge needs the neighbor's *new*
    color, not the stale halo copy the round was stepped with.
    """

    @staticmethod
    def _recorded(engine, stage, initial, **kwargs):
        from repro import obs

        with obs.capture() as tel:
            result = engine.run(stage, initial, **kwargs)
        runs = [
            e for e in obs.comparable_view(tel.events)
            if e.get("type") == "engine.run"
        ]
        assert len(runs) == 1
        return result, runs[0]

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("shards", [1, 3, 7])
    @pytest.mark.parametrize("stage_index", [0, 1, 2])
    def test_engine_run_rows_match_batch(self, stage_index, shards, workers):
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        make = _stage_classes()[stage_index]
        graph = random_regular(60, 4, seed=5)
        initial = list(range(graph.n))
        batch, batch_run = self._recorded(
            BatchColoringEngine(graph), make(), initial
        )
        oocore, oocore_run = self._recorded(
            OocoreColoringEngine(_sharded(graph, shards=shards), workers=workers),
            make(), initial,
        )
        assert oocore_run["rounds"] == batch_run["rounds"]
        assert oocore_run == batch_run
        assert list(oocore.colors) == list(batch.colors)

    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_conflict_rows_match_on_improper_input(self, shards):
        from repro.core.reductions import StandardColorReduction
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        # Pairs of consecutive vertices share a color: the reduction keeps
        # the conflicts it was given, so the column is non-zero every round.
        graph = random_regular(60, 4, seed=5)
        initial = [v // 2 for v in range(graph.n)]
        _, batch_run = self._recorded(
            BatchColoringEngine(graph), StandardColorReduction(), initial,
            in_palette_size=graph.n,
        )
        _, oocore_run = self._recorded(
            OocoreColoringEngine(_sharded(graph, shards=shards)),
            StandardColorReduction(), initial, in_palette_size=graph.n,
        )
        assert any(row["conflicts"] for row in batch_run["rounds"])
        assert oocore_run == batch_run

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_truncated_stage_palette_error_matches(self, shards, workers):
        from repro.core.reductions import StandardColorReduction
        from repro.errors import PaletteOverflowError
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        graph = random_regular(60, 4, seed=5)
        initial = list(range(graph.n))
        with pytest.raises(PaletteOverflowError) as batch_err:
            BatchColoringEngine(graph).run(
                StandardColorReduction(), initial, max_rounds=10
            )
        with pytest.raises(PaletteOverflowError) as oocore_err:
            OocoreColoringEngine(
                _sharded(graph, shards=shards), workers=workers
            ).run(StandardColorReduction(), initial, max_rounds=10)
        assert str(oocore_err.value) == str(batch_err.value)


class TestEngineContract:
    def test_record_history_rejected(self):
        from repro.oocore.engine import OocoreColoringEngine

        sharded = _sharded(random_regular(20, 3, seed=1))
        with pytest.raises(ValueError):
            OocoreColoringEngine(sharded, record_history=True)

    def test_scalar_only_stage_rejected(self):
        from repro.oocore.engine import OocoreColoringEngine

        class ScalarOnly:
            name = "scalar-only"

        sharded = _sharded(random_regular(20, 3, seed=1))
        with pytest.raises(RuntimeError):
            OocoreColoringEngine(sharded).run(ScalarOnly(), list(range(20)))

    def test_wrong_initial_length(self):
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine

        sharded = _sharded(random_regular(20, 3, seed=1))
        with pytest.raises(ValueError):
            OocoreColoringEngine(sharded).run(LinialColoring(), [0, 1, 2])

    def test_memory_budget_enforced(self, monkeypatch):
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine
        from repro.oocore.store import MemoryBudgetError

        sharded = _sharded(random_regular(60, 4, seed=5), shards=2)
        monkeypatch.setenv("REPRO_OOCORE_BUDGET", "1K")
        with pytest.raises(MemoryBudgetError):
            OocoreColoringEngine(sharded).run(
                LinialColoring(), list(range(60))
            )

    def test_generous_budget_runs(self, monkeypatch):
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine

        sharded = _sharded(random_regular(60, 4, seed=5), shards=4)
        monkeypatch.setenv("REPRO_OOCORE_BUDGET", "64M")
        result = OocoreColoringEngine(sharded).run(
            LinialColoring(), list(range(60))
        )
        assert len(result.int_colors) == 60

    def test_colors_plane_persisted(self):
        import numpy as np

        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine

        sharded = _sharded(random_regular(30, 3, seed=2))
        result = OocoreColoringEngine(sharded).run(
            LinialColoring(), list(range(30))
        )
        assert np.array_equal(
            np.array(sharded.colors_plane(mode="r")), result.int_colors_array
        )

    def test_empty_graph(self):
        from repro.graphgen import gnp_graph
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine

        sharded = _sharded(gnp_graph(0, 0.5, seed=1), shards=2)
        result = OocoreColoringEngine(sharded).run(LinialColoring(), [])
        assert result.int_colors == []


class TestBackendRegistration:
    def test_backend_listed(self):
        from repro.runtime.backends import backend_names

        assert "oocore" in backend_names("engine")

    def test_resolve_and_run(self):
        from repro.runtime.backends import resolve_backend

        sharded = _sharded(random_regular(30, 3, seed=2))
        engine = resolve_backend("engine", "oocore")(sharded)
        from repro.linial.core import LinialColoring

        result = engine.run(LinialColoring(), list(range(30)))
        assert len(result.int_colors) == 30

    def test_job_runner_parity(self):
        from repro.parallel import JobSpec, execute_job

        spec = {"family": "regular", "n": 100, "degree": 6, "seed": 3}
        oocore = execute_job(JobSpec(algorithm="cor36", graph=spec, backend="oocore"))
        batch = execute_job(JobSpec(algorithm="cor36", graph=spec, backend="batch"))
        assert oocore["ok"], oocore["error"]
        assert (
            oocore["summary"]["payload"]["colors"]
            == batch["summary"]["payload"]["colors"]
        )
        assert oocore["summary"]["rounds"] == batch["summary"]["rounds"]


class TestShardedGreedy:
    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_bit_identical_to_first_fit(self, shards):
        from repro.baselines.greedy import greedy_coloring

        graph = random_regular(70, 6, seed=4)
        sharded = _sharded(graph, shards=shards)
        assert greedy_coloring(sharded) == greedy_coloring(graph)

    def test_gnp_parity(self):
        from repro.baselines.greedy import greedy_coloring

        graph = gnp_graph(80, 0.12, seed=6)
        sharded = _sharded(graph, shards=4)
        assert greedy_coloring(sharded) == greedy_coloring(graph)

    def test_custom_order_rejected(self):
        from repro.baselines.greedy import greedy_coloring

        sharded = _sharded(random_regular(20, 3, seed=1))
        with pytest.raises(ValueError):
            greedy_coloring(sharded, order=list(reversed(range(20))))


class TestTelemetry:
    def test_oocore_counters_emitted(self):
        from repro import obs
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine

        sharded = _sharded(random_regular(40, 4, seed=3))
        with obs.capture() as tel:
            OocoreColoringEngine(sharded).run(LinialColoring(), list(range(40)))
        names = {c["name"] for c in tel.snapshot()["counters"]}
        assert "oocore.shard_io.bytes_read" in names
        assert "oocore.shard_io.bytes_written" in names
        assert "oocore.halo.bytes" in names
        events = [e for e in tel.events if e.get("type") == "engine.run"]
        assert events and events[-1]["backend"] == "oocore"

    def test_shard_io_counts_each_read_once(self, monkeypatch):
        """A shard's local CSR is charged when streamed, never again while
        cached; every round also reads the ``8 * k * ncomp`` state bytes."""
        import numpy as np

        from repro.core.reductions import StandardColorReduction
        from repro.parallel.partition import PartitionRunner
        from repro.runtime.algorithm import NetworkInfo
        from repro.runtime.engine import Visibility

        monkeypatch.delenv("REPRO_OOCORE_BUDGET", raising=False)
        graph = random_regular(2000, 8, seed=1)
        sharded = _sharded(graph, shards=4)
        stage = StandardColorReduction()
        stage.configure(NetworkInfo(graph.n, graph.max_degree, graph.n))
        runner = PartitionRunner(sharded, stage, Visibility.LOCAL)
        try:
            runner.encode(np.arange(graph.n, dtype=np.int64))
            state_bytes = 8 * graph.n * runner.planes.ncomp
            streamed = sum(
                sharded.local(i).bytes_read for i in range(sharded.shards)
            )
            runner.step(0, False)
            assert runner.io_read == streamed + state_bytes
            assert len(runner._locals) == sharded.shards  # all cached now
            before = runner.io_read
            runner.step(1, False)
            assert runner.io_read - before == state_bytes
        finally:
            runner.close()


class TestCLI:
    def test_color_command_oocore(self, tmp_path):
        import io

        from repro.cli import main

        out = io.StringIO()
        rc = main(
            [
                "color", "--n", "100", "--degree", "5", "--oocore",
                "--shards", "4", "--memory-budget", "64M",
            ],
            out=out,
        )
        assert rc == 0
        assert "colors used: 6" in out.getvalue()
        # The flags land in the env knobs the oocore tier reads.
        assert os.environ.get("REPRO_OOCORE_SHARDS") == "4"
        assert os.environ.get("REPRO_OOCORE_BUDGET") == str(64 << 20)
