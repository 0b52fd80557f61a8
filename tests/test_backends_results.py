"""Backend registry, shared result protocol, deprecation shims, obs.absorb."""

import pytest

from repro import graphgen, obs
from repro.obs.core import Histogram, Telemetry
from repro.runtime.backends import (
    BACKEND_KINDS,
    backend_names,
    register_backend,
    resolve_backend,
)
from repro.runtime.engine import ColoringEngine
from repro.runtime.results import Result, is_result, summarize


def _graph(n=40, d=4, seed=1):
    return graphgen.random_regular(n, d, seed=seed)


class TestBackendRegistry:
    def test_kinds_and_names(self):
        assert set(BACKEND_KINDS) == {"engine", "selfstab"}
        for kind in BACKEND_KINDS:
            names = backend_names(kind)
            assert names[0] == "auto"
            assert set(names) >= {"auto", "batch", "reference"}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown backend kind"):
            backend_names("gpu")
        with pytest.raises(ValueError, match="unknown backend kind"):
            resolve_backend("gpu", "auto")

    def test_unknown_backend_message_is_compatible(self):
        # tests elsewhere match on the "unknown backend" substring; keep it.
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("engine", "cuda")

    def test_reference_engine_construction(self):
        engine = resolve_backend("engine", "reference")(_graph())
        assert type(engine) is ColoringEngine

    def test_batch_requires_numpy(self):
        from repro.runtime.fast_engine import BatchColoringEngine

        factory = resolve_backend("engine", "batch")
        assert isinstance(factory(_graph()), BatchColoringEngine)

    def test_selfstab_construction(self):
        from repro.runtime.graph import DynamicGraph
        from repro.selfstab import SelfStabExactColoring

        graph = DynamicGraph.from_static(_graph())
        algorithm = SelfStabExactColoring(graph.n_bound, graph.delta_bound)
        engine = resolve_backend("selfstab", "auto")(graph, algorithm)
        assert engine.run_to_quiescence() >= 0

    def test_register_custom_backend(self):
        sentinel = object()
        register_backend("engine", "custom-test", lambda graph, **kw: sentinel)
        try:
            assert "custom-test" in backend_names("engine")
            assert resolve_backend("engine", "custom-test")(_graph()) is sentinel
        finally:
            from repro.runtime import backends

            backends._FACTORIES.pop(("engine", "custom-test"), None)


class TestDeprecationShims:
    def test_make_engine_shim_is_gone(self):
        # The 2.0 removal promised by the deprecation cycle: the registry is
        # the only construction path now.
        import repro.runtime
        import repro.runtime.fast_engine as fast_engine

        assert not hasattr(fast_engine, "make_engine")
        assert not hasattr(repro.runtime, "make_engine")
        assert "make_engine" not in repro.runtime.__all__

    def test_make_selfstab_engine_shim_is_gone(self):
        import repro.selfstab
        import repro.selfstab.fast_engine as fast_engine

        assert not hasattr(fast_engine, "make_selfstab_engine")
        assert not hasattr(repro.selfstab, "make_selfstab_engine")
        assert "make_selfstab_engine" not in repro.selfstab.__all__


class TestResultProtocol:
    def test_every_result_class_satisfies_protocol(self):
        from repro.recipes import delta_plus_one_coloring, one_plus_eps_delta_coloring

        graph = _graph()
        pipeline_result = delta_plus_one_coloring(graph)
        sublinear_result = one_plus_eps_delta_coloring(graph)
        engine = resolve_backend("engine", "reference")(graph)
        from repro.core.ag import AdditiveGroupColoring

        run_result = engine.run(AdditiveGroupColoring(), list(range(graph.n)))
        from repro.edge import edge_coloring_congest

        edge_result = edge_coloring_congest(_graph(24, 4))
        for result in (pipeline_result, sublinear_result, run_result, edge_result):
            assert is_result(result)
            assert isinstance(result, Result)
            envelope = summarize(result, detail=True)
            assert envelope["kind"] == type(result).__name__
            assert envelope["rounds"] == result.rounds
            assert envelope["payload"] == result.to_dict()

    def test_lowmem_report_protocol(self):
        from repro.lowmem import delta_plus_one_coloring_low_memory

        report = delta_plus_one_coloring_low_memory(_graph(24, 4))
        assert is_result(report)
        assert summarize(report)["num_colors"] == report.num_colors

    def test_rounds_aliases_agree(self):
        from repro.recipes import delta_plus_one_coloring

        result = delta_plus_one_coloring(_graph())
        assert result.rounds == result.total_rounds

    def test_summarize_rejects_non_results(self):
        with pytest.raises(TypeError, match="does not satisfy the result protocol"):
            summarize((1, 2, 3))
        assert not is_result(object())

    def test_duck_typed_membership(self):
        class Duck:
            colors = [0]
            rounds = 1

            def to_dict(self):
                return {"colors": [0]}

        assert isinstance(Duck(), Result)
        assert summarize(Duck())["rounds"] == 1


class TestAbsorb:
    def test_absorb_events_and_snapshot(self):
        worker = Telemetry(clock=lambda: 0.0)
        worker.counter("engine.runs", 2, backend="batch")
        worker.gauge("selfstab.max_message_bits", 17)
        worker.histogram("span.run", 1.5)
        worker.histogram("span.run", 0.5)
        worker.event("engine.run", stage="ag", rounds=3)
        records = list(worker.events) + [worker.snapshot()]

        parent = Telemetry(clock=lambda: 0.0)
        parent.event("parent.start")
        parent.histogram("span.run", 4.0)
        absorbed = parent.absorb(records, job="j1")
        assert absorbed == len(records)
        stitched = parent.events_of("engine.run")
        assert stitched[0]["job"] == "j1"
        assert stitched[0]["source_seq"] == 0
        assert stitched[0]["seq"] == 1
        assert parent.counter_value("engine.runs", backend="batch") == 2
        agg = parent.histograms[parent._key("span.run", {})]
        assert agg.count == 3
        assert agg.total == 6.0
        assert agg.minimum == 0.5 and agg.maximum == 4.0

    def test_absorb_is_additive_across_workers(self):
        parent = Telemetry(clock=lambda: 0.0)
        for _ in range(3):
            worker = Telemetry(clock=lambda: 0.0)
            worker.counter("parallel.work")
            parent.absorb([worker.snapshot()])
        assert parent.counter_value("parallel.work") == 3

    def test_null_telemetry_absorb_is_noop(self):
        null = obs.core.NullTelemetry()
        assert null.absorb([{"type": "x"}]) == 0

    def test_histogram_merge_from_histogram(self):
        a, b = Histogram(), Histogram()
        a.record(1.0)
        b.record(3.0)
        b.record(5.0)
        a.merge(b)
        assert (a.count, a.total, a.minimum, a.maximum) == (3, 9.0, 1.0, 5.0)
        empty = Histogram()
        a.merge(empty)  # merging an empty aggregate changes nothing
        assert a.count == 3
