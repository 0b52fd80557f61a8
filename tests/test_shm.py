"""The shared-memory fan-out plane: lifecycle, parity, degradation.

The two load-bearing properties are *no leaks* — every ``/dev/shm`` entry
the parent creates is gone after the runner closes, times out, or falls
back inline — and *bit-identity*: outcomes through the shm plane equal the
by-value outcomes byte for byte (``shm=False`` is the differential escape
hatch).
"""

import os
import time

import pytest

from repro.parallel import JobRunner, JobSpec, build_graph, clear_graph_cache, run_many
from repro.parallel.jobs import _ALGORITHMS
from repro.parallel.runner import _multiprocessing_context
from repro.parallel.shm import (
    COLORS_KEY,
    SEGMENT_PREFIX,
    SegmentManager,
    ShmPlane,
    attach_graph,
    export_graph,
    offload_colors,
    restore_colors,
    shm_available,
)
from repro.parallel import register_algorithm
from repro.graphgen import random_regular


def _fork_available():
    context = _multiprocessing_context()
    return context is not None and getattr(context, "get_start_method", lambda: "")() == "fork"


def _needs_shm():
    if not shm_available():
        pytest.skip("shared memory unavailable")


def _shm_leaks():
    """Names of leaked repro segments visible in /dev/shm (Linux only)."""
    if not os.path.isdir("/dev/shm"):
        return []
    return sorted(e for e in os.listdir("/dev/shm") if e.startswith(SEGMENT_PREFIX))


def _specs(count, n=120, degree=6, seed=None):
    """``count`` jobs; ``seed`` pins one shared topology across all of them."""
    return [
        JobSpec(
            algorithm="cor36",
            graph={"family": "regular", "n": n, "degree": degree, "seed": seed if seed is not None else s},
            seed=s,
        )
        for s in range(1, count + 1)
    ]


def _deterministic(outcome):
    data = outcome.to_dict()
    data.pop("seconds")
    return data


@pytest.fixture
def scratch_algorithm():
    """Register a throwaway algorithm; unregister afterwards."""
    registered = []

    def add(name, fn):
        register_algorithm(name, fn)
        registered.append(name)
        return fn

    yield add
    for name in registered:
        _ALGORITHMS.pop(name, None)


@pytest.fixture(autouse=True)
def _fresh_graph_cache():
    """Keep cross-test cache state out of the export-policy assertions."""
    clear_graph_cache()
    yield
    clear_graph_cache()


class TestSegmentManager:
    def test_create_get_release_roundtrip(self):
        _needs_shm()
        manager = SegmentManager()
        segment = manager.create(64)
        assert segment.name.startswith(SEGMENT_PREFIX)
        assert manager.get(segment.name) is segment
        assert manager.names() == [segment.name]
        assert len(manager) == 1
        manager.release(segment.name)
        assert manager.get(segment.name) is None
        assert len(manager) == 0
        # Idempotent: a second release of the same name is a no-op.
        manager.release(segment.name)
        assert _shm_leaks() == []

    def test_close_releases_everything(self):
        _needs_shm()
        manager = SegmentManager()
        names = [manager.create(32).name for _ in range(3)]
        assert len(manager) == 3
        manager.close()
        assert len(manager) == 0
        for name in names:
            assert name not in _shm_leaks()


class TestAttachedGraph:
    def _attached(self, manager, graph):
        meta = export_graph(manager, graph)
        assert meta is not None
        return attach_graph(meta)

    def test_query_surface_matches_static_graph(self):
        _needs_shm()
        manager = SegmentManager()
        try:
            graph = random_regular(80, 6, seed=3)
            view, segment = self._attached(manager, graph)
            assert view.n == graph.n
            assert view.m == graph.m
            assert view.max_degree == graph.max_degree
            assert list(view.ids) == list(graph.ids)
            assert list(view.vertices()) == list(graph.vertices())
            for v in graph.vertices():
                assert view.neighbors(v) == tuple(graph.neighbors(v))
                assert view.degree(v) == graph.degree(v)
            assert view.edges == tuple(graph.edges)
            assert view.has_edge(*graph.edges[0])
            u, w = graph.edges[0]
            assert not view.has_edge(u, u)
            assert view.bfs_distances([0]) == graph.bfs_distances([0])
            sub_view, index_view = view.subgraph(range(10))
            sub_ref, index_ref = graph.subgraph(range(10))
            assert index_view == index_ref
            assert sub_view.n == sub_ref.n
            assert sorted(sub_view.edges) == sorted(sub_ref.edges)
            del view
            segment.close()
        finally:
            manager.close()

    def test_csr_from_arrays_matches_fresh_csr(self):
        _needs_shm()
        manager = SegmentManager()
        try:
            graph = random_regular(60, 4, seed=7)
            view, segment = self._attached(manager, graph)
            shared = view.csr()
            fresh = graph.csr()
            for field in ("indptr", "indices", "rows", "degrees", "edge_u", "edge_v"):
                assert getattr(shared, field).tolist() == getattr(fresh, field).tolist()
            assert shared.n == fresh.n and shared.m == fresh.m
            # Zero-copy: the adjacency arrays are views into the segment.
            assert not shared.indptr.flags.owndata
            assert not shared.indices.flags.owndata
            del view, shared
            segment.close()
        finally:
            manager.close()


class TestColorPlane:
    def _meta(self, manager, capacity):
        segment = manager.create(capacity * 8)
        return {"segment": segment.name, "capacity": capacity}

    def _envelope(self, colors):
        return {"ok": True, "summary": {"payload": {"colors": colors}}}

    def test_offload_restore_roundtrip(self):
        _needs_shm()
        manager = SegmentManager()
        try:
            meta = self._meta(manager, 8)
            colors = [5, 1, 3, 2, 0, 4]
            envelope = self._envelope(list(colors))
            offload_colors(envelope, meta)
            marker = envelope["summary"]["payload"]["colors"]
            assert marker == {COLORS_KEY: len(colors)}
            restore_colors(envelope, meta, manager)
            assert envelope["summary"]["payload"]["colors"] == colors
        finally:
            manager.close()

    @pytest.mark.parametrize(
        "colors",
        [
            [0.5, 1.0],  # floats
            [0, 1, 2, 3, 4, 5, 6, 7, 8],  # longer than capacity
            {"not": "a list"},
            [1 << 70],  # overflows int64
        ],
    )
    def test_unrepresentable_colors_stay_by_value(self, colors):
        _needs_shm()
        manager = SegmentManager()
        try:
            meta = self._meta(manager, 8)
            envelope = self._envelope(colors)
            offload_colors(envelope, meta)
            assert envelope["summary"]["payload"]["colors"] == colors
        finally:
            manager.close()

    def test_failed_envelope_untouched(self):
        _needs_shm()
        manager = SegmentManager()
        try:
            meta = self._meta(manager, 8)
            envelope = {"ok": False, "summary": None, "error": {"kind": "X"}}
            offload_colors(envelope, meta)
            assert envelope["summary"] is None
        finally:
            manager.close()


class TestExportPolicy:
    def test_unique_topologies_ship_by_value(self):
        _needs_shm()
        manager = SegmentManager()
        try:
            specs = _specs(3)  # three distinct graph seeds, nothing cached
            payloads = [{"spec": s.to_dict()} for s in specs]
            plane = ShmPlane(manager)
            plane.annotate(specs, payloads)
            assert all("shm_graph" not in p for p in payloads)
            # Color segments are tiny and always created.
            assert all("shm_colors" in p for p in payloads)
            plane.close()
        finally:
            manager.close()
        assert _shm_leaks() == []

    def test_shared_topology_exports_one_refcounted_segment(self):
        _needs_shm()
        manager = SegmentManager()
        try:
            specs = _specs(3, seed=1)  # one topology, three algorithm seeds
            payloads = [{"spec": s.to_dict()} for s in specs]
            plane = ShmPlane(manager)
            plane.annotate(specs, payloads)
            names = {p["shm_graph"]["segment"] for p in payloads}
            assert len(names) == 1
            (name,) = names
            assert plane._graph_refs[name] == 3
            # Finalizing each job decrements; the segment dies with the last.
            for index in range(3):
                assert manager.get(name) is not None
                plane.finalize(index, {"ok": True, "summary": {"payload": {}}})
            assert manager.get(name) is None
        finally:
            manager.close()
        assert _shm_leaks() == []

    def test_cached_topology_exports_even_for_single_job(self):
        _needs_shm()
        specs = _specs(1)
        build_graph(specs[0].graph)  # parent cache holds the topology
        manager = SegmentManager()
        try:
            payloads = [{"spec": specs[0].to_dict()}]
            plane = ShmPlane(manager)
            plane.annotate(specs, payloads)
            assert "shm_graph" in payloads[0]
            plane.close()
        finally:
            manager.close()
        assert _shm_leaks() == []

    def test_budget_exhaustion_degrades_to_by_value(self):
        _needs_shm()
        manager = SegmentManager()
        try:
            specs = _specs(2, seed=1)
            payloads = [{"spec": s.to_dict()} for s in specs]
            plane = ShmPlane(manager, budget=8)  # too small for anything
            plane.annotate(specs, payloads)
            assert all("shm_graph" not in p for p in payloads)
            assert all("shm_colors" not in p for p in payloads)
            plane.close()
        finally:
            manager.close()


class TestRunnerLifecycle:
    def test_no_leaks_after_runner_exit(self):
        _needs_shm()
        if not _fork_available():
            pytest.skip("process mode unavailable")
        specs = _specs(4, seed=1)
        with JobRunner(workers=2, mode="process") as runner:
            outcomes = runner.map_jobs(specs)
        assert all(o.ok for o in outcomes)
        assert _shm_leaks() == []

    def test_no_leaks_after_timeout_pool_rebuild(self, scratch_algorithm):
        _needs_shm()
        if not _fork_available():
            pytest.skip("fork start method required to inherit the sleeper")

        def sleeper(graph, backend="auto", seed=1, **params):
            time.sleep(30)

        scratch_algorithm("shm_sleeper", sleeper)
        stuck = JobSpec(algorithm="shm_sleeper", graph={"family": "path", "n": 4})
        fine = _specs(2, seed=1)
        with JobRunner(workers=2, timeout=0.5, retries=0, mode="process") as runner:
            outcomes = runner.map_jobs([stuck] + fine)
            assert outcomes[0].timed_out
            assert all(o.ok for o in outcomes[1:])
        assert _shm_leaks() == []

    def test_no_leaks_in_inline_fallback(self):
        _needs_shm()
        outcomes = run_many(_specs(2, seed=1), workers=1)
        assert all(o.ok for o in outcomes)
        assert _shm_leaks() == []

    def test_workers_receive_shared_graph_view(self, scratch_algorithm):
        _needs_shm()
        if not _fork_available():
            pytest.skip("fork start method required to inherit the recorder")

        class Probe:
            def __init__(self, graph):
                self.colors = [0] * graph.n
                self.rounds = 0
                # A graph over the attached segment does not own its CSR
                # buffers; a regenerated one does.
                self.owns_indptr = bool(graph.csr().indptr.flags.owndata)

            def to_dict(self):
                return {"owns_indptr": self.owns_indptr}

        def recorder(graph, backend="auto", seed=1, **params):
            return Probe(graph)

        scratch_algorithm("shm_recorder", recorder)
        specs = [
            JobSpec(
                algorithm="shm_recorder",
                graph={"family": "regular", "n": 60, "degree": 4, "seed": 1},
                seed=s,
            )
            for s in (1, 2)
        ]
        with JobRunner(workers=2, mode="process") as runner:
            outcomes = runner.map_jobs(specs)
        assert all(o.ok for o in outcomes)
        owned = {o.summary["payload"]["owns_indptr"] for o in outcomes}
        assert owned == {False}
        assert _shm_leaks() == []

    def test_shm_disabled_is_bit_identical(self):
        _needs_shm()
        if not _fork_available():
            pytest.skip("process mode unavailable")
        specs = _specs(3, seed=1)
        baseline = run_many(specs, workers=2, mode="process", shm=False)
        enabled = run_many(specs, workers=2, mode="process")
        required = run_many(specs, workers=2, mode="process", shm=True)
        views = [[_deterministic(o) for o in outcomes] for outcomes in (baseline, enabled, required)]
        assert views[0] == views[1] == views[2]
        assert all(o.ok for o in baseline)
        assert _shm_leaks() == []

    def test_shm_true_without_support_raises(self, monkeypatch):
        from repro.parallel import shm

        if not _fork_available():
            pytest.skip("process mode unavailable")
        monkeypatch.setattr(shm, "shared_memory_or_none", lambda: None)
        specs = _specs(2, seed=1)
        with pytest.raises(RuntimeError, match="shared-memory"):
            run_many(specs, workers=2, mode="process", shm=True)


class TestCleanupOrdering:
    """Satellite: segment teardown stays leak-free in the ugly paths."""

    def test_forked_child_close_closes_inherited_mappings(self):
        _needs_shm()
        if not _fork_available():
            pytest.skip("fork start method required")
        manager = SegmentManager()
        try:
            segment = manager.create(64)
            name = segment.name
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # child
                os.close(read_fd)
                try:
                    manager.close()
                    # close() in the child must drop the mapping but must
                    # NOT unlink: the parent still owns the segment.
                    ok = len(manager) == 0 and os.path.exists("/dev/shm/" + name)
                    os.write(write_fd, b"1" if ok else b"0")
                finally:
                    os._exit(0)
            os.close(write_fd)
            verdict = os.read(read_fd, 1)
            os.close(read_fd)
            os.waitpid(pid, 0)
            assert verdict == b"1"
            # The parent's bookkeeping is untouched by the child's close.
            assert manager.get(name) is segment
        finally:
            manager.close()
        assert _shm_leaks() == []

    def test_cleanup_survives_a_raising_manager(self):
        _needs_shm()
        from repro.parallel.shm import _cleanup_managers

        bad = SegmentManager()
        good = SegmentManager()
        try:
            name = good.create(32).name

            def explode():
                raise BufferError("view still exported")

            bad.close = explode
            _cleanup_managers()
            # The raising manager must not stop the healthy one.
            assert name not in _shm_leaks()
        finally:
            del bad.close
            bad.close()
            good.close()
        assert _shm_leaks() == []

    def test_partition_runner_releases_halo_segments(self):
        _needs_shm()
        if not _fork_available():
            pytest.skip("process mode unavailable")
        import tempfile

        from repro.core.ag import AdditiveGroupColoring
        from repro.oocore.engine import OocoreColoringEngine
        from repro.oocore.writers import shard_static_graph

        graph = random_regular(80, 5, seed=3)
        sharded = shard_static_graph(
            graph, tempfile.mkdtemp(prefix="shm-partition-test-"), shards=4
        )
        result = OocoreColoringEngine(sharded, workers=2).run(
            AdditiveGroupColoring(), list(range(80))
        )
        assert len(result.int_colors) == 80
        assert _shm_leaks() == []

    def test_partition_runner_cleans_up_after_worker_failure(self):
        _needs_shm()
        if not _fork_available():
            pytest.skip("process mode unavailable")
        import tempfile

        from repro.core.ag import AdditiveGroupColoring
        from repro.errors import ImproperColoringError
        from repro.oocore.engine import OocoreColoringEngine
        from repro.oocore.writers import shard_static_graph

        graph = random_regular(60, 4, seed=2)
        sharded = shard_static_graph(
            graph, tempfile.mkdtemp(prefix="shm-partition-test-"), shards=4
        )
        engine = OocoreColoringEngine(
            sharded, workers=2, check_proper_each_round=True
        )
        with pytest.raises(ImproperColoringError):
            engine.run(
                AdditiveGroupColoring(), [0] * 60, in_palette_size=60
            )
        assert _shm_leaks() == []
