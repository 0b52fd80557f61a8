"""The sharded job runner: determinism, timeout, retry, fallback, stitching.

The load-bearing property is *bit-identity*: a job is a pure function of its
spec, so sequential and multi-process execution must produce byte-equal
outcomes (wall time aside).  Everything else — per-job timeouts that reclaim
a stuck worker, bounded retries, the inline fallback, telemetry stitched
into the parent stream — is exercised around that invariant.
"""

import time

import pytest

import repro
from repro import obs
from repro.parallel import (
    JobRunner,
    JobSpec,
    build_graph,
    execute_job,
    register_algorithm,
    run_many,
    sweep_specs,
)
from repro.parallel.jobs import _ALGORITHMS
from repro.parallel.runner import _multiprocessing_context


def _fork_available():
    context = _multiprocessing_context()
    return context is not None and getattr(context, "get_start_method", lambda: "")() == "fork"


def _specs(count, n=120, degree=6):
    return [
        JobSpec(algorithm="cor36", graph={"family": "regular", "n": n, "degree": degree, "seed": s}, seed=s)
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


class TestDeterminism:
    def test_parallel_bit_identical_to_sequential(self):
        if not _fork_available():
            pytest.skip("no usable multiprocessing context")
        specs = _specs(6)
        sequential = run_many(specs, workers=1)
        parallel = run_many(specs, workers=4, mode="process")
        assert [_deterministic(o) for o in parallel] == [
            _deterministic(o) for o in sequential
        ]
        assert all(o.ok for o in sequential)

    def test_chunked_dispatch_preserves_order_and_results(self):
        if not _fork_available():
            pytest.skip("process mode unavailable")
        specs = _specs(5, n=60, degree=4)
        plain = run_many(specs, workers=2, mode="process")
        chunked = run_many(specs, workers=2, mode="process", chunk_size=2)
        assert [_deterministic(o) for o in plain] == [_deterministic(o) for o in chunked]
        assert [o.spec.seed for o in chunked] == [s.seed for s in specs]

    def test_inline_mode_matches_process_mode(self):
        specs = _specs(3, n=60, degree=4)
        inline = run_many(specs, mode="inline")
        assert all(o.ok for o in inline)
        if _fork_available():
            process = run_many(specs, workers=2, mode="process")
            assert [_deterministic(o) for o in process] == [
                _deterministic(o) for o in inline
            ]

    def test_outcome_surface(self):
        outcome = repro.run(
            {"algorithm": "cor36", "graph": {"family": "regular", "n": 80, "degree": 6, "seed": 2}, "seed": 2}
        )
        assert outcome.ok
        graph = build_graph({"family": "regular", "n": 80, "degree": 6, "seed": 2})
        assert outcome.num_colors <= graph.max_degree + 1
        assert len(outcome.colors) == 80
        assert outcome.rounds > 0
        assert outcome.attempts == 1
        assert outcome.to_dict()["job"]["seed"] == 2


class TestTimeout:
    def test_stuck_job_times_out_and_pool_recovers(self, scratch_algorithm):
        if not _fork_available():
            pytest.skip("fork start method required to inherit the sleeper")

        def sleeper(graph, backend="auto", seed=1, **params):
            time.sleep(30)

        scratch_algorithm("sleeper", sleeper)
        stuck = JobSpec(algorithm="sleeper", graph={"family": "path", "n": 4})
        fine = JobSpec(algorithm="cor36", graph={"family": "regular", "n": 60, "degree": 4, "seed": 1}, seed=1)
        with JobRunner(workers=2, timeout=0.5, retries=0, mode="process") as runner:
            outcomes = runner.map_jobs([stuck, fine])
            assert not outcomes[0].ok
            assert outcomes[0].timed_out
            assert outcomes[0].error["kind"] == "TimeoutError"
            # The pool was terminated to reclaim the stuck worker; the
            # runner must still finish (and re-run) the undelivered job.
            assert outcomes[1].ok
            # ... and stay usable for the next batch.
            again = runner.submit(fine)
            assert again.ok

    def test_timeout_respects_retry_budget(self, scratch_algorithm):
        if not _fork_available():
            pytest.skip("fork start method required to inherit the sleeper")

        def sleeper(graph, backend="auto", seed=1, **params):
            time.sleep(30)

        scratch_algorithm("sleeper2", sleeper)
        spec = JobSpec(algorithm="sleeper2", graph={"family": "path", "n": 4})
        with JobRunner(workers=2, timeout=0.3, retries=1, mode="process") as runner:
            outcome = runner.submit(spec)
        assert outcome.timed_out
        assert outcome.attempts == 2  # first try + one bounded retry


class TestRetry:
    def test_persistent_failure_is_bounded(self, scratch_algorithm):
        def boom(graph, backend="auto", seed=1, **params):
            raise RuntimeError("always broken")

        scratch_algorithm("boom", boom)
        outcome = repro.run({"algorithm": "boom"}, retries=2)
        assert not outcome.ok
        assert outcome.attempts == 3
        assert outcome.error["kind"] == "RuntimeError"
        assert "always broken" in outcome.error["message"]

    def test_transient_failure_recovers_inline(self, scratch_algorithm):
        calls = {"count": 0}

        def flaky(graph, backend="auto", seed=1, **params):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient")
            from repro.recipes import delta_plus_one_coloring

            return delta_plus_one_coloring(graph, backend=backend)

        scratch_algorithm("flaky", flaky)
        outcome = repro.run({"algorithm": "flaky", "graph": {"family": "regular", "n": 60, "degree": 4, "seed": 1}}, retries=1)
        assert outcome.ok
        assert outcome.attempts == 2

    def test_unknown_algorithm_is_an_error_outcome(self):
        outcome = repro.run({"algorithm": "no-such-thing"}, retries=0)
        assert not outcome.ok
        assert outcome.error["kind"] == "ValueError"
        assert "unknown algorithm" in outcome.error["message"]

    def test_unknown_runner_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown runner mode"):
            JobRunner(mode="threads")


class TestTelemetryStitching:
    def test_worker_segments_merge_into_parent_stream(self):
        specs = _specs(3, n=60, degree=4)
        with obs.capture() as tel:
            outcomes = run_many(specs, workers=2)
        assert all(o.ok for o in outcomes)
        job_events = tel.events_of("parallel.job")
        assert [e["job"] for e in job_events] == [s.job_id for s in specs]
        assert tel.counter_value("parallel.jobs", ok=True) == 3
        # Worker-side engine events arrive tagged with their job id and in
        # job order, with fresh parent-local sequence numbers.
        engine_events = tel.events_of("engine.run")
        assert engine_events, "worker telemetry was not stitched"
        assert {e["job"] for e in engine_events} == {s.job_id for s in specs}
        seqs = [e["seq"] for e in tel.events]
        assert seqs == sorted(seqs) == list(range(len(seqs)))
        assert all("source_seq" in e for e in engine_events)

    def test_no_parent_collector_means_no_worker_capture(self):
        envelope = execute_job(_specs(1, n=40, degree=4)[0], collect_telemetry=False)
        assert envelope["ok"]
        assert envelope["telemetry"] == []


class TestSweep:
    def test_sweep_specs_cartesian_product(self):
        specs = sweep_specs([100, 200], [4, 8], [1, 2, 3])
        assert len(specs) == 12
        assert {(s.graph["n"], s.graph["degree"], s.seed) for s in specs} == {
            (n, d, s) for n in (100, 200) for d in (4, 8) for s in (1, 2, 3)
        }

    def test_run_sweep_outcomes(self):
        outcomes = repro.run_sweep([60], [4], [1, 2], workers=2)
        assert len(outcomes) == 2
        assert all(o.ok for o in outcomes)

    def test_selfstab_job(self):
        outcome = repro.run(
            {"algorithm": "selfstab", "graph": {"family": "regular", "n": 24, "degree": 4, "seed": 1}, "seed": 1}
        )
        assert outcome.ok, outcome.error
        assert outcome.summary["payload"]["legal"]
        assert outcome.num_colors <= 5


class TestSpecRoundTrip:
    def test_to_dict_from_dict_identity(self):
        spec = JobSpec(
            algorithm="exact",
            graph={"family": "gnp", "n": 50, "prob": 0.2, "seed": 7},
            backend="reference",
            seed=7,
            params={"check_proper_each_round": True},
            label="my-job",
        )
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.job_id == "my-job"

    def test_job_id_is_descriptive(self):
        spec = JobSpec(algorithm="cor36", graph={"family": "regular", "n": 99, "degree": 5}, seed=4)
        assert spec.job_id == "cor36-regular-n99-degree5-s4"

    def test_unknown_graph_family(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            build_graph({"family": "mobius"})

    def test_edges_family(self):
        graph = build_graph({"family": "edges", "n": 3, "edges": [(0, 1), (1, 2)]})
        assert graph.n == 3 and graph.m == 2
