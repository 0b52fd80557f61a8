"""The flight recorder: timeline export, sampling profiler, worker watchdog.

Three layers under test.  The Chrome-trace exporter must place spans from
different processes on distinct ``(pid, source)`` lanes with monotonic
timestamps; the sampling profiler must deliver a dense RSS/CPU timeline
without touching the collector from its background thread until ``stop``;
and the watchdog must surface a deliberately-stalled worker *before* the
job-timeout machinery reclaims it.  The JSONL torn-tail repair and the
``comparable_view`` stripping contract (flight stamps never break parity
checks) ride along, as does the multi-stream ``absorb`` merge that the
``obs summary`` / ``obs timeline`` CLI builds on.
"""

import io
import json
import os
import sys
import time

import pytest

from repro import obs
from repro.obs import flight
from repro.cli import main as cli_main
from repro.parallel import JobRunner, JobSpec, register_algorithm, run_many
from repro.parallel.jobs import _ALGORITHMS
from repro.parallel.runner import _multiprocessing_context

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import check_regression  # noqa: E402


def _fork_available():
    context = _multiprocessing_context()
    return (
        context is not None
        and getattr(context, "get_start_method", lambda: "")() == "fork"
    )


def run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def scratch_algorithm():
    registered = []

    def add(name, fn):
        register_algorithm(name, fn)
        registered.append(name)
        return fn

    yield add
    for name in registered:
        _ALGORITHMS.pop(name, None)


# -- identity stamping -----------------------------------------------------------------


class TestStamping:
    def test_events_and_spans_carry_ts_and_pid(self):
        with obs.capture(source="tester") as tel:
            tel.event("thing.happened", value=3)
            with tel.span("outer"):
                with tel.span("inner"):
                    pass
        for record in tel.events:
            assert isinstance(record["ts"], float)
            assert record["pid"] == os.getpid()
            assert record["source"] == "tester"
        spans = [r for r in tel.events if r["type"] == "span"]
        outer = next(r for r in spans if r["path"] == "outer")
        inner = next(r for r in spans if r["path"] == "outer/inner")
        # A span's ts is its *start*: inner nests inside outer on the axis.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["seconds"] <= outer["ts"] + outer["seconds"] + 1e-6

    def test_explicit_stamps_win_over_setdefault(self):
        with obs.capture() as tel:
            tel.event("replayed", ts=123.5, pid=42)
        record = tel.events[-1]
        assert record["ts"] == 123.5 and record["pid"] == 42

    def test_trace_context_round_trip(self):
        with obs.capture(source="parent") as tel:
            context = tel.trace_context()
            assert context["trace_id"] == tel.trace_id
            assert context["source"] == "parent"
        assert obs.active().trace_context() is None  # null collector

    def test_snapshot_carries_identity(self):
        with obs.capture() as tel:
            tel.counter("x")
        snapshot = tel.snapshot()
        assert snapshot["pid"] == os.getpid()
        assert snapshot["trace_id"] == tel.trace_id


# -- absorb re-sequencing (two interleaved workers, nested spans) ----------------------


class TestAbsorbMerge:
    def _worker_stream(self, source, base):
        clock = iter([base + t for t in (0.0, 0.01, 0.02, 0.03, 0.05, 0.08)])
        tel = obs.Telemetry(clock=lambda: next(clock), source=source)
        tel.pid = hash(source) % 10000 + 1000  # simulate a foreign pid
        with tel.span("job"):
            with tel.span("engine.run"):
                tel.event("engine.tick", round=0)
        return tel, list(tel.events) + [tel.snapshot()]

    def test_interleaved_absorb_preserves_pairing(self):
        tel_a, records_a = self._worker_stream("w-a", 100.0)
        tel_b, records_b = self._worker_stream("w-b", 100.005)
        parent = obs.Telemetry(source="main")
        # Interleave record-by-record: absorb must not rely on contiguity.
        for ra, rb in zip(records_a, records_b):
            parent.absorb([ra], job="a")
            parent.absorb([rb], job="b")
        merged = parent.events
        # Fresh local seq, foreign seq preserved.
        assert [r["seq"] for r in merged] == list(range(len(merged)))
        assert all("source_seq" in r for r in merged)
        for source, tel in (("w-a", tel_a), ("w-b", tel_b)):
            mine = [r for r in merged if r.get("source") == source]
            assert mine, "worker stream lost in merge"
            # Stamps survive verbatim (absorb never re-stamps).
            assert {r["pid"] for r in mine} == {tel.pid}
            spans = {r["path"]: r for r in mine if r["type"] == "span"}
            outer, inner = spans["job"], spans["job/engine.run"]
            # Open/close pairing still reconstructible after the merge:
            # the child interval nests inside the parent interval.
            assert outer["ts"] <= inner["ts"]
            assert inner["ts"] + inner["seconds"] <= outer["ts"] + outer["seconds"]
            tick = next(r for r in mine if r["type"] == "engine.tick")
            assert outer["ts"] <= tick["ts"] <= outer["ts"] + outer["seconds"]
        # Counter snapshots folded: each stream contributed one span pair.
        snapshot = parent.snapshot()
        span_rows = [
            row for row in snapshot["counters"] if row["name"] == "span.count"
        ]
        if span_rows:  # span.count only exists if core counts spans
            assert sum(row["value"] for row in span_rows) >= 4

    def test_absorbed_streams_render_on_distinct_lanes(self):
        _, records_a = self._worker_stream("w-a", 50.0)
        _, records_b = self._worker_stream("w-b", 50.002)
        parent = obs.Telemetry(source="main")
        parent.absorb(records_a)
        parent.absorb(records_b)
        trace = flight.chrome_trace(parent.events)
        lanes = {
            (e["pid"], e["tid"])
            for e in trace["traceEvents"]
            if e.get("ph") == "X"
        }
        assert len(lanes) == 2


# -- JSONL durability (satellite: flushed writer, torn-tail reader) --------------------


class TestJsonlDurability:
    def test_writer_flushes_per_record(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with open(path, "w") as handle:
            writer = obs.JsonlWriter(handle)
            writer.write({"type": "a", "seq": 0})
            # Visible to a concurrent reader *before* the writer closes.
            with open(path) as reader:
                assert json.loads(reader.read()) == {"type": "a", "seq": 0}
            writer.write({"type": "b", "seq": 1})
        assert len(obs.read_jsonl(str(path))) == 2

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        with obs.capture() as tel:
            tel.event("alpha")
            tel.event("beta")
        obs.write_jsonl(tel, str(path))
        intact = obs.read_jsonl(str(path))
        with open(path, "a") as handle:
            handle.write('{"type": "gamma", "tr')  # killed mid-write
        assert obs.read_jsonl(str(path)) == intact
        with pytest.raises(ValueError, match="unparseable JSONL record"):
            obs.read_jsonl(str(path), strict=True)

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"type": "a"}\nnot json at all\n{"type": "b"}\n')
        with pytest.raises(ValueError, match="line 2"):
            obs.read_jsonl(str(path))


# -- comparable_view (satellite: flight stamps never break parity) ---------------------


class TestComparableView:
    def test_flight_stamps_are_stripped(self):
        with obs.capture(source="main") as tel:
            with tel.span("engine.run", stage="linial"):
                pass
            tel.event("engine.run", stage="linial", rounds_used=3)
        view = obs.comparable_view(tel.events)
        for record in view:
            for field in ("ts", "pid", "source", "trace_id", "worker"):
                assert field not in record
        assert view[0]["path"] == "engine.run"  # structure retained

    def test_nondeterministic_record_types_are_dropped(self):
        records = [
            {"type": "engine.run", "seq": 0, "ts": 1.0, "rounds_used": 2},
            {"type": "profile.sample", "seq": 1, "ts": 1.1, "rss_bytes": 10},
            {"type": "worker.stalled", "seq": 2, "worker": 7},
            {"type": "worker.restarted", "seq": 3, "worker": 7},
            {"type": "worker.recovered", "seq": 4, "worker": 7},
            {"type": "worker.heartbeat", "seq": 5, "worker": 7},
        ]
        view = obs.comparable_view(records)
        assert [r["type"] for r in view] == ["engine.run"]

    def test_profiled_run_comparable_to_unprofiled(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL", "0.002")
        with obs.capture() as profiled:
            profiler = obs.maybe_profiler(profiled)
            with profiled.span("work"):
                time.sleep(0.01)
            profiler.stop()
        monkeypatch.delenv("REPRO_PROFILE")
        with obs.capture() as plain:
            with plain.span("work"):
                time.sleep(0.01)
        stripped = [
            {k: v for k, v in r.items() if k != "seconds"}
            for r in obs.comparable_view(profiled.events)
        ]
        stripped_plain = [
            {k: v for k, v in r.items() if k != "seconds"}
            for r in obs.comparable_view(plain.events)
        ]
        assert stripped == stripped_plain


# -- sampling profiler -----------------------------------------------------------------


class TestSamplingProfiler:
    def test_buffers_then_flushes_samples(self):
        with obs.capture() as tel:
            profiler = flight.SamplingProfiler(tel, interval=0.002)
            profiler.start()
            deadline = time.monotonic() + 0.08
            while time.monotonic() < deadline:
                sum(range(1000))
            assert not tel.events, "sampler must not touch the collector live"
            count = profiler.stop()
        samples = [r for r in tel.events if r["type"] == "profile.sample"]
        assert len(samples) == count >= 10
        for sample in samples:
            assert sample["rss_bytes"] > 0
            assert sample["cpu_seconds"] >= 0.0
        stamps = [s["ts"] for s in samples]
        assert stamps == sorted(stamps)
        gauges = {
            (row["name"]): row["value"] for row in tel.snapshot()["gauges"]
        }
        assert gauges["profile.peak_rss_bytes"] == max(
            s["rss_bytes"] for s in samples
        )
        assert gauges["profile.samples"] == len(samples)

    def test_disabled_collector_is_a_no_op(self):
        profiler = flight.SamplingProfiler(obs.active(), interval=0.001)
        assert profiler.start() is profiler
        assert profiler._thread is None
        assert profiler.stop() == 0

    def test_maybe_profiler_requires_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        with obs.capture() as tel:
            assert obs.maybe_profiler(tel) is None
        monkeypatch.setenv("REPRO_PROFILE", "1")
        with obs.capture() as tel:
            profiler = obs.maybe_profiler(tel)
            assert profiler is not None
            # One profiler per collector: nested calls must not double-sample.
            assert obs.maybe_profiler(tel) is None
            profiler.stop()
            assert obs.maybe_profiler(tel) is not None  # slot freed after stop

    def test_registered_sampler_fields_appear(self):
        flight.register_sampler("test.gauge", lambda: {"custom_depth": 7})
        try:
            with obs.capture() as tel:
                profiler = flight.SamplingProfiler(tel, interval=0.001)
                profiler.start()
                time.sleep(0.01)
                profiler.stop()
        finally:
            flight.unregister_sampler("test.gauge")
        samples = [r for r in tel.events if r["type"] == "profile.sample"]
        assert samples and all(s["custom_depth"] == 7 for s in samples)

    def test_broken_sampler_is_swallowed(self):
        def boom():
            raise RuntimeError("bad gauge")

        flight.register_sampler("test.broken", boom)
        try:
            with obs.capture() as tel:
                with flight.SamplingProfiler(tel, interval=0.001):
                    time.sleep(0.005)
        finally:
            flight.unregister_sampler("test.broken")
        assert any(r["type"] == "profile.sample" for r in tel.events)


# -- Chrome-trace export ---------------------------------------------------------------


class TestChromeTrace:
    def test_span_becomes_complete_event(self):
        records = [
            {
                "type": "span", "seq": 0, "name": "engine.run",
                "path": "pipeline.run/engine.run", "seconds": 0.25,
                "ts": 100.0, "pid": 11, "source": "job-1", "stage": "linial",
            },
            {"type": "span", "seq": 1, "name": "pipeline.run",
             "path": "pipeline.run", "seconds": 0.5, "ts": 99.9, "pid": 11,
             "source": "job-1"},
        ]
        trace = flight.chrome_trace(records)
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 2
        engine = next(e for e in complete if e["name"] == "engine.run")
        # Normalized to the earliest ts (99.9), in microseconds.
        assert engine["ts"] == pytest.approx(0.1e6)
        assert engine["dur"] == pytest.approx(0.25e6)
        assert engine["pid"] == 11
        assert engine["args"]["stage"] == "linial"
        names = [
            e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"
        ]
        assert "job-1" in names  # lane labelled by source

    def test_samples_become_counter_tracks(self):
        records = [
            {"type": "profile.sample", "seq": 0, "ts": 1.0, "pid": 5,
             "rss_bytes": 1000, "cpu_seconds": 0.5},
            {"type": "profile.sample", "seq": 1, "ts": 1.1, "pid": 5,
             "rss_bytes": 2000, "cpu_seconds": 0.6},
        ]
        trace = flight.chrome_trace(records)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        rss = [e for e in counters if e["name"] == "rss_bytes"]
        assert [e["args"]["rss_bytes"] for e in rss] == [1000, 2000]

    def test_unstamped_and_snapshot_records_are_skipped(self):
        records = [
            {"type": "span", "seq": 0, "name": "x", "seconds": 0.1},  # no ts
            {"type": "snapshot", "counters": [], "gauges": [],
             "histograms": [], "ts": 5.0},
            {"type": "note", "seq": 1, "ts": 2.0, "pid": 3, "detail": "hi"},
        ]
        trace = flight.chrome_trace(records)
        kinds = [e["ph"] for e in trace["traceEvents"] if e["ph"] != "M"]
        assert kinds == ["i"]

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        with obs.capture(source="main") as tel:
            with tel.span("alpha"):
                pass
        destination = tmp_path / "trace.json"
        count = flight.write_chrome_trace(tel.events, str(destination))
        with open(destination) as handle:
            trace = json.load(handle)
        assert len(trace["traceEvents"]) == count
        assert trace["displayTimeUnit"] == "ms"


# -- worker heartbeats and the watchdog ------------------------------------------------


class TestHeartbeatBoard:
    def test_beat_read_clear(self):
        with flight.HeartbeatBoard() as board:
            board.beat(ident=111)
            board.beat(ident=222)
            beats = board.read()
            assert set(beats) == {111, 222}
            assert all(isinstance(v, float) for v in beats.values())
            board.clear()
            assert board.read() == {}
        assert not os.path.exists(board.path)

    def test_torn_write_is_skipped(self):
        with flight.HeartbeatBoard() as board:
            board.beat(ident=1)
            with open(os.path.join(board.path, "2"), "w") as handle:
                handle.write("12.")  # parseable float prefix is fine
            with open(os.path.join(board.path, "3"), "w") as handle:
                handle.write("")  # torn to nothing
            beats = board.read()
            assert 1 in beats and 3 not in beats

    def test_beat_never_raises_on_dead_board(self):
        flight.beat("/nonexistent/board/path")  # must not raise
        flight.beat(None)
        flight.beat("")


class TestWorkerWatchdog:
    def _watchdog(self, tel, stall=0.5):
        board = flight.HeartbeatBoard()
        return flight.WorkerWatchdog(tel, board, stall_after=stall), board

    def test_stall_detected_once_then_recovery(self):
        clock = [0.0]
        with obs.capture() as tel:
            board = flight.HeartbeatBoard()
            dog = flight.WorkerWatchdog(
                tel, board, stall_after=1.0, clock=lambda: clock[0]
            )
            with board:
                with open(os.path.join(board.path, "77"), "w") as handle:
                    handle.write("0.0")
                assert dog.poll() == []  # first sighting: fresh
                clock[0] = 2.0
                assert dog.poll() == [77]  # aged past the threshold
                assert dog.poll() == [77]  # still stalled, but only one event
                with open(os.path.join(board.path, "77"), "w") as handle:
                    handle.write("1.9")
                assert dog.poll() == []  # came back on its own
        stalls = [r for r in tel.events if r["type"] == "worker.stalled"]
        assert len(stalls) == 1
        assert stalls[0]["worker"] == 77
        assert stalls[0]["stalled_seconds"] >= 1.0
        assert any(r["type"] == "worker.recovered" for r in tel.events)
        counters = {
            row["name"]: row["value"] for row in tel.snapshot()["counters"]
        }
        assert counters["parallel.worker.stalls"] == 1

    def test_restart_notice_emits_per_stalled_worker(self):
        clock = [10.0]
        with obs.capture() as tel:
            board = flight.HeartbeatBoard()
            dog = flight.WorkerWatchdog(
                tel, board, stall_after=0.5, clock=lambda: clock[0]
            )
            with board:
                with open(os.path.join(board.path, "5"), "w") as handle:
                    handle.write("10.0")
                dog.poll()
                clock[0] = 12.0
                assert dog.poll() == [5]
                dog.notice_restart()
                assert dog.restarts == 1
                assert board.read() == {}  # board cleared for fresh pids
        restarted = [r for r in tel.events if r["type"] == "worker.restarted"]
        assert [r["worker"] for r in restarted] == [5]

    def test_record_job_tallies_utilization(self):
        with obs.capture() as tel:
            dog, board = self._watchdog(tel)
            with board:
                dog.record_job(101)
                dog.record_job(101)
                dog.record_job(202)
                dog.record_job(None)  # inline outcome: no worker
        rows = {
            (row["tags"].get("worker")): row["value"]
            for row in tel.snapshot()["counters"]
            if row["name"] == "parallel.worker.jobs"
        }
        assert rows == {101: 2, 202: 1}


# -- end-to-end through the pool -------------------------------------------------------


class TestPoolIntegration:
    def test_stalled_worker_surfaces_before_timeout(self, scratch_algorithm):
        if not _fork_available():
            pytest.skip("fork start method required to inherit the sleeper")

        def slow(graph, backend="auto", seed=1, **params):
            time.sleep(30)

        scratch_algorithm("flight-slow", slow)
        spec = JobSpec(algorithm="flight-slow", graph={"family": "path", "n": 4})
        os.environ["REPRO_STALL_SECONDS"] = "0.2"
        try:
            with obs.capture() as tel:
                with JobRunner(
                    workers=2, timeout=1.5, retries=0, mode="process"
                ) as runner:
                    outcomes = runner.map_jobs([spec])
        finally:
            del os.environ["REPRO_STALL_SECONDS"]
        assert outcomes[0].timed_out
        stalled = [r for r in tel.events if r["type"] == "worker.stalled"]
        assert stalled, "watchdog must fire before the 1.5s timeout"
        # The stall notice predates the pool teardown that the timeout forces.
        restarted = [r for r in tel.events if r["type"] == "worker.restarted"]
        assert restarted and stalled[0]["seq"] < restarted[0]["seq"]
        counters = {
            row["name"]: row["value"] for row in tel.snapshot()["counters"]
        }
        assert counters["parallel.worker.stalls"] >= 1
        assert counters["parallel.worker.restarts"] >= 1

    def test_watchdog_disabled_by_env(self, scratch_algorithm):
        if not _fork_available():
            pytest.skip("fork start method required to inherit the sleeper")

        def slow(graph, backend="auto", seed=1, **params):
            time.sleep(30)

        scratch_algorithm("flight-slow2", slow)
        spec = JobSpec(algorithm="flight-slow2", graph={"family": "path", "n": 4})
        os.environ["REPRO_DISABLE_WATCHDOG"] = "1"
        os.environ["REPRO_STALL_SECONDS"] = "0.2"
        try:
            with obs.capture() as tel:
                with JobRunner(
                    workers=2, timeout=0.8, retries=0, mode="process"
                ) as runner:
                    runner.map_jobs([spec])
        finally:
            del os.environ["REPRO_DISABLE_WATCHDOG"]
            del os.environ["REPRO_STALL_SECONDS"]
        assert not any(r["type"] == "worker.stalled" for r in tel.events)

    def test_worker_spans_from_two_pids_on_distinct_lanes(
        self, scratch_algorithm, tmp_path
    ):
        if not _fork_available():
            pytest.skip("fork start method required to inherit the tracer")

        def traced(graph, backend="auto", seed=1, **params):
            with obs.active().span("traced.work"):
                time.sleep(0.3)
            return _ALGORITHMS["cor36"](graph, backend=backend, seed=seed)

        scratch_algorithm("flight-traced", traced)
        specs = [
            JobSpec(
                algorithm="flight-traced",
                graph={"family": "path", "n": 8, "seed": s},
                seed=s,
            )
            for s in (1, 2)
        ]
        with obs.capture(source="main") as tel:
            run_many(specs, workers=2, mode="process", chunk_size=1)
        jsonl = tmp_path / "pool.jsonl"
        obs.write_jsonl(tel, str(jsonl))
        trace_path = tmp_path / "pool-trace.json"
        code, text = run_cli(
            ["obs", "timeline", str(jsonl), "-o", str(trace_path)]
        )
        assert code == 0 and "trace events" in text
        with open(trace_path) as handle:
            trace = json.load(handle)
        spans = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "traced.work"
        ]
        # Two workers, 0.3s each, chunk_size=1: both pids must appear.
        pids = {e["pid"] for e in spans}
        assert len(pids) == 2, "expected spans from two worker pids"
        lanes = {(e["pid"], e["tid"]) for e in spans}
        assert len(lanes) == 2
        for event in spans:
            assert isinstance(event["ts"], float) and event["ts"] >= 0.0
            assert event["dur"] >= 0.29e6


# -- the oocore profiled run (acceptance: >=10 RSS samples at n >= 10^6) ---------------


class TestOocoreProfiling:
    def test_profiled_greedy_at_one_million(self, monkeypatch):
        from repro.oocore.engine import oocore_greedy
        from repro.oocore.writers import ensure_sharded

        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL", "0.002")
        sharded = ensure_sharded(
            {"family": "regular", "n": 1_000_000, "degree": 4, "seed": 9}
        )
        with obs.capture() as tel:
            colors = oocore_greedy(sharded)
        assert len(colors) == 1_000_000
        assert max(colors) <= 4  # first-fit on a 4-regular graph
        samples = [
            r
            for r in tel.events
            if r["type"] == "profile.sample" and r.get("rss_bytes")
        ]
        assert len(samples) >= 10, (
            "profiled oocore run must record >= 10 RSS samples, got %d"
            % len(samples)
        )
        assert max(s["rss_bytes"] for s in samples) > 0

    def test_engine_run_registers_residency_sampler(self, monkeypatch):
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine
        from repro.oocore.writers import ensure_sharded

        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL", "0.001")
        sharded = ensure_sharded(
            {"family": "regular", "n": 4000, "degree": 4, "seed": 3}, shards=4
        )
        with obs.capture() as tel:
            OocoreColoringEngine(sharded).run(
                LinialColoring(), list(range(sharded.n))
            )
        samples = [r for r in tel.events if r["type"] == "profile.sample"]
        assert samples
        with_residency = [s for s in samples if "oocore.shards" in s]
        assert with_residency, "oocore residency sampler never contributed"
        assert with_residency[0]["oocore.shards"] == 4
        assert with_residency[0]["oocore.plane_bytes"] > 0
        # Sampler unregistered after the run: a later profile is clean.
        assert "oocore" not in flight._SAMPLERS


# -- the telemetry-overhead gate -------------------------------------------------------


class TestOverheadGate:
    def test_measure_overhead_shape(self):
        measured = check_regression.measure_overhead(repeats=2)
        assert measured["null_seconds"] > 0
        assert measured["telemetry_seconds"] > 0
        assert measured["ratio"] > 0

    def test_generous_limit_passes_and_tight_limit_fails(self):
        failures, lines = check_regression.check_overhead(1000.0)
        assert failures == [] and len(lines) == 1
        failures, _ = check_regression.check_overhead(1e-9)
        assert failures and "overhead" in failures[0]


# -- CLI surface -----------------------------------------------------------------------


class TestCliSurface:
    def test_timeline_from_telemetry_file(self, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        code, _ = run_cli(
            ["color", "--n", "32", "--degree", "4", "--telemetry", str(jsonl)]
        )
        assert code == 0
        trace_path = tmp_path / "trace.json"
        code, text = run_cli(["obs", "timeline", str(jsonl), "-o", str(trace_path)])
        assert code == 0
        with open(trace_path) as handle:
            trace = json.load(handle)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert spans
        assert all(e["pid"] for e in spans)

    def test_timeline_to_stdout(self, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        run_cli(["color", "--n", "24", "--degree", "4", "--telemetry", str(jsonl)])
        code, text = run_cli(["obs", "timeline", str(jsonl)])
        assert code == 0
        trace = json.loads(text)
        assert "traceEvents" in trace

    def test_summary_merges_multiple_files(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(["color", "--n", "24", "--degree", "4", "--telemetry", str(first)])
        run_cli(["color", "--n", "32", "--degree", "4", "--telemetry", str(second)])
        code, merged = run_cli(["obs", "summary", str(first), str(second)])
        assert code == 0
        _, single = run_cli(["obs", "summary", str(first)])
        # Two engine-run streams fold into one table with both runs' rows
        # (counters/histograms merge instead, so compare the runs section).
        merged_runs = merged.split("\nspans")[0]
        single_runs = single.split("\nspans")[0]
        assert merged_runs.count("additive-group") == 2 * single_runs.count(
            "additive-group"
        )

    def test_summary_reads_stdin(self, tmp_path, monkeypatch):
        jsonl = tmp_path / "run.jsonl"
        run_cli(["color", "--n", "24", "--degree", "4", "--telemetry", str(jsonl)])
        monkeypatch.setattr("sys.stdin", io.StringIO(jsonl.read_text()))
        code, text = run_cli(["obs", "summary", "-"])
        assert code == 0
        assert "engine runs" in text

    def test_profile_flag_samples_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL", "0.002")
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        jsonl = tmp_path / "profiled.jsonl"
        code, _ = run_cli(
            ["color", "--n", "64", "--degree", "6", "--telemetry", str(jsonl),
             "--profile"]
        )
        assert code == 0
        assert "REPRO_PROFILE" not in os.environ  # scoped to the command
        records = obs.read_jsonl(str(jsonl))
        assert any(r.get("type") == "profile.sample" for r in records)
