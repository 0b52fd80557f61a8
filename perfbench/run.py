"""Layered benchmark of the repro simulator.

Run from the repository root::

    python3 perfbench/run.py --workload cor36-warm --seed 1 --seconds 25 --trace 0

One workload per process, one client, inline (``workers=1``), no pool.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``perfbench/NOTES.md`` for the workloads, the metric definitions and the
per-layer map.
"""

import os
import sys
import time

_START = time.perf_counter()

# Pinned before NumPy loads: the float64 matmul in mathutil/gf.py is the only
# BLAS call on these paths, and one thread keeps runs free of extra threads.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# The program's knobs come from the workload alone, not the caller's shell.
for _var in [key for key in os.environ if key.startswith("REPRO_")]:
    del os.environ[_var]


def _pin_malloc():
    """Fix glibc's mmap/trim thresholds at the values its dynamic tuning
    reaches in a warmed process (32 MiB / 64 MiB).

    Left dynamic, the thresholds depend on which large blocks the process
    happened to free earlier: the same burst then runs 0.31 s or 0.47 s
    depending on how many setups preceded it, because every round's NumPy
    temporaries are either reused from the heap or mapped and faulted in
    afresh.  Pinning them makes job times independent of process history.
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(
        libc.mallopt(m_mmap_threshold, 32 << 20) and libc.mallopt(m_trim_threshold, 64 << 20)
    )


MALLOC_PINNED = _pin_malloc()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
SETUP_REPEATS = 3
MIN_CYCLES = 2
WORKLOAD_NAMES = ("cor36-warm", "selfstab-bursts", "oocore-cor36")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Session:
    """Runs jobs of one workload, keeping every attempted operation."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.records = []
        self.next_job = 0

    def add(self, record):
        self.records.append(record)
        return record

    def job(self, key, capture=False):
        """Prepare, run (timed) and verify one job."""
        from repro.obs import core as obs

        workload = self.workload
        tracer = self.tracer
        payload = workload.prepare(key)
        if tracer is not None and tracer.installed and tracer.job != "setup":
            tracer.job = "j%d" % self.next_job
            self.next_job += 1
            with tracer.span("job"):
                record, result = workload.execute(key, payload)
        elif capture:
            with obs.capture():
                record, result = workload.execute(key, payload)
        else:
            record, result = workload.execute(key, payload)
        if tracer is not None:
            tracer.paused = True
        try:
            workload.verify(record, result)
        finally:
            if tracer is not None:
                tracer.paused = False
        return self.add(record)

    def setup(self):
        """One setup repetition (generation / shard write / cold start)."""
        workload = self.workload
        workload.setup()
        cold = workload.setup_record()
        if cold is not None:
            self.add(cold)

    def warm_up(self):
        """One untimed warm-up job per distinct spec, after the last setup."""
        for key in self.workload.warmup_keys():
            self.job(key)

    def timed_phase(self, seconds):
        """Whole cycles until ``seconds`` of wall time have passed."""
        records = []
        start = time.perf_counter()
        cycles = 0
        while cycles < MIN_CYCLES or time.perf_counter() - start < seconds:
            for key in self.workload.next_cycle():
                records.append(self.job(key))
            cycles += 1
        return records

    def capture_overhead(self):
        """``obs.capture()`` on / off over the workload's job pairs."""
        on = off = 0.0
        for i, (first, second) in enumerate(self.workload.overhead_pairs()):
            order = ((first, False), (second, True)) if i % 2 == 0 else ((first, True), (second, False))
            for key, capture in order:
                record = self.job(key, capture=capture)
                if capture:
                    on += record.seconds
                else:
                    off += record.seconds
        return on / off


def cache_delta(before, after):
    return {key: after[key] - before[key] for key in ("hits", "misses", "evictions")}


def check_cache(problems, workload, delta, jobs_run):
    """The timed phase of cor36-warm must hit the graph cache every time."""
    if workload.name != "cor36-warm":
        return
    if delta["misses"] or delta["evictions"] or delta["hits"] != jobs_run:
        problems.append("graph cache hit ratio below 1.0 during timing: %r" % (delta,))


def end_to_end(records, setup_s, cycle_len):
    """The end-to-end metrics of one untraced run."""
    import layers
    from repro.oocore.store import peak_rss_bytes

    seconds = [r.seconds for r in records]
    p75 = statistics.quantiles(seconds, n=4, method="inclusive")[2]
    ok = [r for r in records if r.ok]
    window = records[: MIN_CYCLES * cycle_len]
    rounds = [r.rounds for r in window if r.rounds is not None]
    values = {
        "setup_s": setup_s,
        "job_s.p50": statistics.median(seconds),
        "job_s.p75": p75,
        "jobs_per_s": len(ok) / sum(seconds),
        "rounds.mean": statistics.fmean(rounds) if rounds else 0.0,
        "peak_rss_mb": peak_rss_bytes() / float(1 << 20),
    }
    notes = {
        "samples": len(seconds),
        "beyond_p50": sum(1 for s in seconds if s > values["job_s.p50"]),
        "beyond_p75": sum(1 for s in seconds if s > p75),
    }
    return [(name, values[name], unit) for name, unit in layers.END_TO_END], notes


def untraced_run(session, seconds, problems, import_s):
    from repro.parallel import jobs

    workload = session.workload
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        session.setup()
        setups.append(time.perf_counter() - start)
    start = time.perf_counter()
    session.warm_up()
    warmup_s = time.perf_counter() - start
    before = jobs.graph_cache_stats()
    records = session.timed_phase(seconds)
    check_cache(problems, workload, cache_delta(before, jobs.graph_cache_stats()), len(records))
    setup_s = import_s + statistics.median(setups) + warmup_s
    metrics, notes = end_to_end(records, setup_s, workload.cycle_len)
    notes["import_s"] = import_s
    notes["setup_repeats_s"] = setups
    notes["warmup_s"] = warmup_s
    return metrics, notes


def traced_run(session, seconds, problems, trace_dir):
    import layers
    from repro.obs import core as obs
    from repro.obs import exporters, flight
    from repro.oocore.store import peak_rss_bytes
    from repro.parallel import jobs
    from tracer import self_times

    workload = session.workload
    tracer = session.tracer
    tracer.install()
    tracer.job = "setup"
    with tracer.span("setup"):
        session.setup()
        session.warm_up()
    tracer.uninstall()
    tracer.job = None
    untraced = session.timed_phase(seconds / 2.0)
    tracer.install()
    before = jobs.graph_cache_stats()
    traced = session.timed_phase(seconds / 2.0)
    delta = cache_delta(before, jobs.graph_cache_stats())
    tracer.uninstall()
    check_cache(problems, workload, delta, len(traced))
    capture_ratio = session.capture_overhead()

    spans = tracer.spans
    selfs = self_times(spans)
    totals = {}
    roots = {}
    per_job_self = {}
    for span in spans:
        span_id, parent, name, start, end, job, fields = span
        if job == "setup" or job is None:
            continue
        per_job_self[job] = per_job_self.get(job, 0.0) + selfs[span_id]
        if parent is None:
            roots[job] = end - start
        agg = totals.setdefault(name, {"self": 0.0, "calls": 0})
        agg["self"] += selfs[span_id]
        agg["calls"] += 1
        for key, value in fields.items():
            agg[key] = agg.get(key, 0) + value
    for job, wall in roots.items():
        if abs(per_job_self[job] - wall) > 1e-6 + 1e-9 * wall:
            problems.append("self times of %s do not add up to its wall time" % job)
    n_jobs = len(roots)

    def per_job(name, field="self"):
        return totals.get(name, {}).get(field, 0) / n_jobs

    def ratio(name):
        agg = totals.get(name, {})
        return agg.get("changed", 0) / agg["rows"] if agg.get("rows") else 0.0

    setup_spans = [span for span in spans if span[5] == "setup"]

    def setup_self(name):
        return sum(selfs[span[0]] for span in setup_spans if span[2] == name)

    cold = [span for span in setup_spans if span[2] == "selfstab.run_to_quiescence"]
    lookups = delta["hits"] + delta["misses"]
    oocore = workload.name == "oocore-cor36"
    values = {
        "graphgen.random_regular_s": setup_self("graphgen.random_regular"),
        "oocore.writers.ensure_sharded_s": setup_self("oocore.writers.ensure_sharded"),
        "oocore.shard_bytes": getattr(workload, "shard_bytes", 0),
        "runtime.graph.from_static_s": setup_self("runtime.graph.from_static"),
        "selfstab.cold_s": (cold[0][4] - cold[0][3]) if cold else 0.0,
        "selfstab.cold_rounds": cold[0][6].get("rounds", 0) if cold else 0,
        "parallel.jobs.execute_job_s": per_job("parallel.jobs.execute_job"),
        "parallel.graph_cache.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "runtime.fast_engine.run_s": per_job("runtime.fast_engine.run"),
        "runtime.fast_engine.final_check_s": per_job("runtime.fast_engine.final_check"),
        "runtime.csr.gather_s": per_job("runtime.csr.gather"),
        "runtime.csr.gather_bytes": per_job("runtime.csr.gather", "bytes"),
        "runtime.results.summarize_s": per_job("runtime.results.summarize"),
        "selfstab.step_s": per_job("selfstab.step"),
        "selfstab.rounds": per_job("selfstab.step", "calls"),
        "selfstab.changed_ratio": ratio("selfstab.step"),
        "selfstab.inject_s": per_job("selfstab.inject"),
        "selfstab.is_legal_s": per_job("selfstab.is_legal"),
        "selfstab.scalar_rounds": per_job("selfstab.scalar_step", "calls"),
        "oocore.engine.run_s": per_job("oocore.engine.run"),
        "oocore.store.local_s": per_job("oocore.store.local"),
        "oocore.store.local_calls": per_job("oocore.store.local", "calls"),
        "oocore.io_wait_s": (
            statistics.fmean(r.seconds - r.cpu for r in untraced) if oocore else 0.0
        ),
        "oocore.rss_over_budget": peak_rss_bytes() / workload.budget if oocore else 0.0,
        "obs.capture_overhead": capture_ratio,
        "trace.overhead": (
            statistics.median(r.seconds for r in traced)
            / statistics.median(r.seconds for r in untraced)
        ),
        "trace.unattributed_s": per_job("job"),
    }
    for stage in layers.STEP_STAGES:
        name = stage + ".step"
        values[stage + ".step_s"] = per_job(name)
        values[stage + ".rounds"] = per_job(name, "calls")
        values[stage + ".changed_ratio"] = ratio(name)

    collector = obs.Telemetry(source="perfbench")
    for record in tracer.records(os.getpid()):
        collector.event(record.pop("type"), **record)
    os.makedirs(trace_dir, exist_ok=True)
    stem = os.path.join(trace_dir, "%s-seed%d" % (workload.name, workload.seed))
    exporters.write_jsonl(collector, stem + ".spans.jsonl")
    events = flight.write_chrome_trace(collector.events, stem + ".trace.json")
    notes = {"traced_jobs": n_jobs, "spans": len(spans), "trace_events": events,
             "trace_files": stem + ".{spans.jsonl,trace.json}"}
    return [(name, values[name], unit) for name, unit in layers.PER_LAYER], notes


def load_golden(name, seed):
    path = os.path.join(HERE, "golden.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        golden = json.load(handle)
    return golden["workloads"].get(name) if golden.get("seed") == seed else None


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no src/repro under %s (run from the repository root)\n" % root)
        return 2
    sys.path.insert(0, src)
    import repro  # noqa: F401
    import workloads
    from tracer import Tracer

    import_s = time.perf_counter() - _START
    workdir = os.path.join(root, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    problems = []
    workload = None
    try:
        workload = workloads.make_workload(
            args.workload, args.seed, workdir, load_golden(args.workload, args.seed)
        )
        session = Session(workload, Tracer() if args.trace else None)
        if args.trace:
            metrics, notes = traced_run(
                session, args.seconds, problems, os.path.join(root, ".bench_trace")
            )
        else:
            metrics, notes = untraced_run(session, args.seconds, problems, import_s)
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    failed = [r for r in session.records if not r.ok]
    for record in failed[:10]:
        sys.stderr.write("perfbench: %s failed: %s\n" % (record.label, "; ".join(record.errors)))
    for problem in problems:
        sys.stderr.write("perfbench: %s\n" % problem)
    print("workload %s  seed %d  seconds %g  trace %d  blas_threads %d  malloc_pinned %s"
          % (args.workload, args.seed, args.seconds, args.trace, BLAS_THREADS, MALLOC_PINNED))
    for key, value in notes.items():
        print("  %-16s %s" % (key, value))
    for name, value, unit in metrics:
        print("  %-36s %14.6g %s" % (name, value, unit))
    result = {
        "correct": not failed and not problems,
        "attempted": len(session.records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
