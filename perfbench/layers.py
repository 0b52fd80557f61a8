"""Metric names and units, in output order.

What each per-layer metric is measured around, which end-to-end metric it
should move and on which workload is tabled in ``NOTES.md``.  A layer a
workload bypasses reports 0 in that workload's traced run.
"""

__all__ = ["END_TO_END", "PER_LAYER", "STEP_STAGES"]

END_TO_END = [
    ("setup_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.p75", "s"),
    ("jobs_per_s", "1/s"),
    ("rounds.mean", "count"),
    ("peak_rss_mb", "MB"),
]

# Stage kernels whose ``step_batch`` spans are named "<stage>.step".
STEP_STAGES = ["linial", "core.ag", "core.reductions", "core.hybrid"]

PER_LAYER = [
    # setup layers
    ("graphgen.random_regular_s", "s"),
    ("oocore.writers.ensure_sharded_s", "s"),
    ("oocore.shard_bytes", "bytes"),
    ("runtime.graph.from_static_s", "s"),
    ("selfstab.cold_s", "s"),
    ("selfstab.cold_rounds", "count"),
    # job layers, per job
    ("parallel.jobs.execute_job_s", "s"),
    ("parallel.graph_cache.hit_ratio", "ratio"),
    ("runtime.fast_engine.run_s", "s"),
    ("runtime.fast_engine.final_check_s", "s"),
]
for _stage in STEP_STAGES:
    PER_LAYER += [
        (_stage + ".step_s", "s"),
        (_stage + ".rounds", "count"),
        (_stage + ".changed_ratio", "ratio"),
    ]
PER_LAYER += [
    ("runtime.csr.gather_s", "s"),
    ("runtime.csr.gather_bytes", "bytes"),
    ("runtime.results.summarize_s", "s"),
    ("selfstab.step_s", "s"),
    ("selfstab.rounds", "count"),
    ("selfstab.changed_ratio", "ratio"),
    ("selfstab.inject_s", "s"),
    ("selfstab.is_legal_s", "s"),
    ("selfstab.scalar_rounds", "count"),
    ("oocore.engine.run_s", "s"),
    ("oocore.store.local_s", "s"),
    ("oocore.store.local_calls", "count"),
    ("oocore.io_wait_s", "s"),
    ("oocore.rss_over_budget", "ratio"),
    # the cost of measuring
    ("obs.capture_overhead", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
]
