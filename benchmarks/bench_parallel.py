"""[E-PARALLEL] Sharded job-runner throughput: sequential vs 4-worker sweeps.

Runs the same multi-seed Corollary 3.6 sweep twice at every (n, Delta) grid
point — once inline on one process, once sharded across four workers through
a persistent :class:`repro.parallel.JobRunner` — asserting bit-identical
outcomes (a job is a pure function of its spec) while measuring wall clock.
Writes the machine-readable ``BENCH_parallel.json`` at the repo root, plus
the usual table under ``benchmarks/results/``.

Both timed phases run *warm* so they compare compute, not setup:

* the worker pool is forked once and exercised with a warm-up map before the
  first timed point (no fork/import cost inside a measurement);
* every grid point's graphs are prewarmed into the parent graph cache before
  either phase, so the sequential pass reads the cache and the parallel pass
  ships the same CSR arrays to workers zero-copy through the shared-memory
  plane — neither pays graph generation inside the timing window.

The speedup column is a *machine property*: it tracks the host's usable core
count, so every entry records its own ``cpus`` and the regression gate only
compares speedups measured on a machine of the same width (on a single-core
container the honest ratio is <= ~1.0x — the parity assertions still bite).

Run directly (``python benchmarks/bench_parallel.py``), via pytest
(``pytest benchmarks/bench_parallel.py -s``), or as the CI smoke check
(``python benchmarks/bench_parallel.py --smoke``: two tiny jobs, two
workers, parity asserted, nothing written).
"""

import json
import os
import sys
import time

import pytest

from bench_util import report

from repro.parallel import JobRunner, build_graph, run_many, sweep_specs

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_parallel.json")

#: (n, Delta) grid; each point fans out JOBS_PER_POINT seeded jobs.  The
#: last point is the large-n acceptance entry: sparse, so the shared-memory
#: plane (not graph generation) dominates the fan-out cost.
GRID = (
    (2000, 16),
    (8000, 32),
    (20000, 64),
    (100000, 8),
)

SMOKE_GRID = ((300, 8),)

JOBS_PER_POINT = 4
WORKERS = 4

#: Cache headroom for the bench: the largest grid point holds four ~145 MB
#: graphs at once, beyond the 512 MiB default byte budget.
_CACHE_ENV = {
    "REPRO_GRAPH_CACHE_SIZE": "16",
    "REPRO_GRAPH_CACHE_BYTES": str(4 << 30),
}


def _sweep(n, delta, jobs=JOBS_PER_POINT):
    """The job list for one grid point: ``jobs`` seeds of cor36 at (n, Delta)."""
    return sweep_specs([n], [delta], list(range(1, jobs + 1)))


def _deterministic_view(outcome):
    """The machine-independent part of one outcome (drops wall times)."""
    data = outcome.to_dict()
    data.pop("seconds", None)
    return data


def run_grid(grid=GRID):
    """Measure every grid point warm; returns the list of result dicts."""
    for key, value in _CACHE_ENV.items():
        os.environ.setdefault(key, value)
    entries = []
    with JobRunner(workers=WORKERS) as runner:
        # Fork and import-warm the pool once, outside every timing window.
        warmup = _sweep(*SMOKE_GRID[0], jobs=2)
        runner.map_jobs(warmup)
        for n, delta in grid:
            specs = _sweep(n, delta)
            # Prewarm the parent graph cache: the sequential pass then reads
            # it directly and the parallel pass exports the cached CSR arrays
            # through the shm plane, so neither phase times graph generation.
            for spec in specs:
                build_graph(spec.graph)
            start = time.perf_counter()
            sequential = run_many(specs, workers=1)
            sequential_elapsed = time.perf_counter() - start
            start = time.perf_counter()
            parallel = runner.map_jobs(specs)
            parallel_elapsed = time.perf_counter() - start
            assert all(o.ok for o in sequential), [
                o.error for o in sequential if not o.ok
            ]
            assert [_deterministic_view(o) for o in parallel] == [
                _deterministic_view(o) for o in sequential
            ], "parallel outcomes must be bit-identical to sequential"
            entries.append(
                {
                    "n": n,
                    "delta": delta,
                    "jobs": len(specs),
                    "workers": WORKERS,
                    "cpus": os.cpu_count() or 1,
                    # The speedup below is only meaningful with this many
                    # real cores; check_regression.py skips the speedup
                    # assertion (and says so) on narrower machines.
                    "min_cpus": WORKERS,
                    "rounds": [o.rounds for o in sequential],
                    "num_colors": [o.num_colors for o in sequential],
                    "sequential_seconds": round(sequential_elapsed, 6),
                    "parallel_seconds": round(parallel_elapsed, 6),
                    "speedup": round(
                        sequential_elapsed / max(parallel_elapsed, 1e-9), 2
                    ),
                }
            )
    return entries


def write_results(entries):
    """Persist BENCH_parallel.json (repo root) and the human-readable table."""
    payload = {
        "benchmark": "parallel-runner",
        "sweep": "cor36 on random_regular, %d seeded jobs per grid point"
        % JOBS_PER_POINT,
        "units": {
            "seconds": "wall clock for the whole sweep (warm pool, warm graph cache)",
            "speedup": "sequential/parallel at %d workers" % WORKERS,
        },
        "cpus": os.cpu_count() or 1,
        "entries": entries,
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    rows = [
        (
            e["n"],
            e["delta"],
            e["jobs"],
            e["workers"],
            e["cpus"],
            round(e["sequential_seconds"] * 1000, 1),
            round(e["parallel_seconds"] * 1000, 1),
            "%.2fx" % e["speedup"],
        )
        for e in entries
    ]
    report(
        "E-PARALLEL",
        "Sequential vs %d-worker sharded sweep (cor36, %d jobs per point, warm)"
        % (WORKERS, JOBS_PER_POINT),
        ("n", "Delta", "jobs", "workers", "cpus", "seq ms", "par ms", "speedup"),
        rows,
        notes="BENCH_parallel.json at the repo root carries the same data "
        "machine-readably; the speedup column scales with each entry's own "
        "core count (cpus column) — a 1-cpu container honestly reports <=1x, "
        "and the regression gate skips speedup comparisons across machines "
        "of different widths.",
    )
    return payload


def run_smoke():
    """Tiny parity pass for CI: two jobs, two workers, no files written.

    Works with or without multiprocessing — the runner degrades to inline
    execution, and the bit-identity assertion is the point.
    """
    for n, delta in SMOKE_GRID:
        specs = _sweep(n, delta, jobs=2)
        sequential = run_many(specs, workers=1)
        parallel = run_many(specs, workers=2)
        assert all(o.ok for o in sequential), [o.error for o in sequential]
        assert [_deterministic_view(o) for o in parallel] == [
            _deterministic_view(o) for o in sequential
        ]
        print(
            "smoke: %d-job sweep identical sequential vs sharded at n=%d" % (len(specs), n)
        )


def test_parallel_throughput_grid():
    """Full-grid run: writes the baseline, gates scale when cores exist."""
    entries = run_grid()
    write_results(entries)
    big = [e for e in entries if e["n"] >= 100000]
    assert big, "grid must include the n>=100000 acceptance point"
    if (os.cpu_count() or 1) >= WORKERS:
        # With a warm pool and warm graph cache, sharding pure compute
        # across real cores must beat inline execution on every
        # non-trivial point.
        for entry in entries:
            if entry["n"] >= 8000:
                assert entry["speedup"] > 1.0, entry


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        run_smoke()
        raise SystemExit(0)
    write_results(run_grid())
