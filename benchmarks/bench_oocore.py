"""[E-OOCORE] Out-of-core tier: one planet-scale graph on a single box.

Runs ``cor36`` (the full Corollary 3.6 pipeline) and the ``greedy``
first-fit oracle through ``backend="oocore"`` — memory-mapped CSR shards,
double-buffered color planes, halo exchange between rounds — at grid points
up to the acceptance size n = 10^7, with ``REPRO_OOCORE_BUDGET`` pinned to
**25% of the in-memory footprint** (``112 * (n + 2m)`` bytes: CSR + the
batch engine's resident planes).  The budget is enforced *inside* the
engine: it refuses to start if the planned resident set exceeds it, so
every entry here is a certificate that the run fit.

At every parity-sized point (n <= 10^6 here) the same graph is also solved
by the in-memory batch engine and the outcomes must be **bit-identical**
(colors, rounds, palette) before a number is recorded; the 10^7 acceptance
entries record ``parity: "skipped"`` — the differential already covers
every kernel on the same code path at smaller n.

Timing starts after the shard directory exists (``ensure_sharded`` caches
it on disk): the entry measures the solve, not graph generation — matching
the warm-cache convention of the other benches.  ``throughput_mvps`` is
vertices colored per second (in millions); it stands in the speedup slot of
``check_regression.py``, which only compares it across machines of the same
core count.  Peak RSS is recorded per entry (``/proc`` high-water mark —
monotonic across entries, so the first big entry is the meaningful one).

Run directly (``python benchmarks/bench_oocore.py``), via pytest
(``pytest benchmarks/bench_oocore.py -s``), or as the CI smoke check
(``python benchmarks/bench_oocore.py --smoke``: tiny graph, four shards,
tight explicit budget, parity asserted, nothing written).
``--telemetry PATH`` appends the tier's shard-I/O and halo counters as
JSONL — CI uploads it as an artifact.
"""

import json
import os
import sys
import time

from bench_util import report

from repro.graphgen import random_regular

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_oocore.json")

SEED = 7

#: Entries above this size skip the in-memory differential: the point of
#: the tier is graphs whose batch-engine footprint no longer fits the box
#: (or the budget), and the same code path is parity-checked below it.
PARITY_LIMIT = 10**6

#: The acceptance budget: a quarter of what the in-memory batch engine
#: would keep resident for the same graph.
BUDGET_FRACTION = 0.25

#: Small entries would round the fractional budget below the engine's
#: irreducible working set (one shard's local CSR + planes); the floor
#: keeps the knob meaningful without failing trivially at small n.
BUDGET_FLOOR = 64 << 20

# (algorithm, n, Delta) — check_regression's smoke mode keeps the smallest
# (n, Delta) per algorithm, so both kernels stay exercised.
GRID = (
    ("cor36", 50000, 8),
    ("cor36", 200000, 16),
    ("cor36", 10000000, 8),
    ("greedy", 50000, 8),
    ("greedy", 200000, 16),
    ("greedy", 10000000, 8),
)

SMOKE_N, SMOKE_DELTA = 2000, 8


def _shards_for(n):
    """Shard count per grid point: enough that one shard's slice is small."""
    return 16 if n >= 10**6 else 4


def _sharded_graph(n, delta):
    """The (disk-cached) shard directory for one grid point."""
    from repro.oocore import ensure_sharded

    spec = {"family": "regular", "n": n, "degree": delta, "seed": SEED}
    return ensure_sharded(spec, shards=_shards_for(n))


def _identity_coloring(n):
    """``arange`` identity initial coloring: recipes' default builds the same
    ids as a Python list, which at n = 10^7 is ~360 MB of boxed ints —
    passing the array keeps the bench's peak-RSS column about the tier, not
    about CPython object headers."""
    import numpy as np

    return np.arange(n, dtype=np.int64)


def _solve_oocore(algorithm, sharded):
    """Run one algorithm through the oocore tier; returns (colors, rounds)."""
    if algorithm == "cor36":
        from repro.recipes import delta_plus_one_coloring

        result = delta_plus_one_coloring(
            sharded, backend="oocore",
            initial_coloring=_identity_coloring(sharded.n),
        )
        return list(result.colors), result.total_rounds
    if algorithm == "greedy":
        from repro.baselines.greedy import greedy_coloring

        # rounds := sequential visits, matching the registry's BaselineReport.
        return greedy_coloring(sharded, backend="oocore"), sharded.n
    raise ValueError("unknown algorithm %r" % algorithm)


def _solve_batch(algorithm, graph):
    """The in-memory differential twin of :func:`_solve_oocore`."""
    if algorithm == "cor36":
        from repro.recipes import delta_plus_one_coloring

        result = delta_plus_one_coloring(
            graph, backend="batch",
            initial_coloring=_identity_coloring(graph.n),
        )
        return list(result.colors), result.total_rounds
    from repro.baselines.greedy import greedy_coloring

    return greedy_coloring(graph), graph.n


#: Grid points at or below this n get one untimed solve first: their timed
#: sections are sub-second, where a cold page cache on the shard files and
#: CPython's slow first pass through the kernels flip the throughput ratio
#: the regression gate compares (same rationale as bench_frontier).
WARM_LIMIT = 50000


def run_grid(grid=GRID):
    """Measure every grid point; returns the list of result dicts."""
    from repro.oocore import peak_rss_bytes

    entries = []
    for algorithm, n, delta in grid:
        sharded = _sharded_graph(n, delta)
        budget = max(
            int(BUDGET_FRACTION * sharded.in_memory_nbytes), BUDGET_FLOOR
        )
        os.environ["REPRO_OOCORE_BUDGET"] = str(budget)
        try:
            if n <= WARM_LIMIT:
                _solve_oocore(algorithm, sharded)
            start = time.perf_counter()
            colors, rounds = _solve_oocore(algorithm, sharded)
            elapsed = time.perf_counter() - start
        finally:
            os.environ.pop("REPRO_OOCORE_BUDGET", None)
        if n <= PARITY_LIMIT:
            expected_colors, expected_rounds = _solve_batch(
                algorithm, random_regular(n, delta, seed=SEED)
            )
            assert colors == expected_colors, (
                "oocore %s colors diverged from batch at n=%d" % (algorithm, n)
            )
            assert rounds == expected_rounds, (algorithm, n, rounds)
            parity = "match"
        else:
            parity = "skipped"
        entries.append(
            {
                "algorithm": algorithm,
                "n": n,
                "delta": delta,
                "shards": sharded.shards,
                "budget_bytes": budget,
                "in_memory_bytes": sharded.in_memory_nbytes,
                "cpus": os.cpu_count() or 1,
                "rounds": rounds,
                "num_colors": len(set(colors)),
                "parity": parity,
                "oocore_seconds": round(elapsed, 6),
                "throughput_mvps": round((n / 1e6) / max(elapsed, 1e-9), 4),
                "peak_rss_bytes": peak_rss_bytes(),
            }
        )
    return entries


def write_results(entries):
    """Persist BENCH_oocore.json (repo root) and the human-readable table."""
    payload = {
        "benchmark": "oocore-tier",
        "sweep": "cor36 + greedy via backend=oocore on random_regular, "
        "budget = max(25%% of in-memory footprint, %dM)" % (BUDGET_FLOOR >> 20),
        "units": {
            "oocore_seconds": "wall clock for the solve (shards already on disk)",
            "throughput_mvps": "vertices colored per second, millions",
            "budget_bytes": "REPRO_OOCORE_BUDGET enforced by the engine",
        },
        "cpus": os.cpu_count() or 1,
        "entries": entries,
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    rows = [
        (
            e["algorithm"],
            e["n"],
            e["delta"],
            e["shards"],
            "%dM" % (e["budget_bytes"] >> 20),
            "%dM" % (e["peak_rss_bytes"] >> 20),
            e["rounds"],
            e["num_colors"],
            e["parity"],
            round(e["oocore_seconds"], 3),
            e["throughput_mvps"],
        )
        for e in entries
    ]
    report(
        "E-OOCORE",
        "Out-of-core tier: memory-mapped shards under a 25%% budget",
        ("alg", "n", "Delta", "shards", "budget", "rss", "rounds",
         "colors", "parity", "secs", "Mv/s"),
        rows,
        notes="BENCH_oocore.json at the repo root carries the same data "
        "machine-readably; parity entries were solved twice (oocore and "
        "in-memory batch) and matched bit for bit, the 10^7 acceptance "
        "entries ran under a budget of a quarter of the batch engine's "
        "resident footprint.",
    )
    return payload


def run_smoke(telemetry_path=None):
    """Tiny parity pass for CI: four shards, tight budget, nothing written."""
    from repro import obs
    from repro.oocore import ensure_sharded

    spec = {"family": "regular", "n": SMOKE_N, "degree": SMOKE_DELTA, "seed": SEED}
    sharded = ensure_sharded(spec, shards=4)
    os.environ["REPRO_OOCORE_BUDGET"] = str(BUDGET_FLOOR)
    try:
        with obs.capture() as tel:
            for algorithm in ("cor36", "greedy"):
                colors, rounds = _solve_oocore(algorithm, sharded)
                expected, expected_rounds = _solve_batch(
                    algorithm,
                    random_regular(SMOKE_N, SMOKE_DELTA, seed=SEED),
                )
                assert colors == expected, algorithm
                assert rounds == expected_rounds, algorithm
                print(
                    "smoke: %s bit-identical through %d shards at n=%d"
                    % (algorithm, sharded.shards, SMOKE_N)
                )
    finally:
        os.environ.pop("REPRO_OOCORE_BUDGET", None)
    if telemetry_path:
        snapshot = tel.snapshot()
        with open(telemetry_path, "w") as handle:
            for event in tel.events:
                handle.write(json.dumps(event) + "\n")
            for kind in ("counters", "gauges", "histograms"):
                for record in snapshot.get(kind, []):
                    handle.write(
                        json.dumps(dict(record, record_kind=kind)) + "\n"
                    )
        print("smoke: telemetry written to %s" % telemetry_path)


def test_oocore_grid():
    """Full-grid run: writes the baseline, asserts the acceptance points."""
    entries = run_grid()
    write_results(entries)
    big = [e for e in entries if e["n"] >= 10**7]
    assert big, "grid must include the n=10^7 acceptance points"
    for entry in big:
        assert entry["budget_bytes"] <= entry["in_memory_bytes"] // 4 + 1
    assert all(e["parity"] == "match" for e in entries if e["n"] <= PARITY_LIMIT)


def _parse_args(argv):
    telemetry = None
    if "--telemetry" in argv:
        telemetry = argv[argv.index("--telemetry") + 1]
    return "--smoke" in argv, telemetry


if __name__ == "__main__":
    smoke, telemetry = _parse_args(sys.argv[1:])
    if smoke:
        run_smoke(telemetry_path=telemetry)
        raise SystemExit(0)
    write_results(run_grid())
