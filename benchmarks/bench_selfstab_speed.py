"""[E-SELFSTAB-SPEED] Reference vs batch engine on the self-stabilization layer.

Times a cold start plus a heavy corruption-burst recovery of
:class:`SelfStabColoring` on circulant topologies, reference engine against
the vectorized :class:`BatchSelfStabEngine`, verifying bit-for-bit identical
round counts and final RAM states while measuring wall clock.  Writes the
machine-readable ``BENCH_selfstab.json`` at the repo root so the
self-stabilization perf trajectory is tracked PR-over-PR, plus the usual
table under ``benchmarks/results/``.

Run directly (``python benchmarks/bench_selfstab_speed.py``), via pytest
(``pytest benchmarks/bench_selfstab_speed.py -s``), or as the CI smoke check
(``python benchmarks/bench_selfstab_speed.py --smoke``: one tiny topology,
parity asserted, nothing written — fails fast on kernel drift).
"""

import json
import os
import sys
import time

from bench_util import report

from repro.runtime.graph import DynamicGraph
from repro.runtime.backends import resolve_backend
from repro.selfstab import FaultCampaign, SelfStabColoring

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_selfstab.json")

# (n, Delta): circulant topologies are Delta-regular and deterministic, so
# the grid isolates engine cost rather than generator cost.  The burst hits
# a tenth of the network, mixing stolen-neighbor RAMs with garbage — the
# recovery therefore exercises Check-Error, the interval descent and the
# AG core in the same run.
GRID = (
    (2000, 16),
    (8000, 32),
    (20000, 64),
)

SMOKE_GRID = ((120, 6),)


def _circulant_dynamic(n, delta):
    graph = DynamicGraph(n, delta)
    for v in range(n):
        graph.add_vertex(v)
    for offset in range(1, delta // 2 + 1):
        for v in range(n):
            u = (v + offset) % n
            if not graph.has_edge(v, u):
                graph.add_edge(v, u)
    for v in range(n):
        if graph.degree(v) != delta:
            raise AssertionError("not %d-regular at %d" % (delta, v))
    return graph


def _measure(graph, n, delta, backend):
    algorithm = SelfStabColoring(n, delta)
    engine = resolve_backend("selfstab", backend)(graph, algorithm)
    start = time.perf_counter()
    cold_rounds = engine.run_to_quiescence()
    campaign = FaultCampaign(seed=n)
    campaign.corrupt_random_rams(engine, max(1, n // 10))
    burst_rounds = engine.run_to_quiescence()
    elapsed = time.perf_counter() - start
    return {
        "cold_rounds": cold_rounds,
        "burst_rounds": burst_rounds,
        "rams": dict(engine.rams),
        "seconds": elapsed,
    }


def run_grid(grid=GRID):
    """Measure every grid point; returns the list of result dicts."""
    entries = []
    for n, delta in grid:
        graph = _circulant_dynamic(n, delta)
        ref = _measure(graph, n, delta, "reference")
        bat = _measure(graph, n, delta, "batch")
        assert bat["cold_rounds"] == ref["cold_rounds"]
        assert bat["burst_rounds"] == ref["burst_rounds"]
        assert bat["rams"] == ref["rams"]
        entries.append(
            {
                "n": n,
                "delta": delta,
                "m": n * delta // 2,
                "cold_rounds": ref["cold_rounds"],
                "burst_rounds": ref["burst_rounds"],
                "reference_seconds": round(ref["seconds"], 6),
                "batch_seconds": round(bat["seconds"], 6),
                "speedup": round(ref["seconds"] / max(bat["seconds"], 1e-9), 2),
            }
        )
    return entries


def write_results(entries):
    """Persist BENCH_selfstab.json (repo root) and the human-readable table."""
    payload = {
        "benchmark": "selfstab-speed",
        "scenario": "cold start + 10% corruption burst, SelfStabColoring",
        "units": {"seconds": "wall clock", "speedup": "reference/batch"},
        "entries": entries,
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    rows = [
        (
            e["n"],
            e["delta"],
            e["m"],
            e["cold_rounds"],
            e["burst_rounds"],
            round(e["reference_seconds"] * 1000, 1),
            round(e["batch_seconds"] * 1000, 1),
            "%.1fx" % e["speedup"],
        )
        for e in entries
    ]
    report(
        "E-SELFSTAB-SPEED",
        "Reference vs batch self-stab engine "
        "(SelfStabColoring, cold start + 10% burst)",
        ("n", "Delta", "m", "cold", "burst", "ref ms", "batch ms", "speedup"),
        rows,
        notes="BENCH_selfstab.json at the repo root carries the same data "
        "machine-readably for PR-over-PR tracking.",
    )
    return payload


def run_smoke():
    """Tiny parity pass for CI: both backends, burst included, no files."""
    for n, delta in SMOKE_GRID:
        graph = _circulant_dynamic(n, delta)
        ref = _measure(graph, n, delta, "reference")
        bat = _measure(graph, n, delta, "batch")
        assert bat["cold_rounds"] == ref["cold_rounds"]
        assert bat["burst_rounds"] == ref["burst_rounds"]
        assert bat["rams"] == ref["rams"]
        print("smoke: reference and batch engines identical at n=%d" % n)


def test_selfstab_speed_grid():
    entries = run_grid()
    write_results(entries)
    big = [e for e in entries if e["n"] >= 20000 and e["delta"] >= 64]
    assert big, "grid must include the n>=20000, Delta>=64 acceptance point"
    for entry in big:
        assert entry["speedup"] >= 8, entry


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        run_smoke()
        raise SystemExit(0)
    write_results(run_grid())
