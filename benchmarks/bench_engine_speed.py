"""[E-ENGINE] Reference vs batch engine throughput on the AG stage.

Times the scalar reference engine against the vectorized
:class:`~repro.runtime.fast_engine.BatchColoringEngine` on an (n, Delta)
grid, verifying the outputs stay identical while measuring rounds/sec.
Writes the machine-readable ``BENCH_engine.json`` at the repo root so the
perf trajectory is tracked PR-over-PR, plus the usual table under
``benchmarks/results/``.

Run directly (``python benchmarks/bench_engine_speed.py``) or via pytest
(``pytest benchmarks/bench_engine_speed.py -s``).
"""

import json
import os
import time

from bench_util import report

from repro.analysis import is_proper_coloring
from repro.core import AdditiveGroupColoring
from repro.core.ag import ag_prime_for
from repro.graphgen import circulant_graph
from repro.runtime import BatchColoringEngine, ColoringEngine

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_engine.json")

# (n, Delta): circulant graphs are Delta-regular, deterministic, and cheap to
# build, so the grid isolates engine cost rather than generator cost.
GRID = (
    (2000, 16),
    (8000, 32),
    (20000, 64),
)

B_RESIDUES = 5


def _grid_graph_and_initial(n, delta):
    graph = circulant_graph(n, tuple(range(1, delta // 2 + 1)))
    assert graph.max_degree == delta
    # Crowd the second coordinate into a few residues: every vertex starts in
    # conflict and the cascade takes several rounds to die out, so the
    # measurement reflects sustained per-round cost rather than one-shot
    # setup.  Proper because adjacent vertices (distance <= Delta/2 < q on
    # the ring) get distinct first coordinates.
    q = ag_prime_for(n, delta)
    initial = [(v % q) * q + (v % B_RESIDUES) for v in range(n)]
    return graph, initial


def _time_run(engine_cls, graph, initial):
    engine = engine_cls(graph)
    start = time.perf_counter()
    result = engine.run(
        AdditiveGroupColoring(), initial, in_palette_size=max(initial) + 1
    )
    elapsed = time.perf_counter() - start
    return result, elapsed


def run_grid(grid=GRID):
    """Measure every grid point; returns the list of result dicts."""
    entries = []
    for n, delta in grid:
        graph, initial = _grid_graph_and_initial(n, delta)
        # Warm the per-graph CSR cache: it is built once per topology and
        # shared by every subsequent run, so it is not per-run engine cost.
        graph.csr()
        ref_result, ref_elapsed = _time_run(ColoringEngine, graph, initial)
        bat_result, bat_elapsed = _time_run(BatchColoringEngine, graph, initial)
        assert is_proper_coloring(graph, ref_result.int_colors)
        assert bat_result.colors == ref_result.colors
        assert bat_result.rounds_used == ref_result.rounds_used
        rounds = ref_result.rounds_used
        entries.append(
            {
                "n": n,
                "delta": delta,
                "m": graph.m,
                "rounds": rounds,
                "stage": "additive-group",
                "reference_seconds": round(ref_elapsed, 6),
                "batch_seconds": round(bat_elapsed, 6),
                "reference_rounds_per_sec": round(rounds / max(ref_elapsed, 1e-9), 3),
                "batch_rounds_per_sec": round(rounds / max(bat_elapsed, 1e-9), 3),
                "speedup": round(ref_elapsed / max(bat_elapsed, 1e-9), 2),
            }
        )
    return entries


def write_results(entries):
    """Persist BENCH_engine.json (repo root) and the human-readable table."""
    payload = {
        "benchmark": "engine-speed",
        "stage": "additive-group",
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
            e["rounds"],
            round(e["reference_seconds"] * 1000, 1),
            round(e["batch_seconds"] * 1000, 1),
            e["reference_rounds_per_sec"],
            e["batch_rounds_per_sec"],
            "%.1fx" % e["speedup"],
        )
        for e in entries
    ]
    report(
        "E-ENGINE",
        "Reference vs batch engine (AG stage, %d-residue conflict start)"
        % B_RESIDUES,
        ("n", "Delta", "m", "rounds", "ref ms", "batch ms",
         "ref rounds/s", "batch rounds/s", "speedup"),
        rows,
        notes="BENCH_engine.json at the repo root carries the same data "
        "machine-readably for PR-over-PR tracking.",
    )
    return payload


def test_engine_speed_grid():
    entries = run_grid()
    write_results(entries)
    big = [e for e in entries if e["n"] >= 20000 and e["delta"] >= 64]
    assert big, "grid must include the n>=20000, Delta>=64 acceptance point"
    for entry in big:
        assert entry["speedup"] >= 10, entry


if __name__ == "__main__":
    write_results(run_grid())
