"""[E-PIPELINE] Reference vs batch engine on the full Corollary 3.6 pipeline.

Times the headline Linial -> AG -> standard-reduction pipeline end to end on
an (n, Delta) grid, reference engine against the fully vectorized batch path
(every stage now has ``step_batch``), verifying bit-for-bit identical
colorings while measuring wall clock.  Writes the machine-readable
``BENCH_pipeline.json`` at the repo root so the end-to-end perf trajectory is
tracked PR-over-PR, plus the usual table under ``benchmarks/results/``.

Run directly (``python benchmarks/bench_pipeline_speed.py``), via pytest
(``pytest benchmarks/bench_pipeline_speed.py -s``), or as the CI smoke check
(``python benchmarks/bench_pipeline_speed.py --smoke``: a tiny grid, parity
asserted, nothing written — fails fast on kernel drift).
"""

import json
import os
import sys
import time

from bench_util import report

from repro.analysis import is_proper_coloring
from repro.recipes import delta_plus_one_coloring
from repro.graphgen import circulant_graph

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_pipeline.json")

# (n, Delta): circulant graphs are Delta-regular, deterministic, and cheap to
# build, so the grid isolates pipeline cost rather than generator cost.  The
# identity initial coloring makes Linial start from the full n-sized palette.
GRID = (
    (2000, 16),
    (8000, 32),
    (20000, 64),
)

SMOKE_GRID = ((300, 8),)


def _grid_graph(n, delta):
    graph = circulant_graph(n, tuple(range(1, delta // 2 + 1)))
    assert graph.max_degree == delta
    return graph


def _time_pipeline(graph, backend):
    start = time.perf_counter()
    result = delta_plus_one_coloring(graph, backend=backend)
    elapsed = time.perf_counter() - start
    return result, elapsed


def run_grid(grid=GRID):
    """Measure every grid point; returns the list of result dicts."""
    entries = []
    for n, delta in grid:
        graph = _grid_graph(n, delta)
        # Warm the per-graph CSR cache: built once per topology, shared by
        # every stage of every subsequent run — not per-run pipeline cost.
        graph.csr()
        ref_result, ref_elapsed = _time_pipeline(graph, "reference")
        bat_result, bat_elapsed = _time_pipeline(graph, "batch")
        assert is_proper_coloring(graph, ref_result.colors)
        assert ref_result.num_colors <= delta + 1
        assert bat_result.colors == ref_result.colors
        assert bat_result.total_rounds == ref_result.total_rounds
        assert bat_result.rounds_by_stage() == ref_result.rounds_by_stage()
        entries.append(
            {
                "n": n,
                "delta": delta,
                "m": graph.m,
                "total_rounds": ref_result.total_rounds,
                "rounds_by_stage": ref_result.rounds_by_stage(),
                "num_colors": ref_result.num_colors,
                "reference_seconds": round(ref_elapsed, 6),
                "batch_seconds": round(bat_elapsed, 6),
                "speedup": round(ref_elapsed / max(bat_elapsed, 1e-9), 2),
            }
        )
    return entries


def write_results(entries):
    """Persist BENCH_pipeline.json (repo root) and the human-readable table."""
    payload = {
        "benchmark": "pipeline-speed",
        "pipeline": "linial -> additive-group -> standard-reduction",
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
            e["total_rounds"],
            e["num_colors"],
            round(e["reference_seconds"] * 1000, 1),
            round(e["batch_seconds"] * 1000, 1),
            "%.1fx" % e["speedup"],
        )
        for e in entries
    ]
    report(
        "E-PIPELINE",
        "Reference vs batch engine, full Corollary 3.6 pipeline "
        "(identity initial coloring)",
        ("n", "Delta", "m", "rounds", "colors", "ref ms", "batch ms", "speedup"),
        rows,
        notes="BENCH_pipeline.json at the repo root carries the same data "
        "machine-readably for PR-over-PR tracking.",
    )
    return payload


def run_smoke():
    """Tiny-n parity pass for CI: both backends, full pipeline, no files."""
    for n, delta in SMOKE_GRID:
        graph = _grid_graph(n, delta)
        ref_result, _ = _time_pipeline(graph, "reference")
        assert is_proper_coloring(graph, ref_result.colors)
        assert ref_result.num_colors <= delta + 1
        bat_result, _ = _time_pipeline(graph, "batch")
        assert bat_result.colors == ref_result.colors
        assert bat_result.to_dict() == ref_result.to_dict()
        print("smoke: reference and batch backends identical at n=%d" % n)


def test_pipeline_speed_grid():
    entries = run_grid()
    write_results(entries)
    big = [e for e in entries if e["n"] >= 20000 and e["delta"] >= 64]
    assert big, "grid must include the n>=20000, Delta>=64 acceptance point"
    for entry in big:
        assert entry["speedup"] >= 5, entry


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        run_smoke()
        raise SystemExit(0)
    write_results(run_grid())
