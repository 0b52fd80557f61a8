"""[E-FRONTIER] Table-1 frontier sweep: every vectorized module, batch vs reference.

One sweep over the full registered-algorithm surface — the paper pipeline's
k-knob family plus the long tail vectorized onto the CSR batch engine
(baselines, defective, edge, bitround) — measuring, per algorithm and
topology, the four frontier axes of Table 1:

* **rounds** — the algorithm's own round notion (communication rounds,
  sequential visits for the greedy oracle, stabilization rounds, ...);
* **palette** — distinct colors in the final coloring (``num_colors``);
* **bandwidth** — the exact per-edge bit ledger where the module meters one
  (``bitround``, ``edge``), otherwise the CONGEST message-width bound
  ``ceil(log2 n)``;
* **wall-clock** — reference tier vs batch tier, plus their ratio.

Every row is measured through :func:`repro.parallel.jobs.resolve_algorithm`
— the same registry ``repro.run`` / ``run_sweep`` / the CLI dispatch into —
and asserts the two tiers' ``to_dict()`` summaries are bit-for-bit equal
before recording a single number.

Grid sizes: vertex modules run the acceptance point n=20000 / Delta=64.
The edge, bitround and bitround-edge modules run their largest
*re-measurable* points instead (n=4000 / Delta=24, n=4000 / Delta=16 and
n=2000 / Delta=16): their reference tiers push every message through real
per-edge channel/replica objects, so the full grid would stop being
regenerable — the bitround reference at n=20000 / Delta=64 runs for ~11
minutes (measured once: 650s reference vs 0.35s batch, ~1860x), and the
edge reference executes on the line graph (~``n * Delta^2 / 2`` edges).
The committed points already clear 5x and the ratios grow with size.

The ``one-plus-eps-k*`` / ``sublinear-k4`` rows sweep the Maus-style ``k``
knob (O(k*Delta) colors vs O(Delta/k) + log* n rounds) on one small
topology — the rounds/palette trade-off is the datum, not the wall clock.

Run directly (``python benchmarks/bench_frontier.py``), via pytest
(``pytest benchmarks/bench_frontier.py -s``), or as the CI smoke check
(``python benchmarks/bench_frontier.py --smoke``: the smallest point of
every algorithm, parity asserted, nothing written).  The committed
``BENCH_frontier.json`` at the repo root is regression-gated by
``check_regression.py``.
"""

import json
import math
import os
import sys
import time

from bench_util import report

from repro.graphgen import random_regular
from repro.parallel.jobs import resolve_algorithm

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_frontier.json")

# Row label -> (registry algorithm, fixed params).  The label is the entry
# key in BENCH_frontier.json (one algorithm may appear under several knob
# settings).
ROWS = {
    "greedy": ("greedy", {}),
    "random-trial": ("random-trial", {}),
    "bek": ("bek", {}),
    "kuhn-wattenhofer": ("kuhn-wattenhofer", {}),
    "defective": ("defective", {}),
    "selfstab-rank": ("selfstab-rank", {}),
    "one-plus-eps-k1": ("one-plus-eps", {"k": 1}),
    "one-plus-eps-k2": ("one-plus-eps", {"k": 2}),
    "one-plus-eps-k4": ("one-plus-eps", {"k": 4}),
    "one-plus-eps-k8": ("one-plus-eps", {"k": 8}),
    "sublinear-k4": ("sublinear", {"k": 4}),
    "edge": ("edge", {}),
    "bitround": ("bitround", {}),
    "bitround-edge": ("bitround-edge", {}),
}

SMALL = (2000, 16)
HEADLINE = (20000, 64)

# (label, n, Delta) — the flat grid; check_regression's smoke mode keeps the
# smallest (n, Delta) per label so every kernel still gets exercised.
GRID = (
    # greedy has no SMALL point: at n=2000 the wave-parallel kernel and the
    # warm pure-Python loop are within noise of each other (~2 ms either
    # way), so the speedup ratio the smoke gate compares is a coin flip.
    ("greedy",) + HEADLINE,
    ("random-trial",) + SMALL,
    ("random-trial",) + HEADLINE,
    ("bek",) + SMALL,
    ("bek",) + HEADLINE,
    ("kuhn-wattenhofer",) + SMALL,
    ("kuhn-wattenhofer",) + HEADLINE,
    ("defective",) + SMALL,
    ("defective",) + HEADLINE,
    ("selfstab-rank",) + SMALL,
    ("selfstab-rank",) + HEADLINE,
    ("one-plus-eps-k1",) + SMALL,
    ("one-plus-eps-k2",) + SMALL,
    ("one-plus-eps-k4",) + SMALL,
    ("one-plus-eps-k8",) + SMALL,
    ("sublinear-k4",) + SMALL,
    ("edge", 600, 8),
    ("edge", 4000, 24),
    ("bitround", 600, 8),
    ("bitround", 4000, 16),
    ("bitround-edge", 600, 8),
    ("bitround-edge",) + SMALL,
)

# The modules this PR vectorized must clear 5x at their largest grid point.
SPEEDUP_FLOOR = 5.0
NEW_MODULES = (
    "greedy",
    "random-trial",
    "bek",
    "kuhn-wattenhofer",
    "defective",
    "selfstab-rank",
    "edge",
    "bitround",
    "bitround-edge",
)


def _bits(x):
    return max(1, int(math.ceil(math.log2(max(2, x)))))


def _bandwidth_bits(result, n):
    """Exact bit ledger when the module meters one, else the width bound."""
    total = getattr(result, "total_bit_rounds", None)
    if total is None:
        total = getattr(result, "total_bits_per_edge", None)
    if total is not None:
        return int(total)
    return _bits(max(2, n))


_GRAPHS = {}


def _graph(n, delta):
    """One seeded Delta-regular topology per size, CSR pre-warmed and cached
    so generator cost never leaks into either tier's timing."""
    key = (n, delta)
    if key not in _GRAPHS:
        graph = random_regular(n, delta, seed=n + delta)
        graph.csr()
        _GRAPHS[key] = graph
    return _GRAPHS[key]


#: Rows at or below this n get one untimed run of each tier first: their
#: timed sections are a few tens of milliseconds, where CPython's adaptive
#: interpreter makes the first call up to 3x slower than every later one —
#: enough to flip the recorded speedup depending on what ran earlier in the
#: process (full grid vs check_regression's smoke selection).
WARM_LIMIT = 2000


def run_grid(grid=GRID):
    """Measure the (label, n, Delta) triples; assert cross-tier parity."""
    entries = []
    for label, n, delta in grid:
        algorithm, params = ROWS[label]
        fn = resolve_algorithm(algorithm)
        graph = _graph(n, delta)
        if n <= WARM_LIMIT:
            fn(graph, backend="batch", seed=7, **params)
            fn(graph, backend="reference", seed=7, **params)
        start = time.perf_counter()
        batch = fn(graph, backend="batch", seed=7, **params)
        batch_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        reference = fn(graph, backend="reference", seed=7, **params)
        ref_elapsed = time.perf_counter() - start
        if reference.to_dict() != batch.to_dict():
            raise AssertionError(
                "tier mismatch for %s at n=%d Delta=%d" % (label, n, delta)
            )
        entries.append(
            {
                "algorithm": label,
                "n": n,
                "delta": delta,
                "m": graph.m,
                "rounds": batch.rounds,
                "num_colors": batch.num_colors,
                "bandwidth_bits": _bandwidth_bits(batch, n),
                "reference_seconds": round(ref_elapsed, 6),
                "batch_seconds": round(batch_elapsed, 6),
                "speedup": round(ref_elapsed / max(batch_elapsed, 1e-9), 2),
            }
        )
    return entries


def write_results(entries):
    """Persist BENCH_frontier.json (repo root) and the human-readable table."""
    payload = {
        "benchmark": "frontier-sweep",
        "units": {
            "seconds": "wall clock",
            "speedup": "reference/batch",
            "bandwidth_bits": "exact ledger (bitround/edge) or "
            "ceil(log2 n) message width",
        },
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
            e["rounds"],
            e["num_colors"],
            e["bandwidth_bits"],
            round(e["reference_seconds"] * 1000, 1),
            round(e["batch_seconds"] * 1000, 1),
            "%.1fx" % e["speedup"],
        )
        for e in entries
    ]
    report(
        "E-FRONTIER",
        "Table-1 frontier sweep: rounds / palette / bandwidth / wall clock "
        "per registered algorithm, reference vs batch",
        ("algorithm", "n", "Delta", "rounds", "colors", "bits",
         "ref ms", "batch ms", "speedup"),
        rows,
        notes="BENCH_frontier.json at the repo root carries the same data "
        "machine-readably; check_regression.py gates it per "
        "(algorithm, n, Delta).",
    )
    return payload


def _largest_point(entries, label):
    rows = [e for e in entries if e["algorithm"] == label]
    return max(rows, key=lambda e: (e["n"], e["delta"])) if rows else None


def test_frontier_grid():
    entries = run_grid()
    write_results(entries)
    for label in NEW_MODULES:
        entry = _largest_point(entries, label)
        assert entry is not None, label
        assert entry["speedup"] >= SPEEDUP_FLOOR, (label, entry)
    # The k knob trades palette for rounds, Maus-style: larger k buys a
    # smaller conflict budget — more colors, fewer conflict rounds.
    knob = sorted(
        (e for e in entries if e["algorithm"].startswith("one-plus-eps-k")),
        key=lambda e: int(e["algorithm"].rsplit("k", 1)[1]),
    )
    assert len(knob) == 4
    assert knob[0]["num_colors"] <= knob[-1]["num_colors"]


def _smoke():
    grid = {}
    for label, n, delta in GRID:
        grid.setdefault(label, (label, n, delta))
    points = sorted(grid.values())
    entries = run_grid(points)
    for entry in entries:
        print(
            "smoke %-16s n=%-6d Delta=%-3d rounds=%-6s colors=%-5s %0.1fx"
            % (
                entry["algorithm"],
                entry["n"],
                entry["delta"],
                entry["rounds"],
                entry["num_colors"],
                entry["speedup"],
            )
        )
    print("frontier smoke OK: %d algorithms, parity asserted" % len(entries))


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        _smoke()
    else:
        write_results(run_grid())
