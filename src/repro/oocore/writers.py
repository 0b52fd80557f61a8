"""Streaming shard writers: graphs generated straight into memmap shards.

Two generator families are emitted without ever materializing a
:class:`~repro.runtime.graph.StaticGraph` (whose Python-object adjacency
costs ~112 bytes per slot):

* :func:`write_random_regular` — the stub-matching construction with the
  switch repair, replayed on flat int64 arrays plus a small defect-delta
  dict.  Consumes the **identical MT19937 draw sequence** as
  :func:`repro.graphgen.generators.random_regular` (the same
  ``_np_rng`` transplant, the same ``rng.randrange`` replay), so the edge
  set — and therefore every downstream color — is bit-identical at any
  size where both run.
* :func:`write_gnp` — G(n, p) in two passes over the *same* per-block
  uniform draws as :func:`repro.graphgen.generators.gnp_graph`: pass A
  accumulates degrees, pass B re-runs the stream and scatters neighbors
  through per-vertex cursors.  Peak scratch is one RNG block, independent
  of the edge count.

Both finish through :func:`finalize_shards`, which partitions the vertex
range, computes each shard's halo table, localizes the neighbor ids into
``lindices.i64``, and writes ``meta.json`` — after which
:class:`~repro.oocore.store.ShardedCSRGraph` can open the directory.

:func:`shard_static_graph` converts an already-built in-memory graph (any
family) to the same format; :func:`ensure_sharded` is the disk-cached
front door the job runner and backend factory use.
"""

import hashlib
import json
import os
import random

import numpy as np

from repro.graphgen.generators import _GNP_BLOCK, _np_rng, _np_rng_sync_back
from repro.oocore.store import (
    COLORS_FILE,
    FORMAT_VERSION,
    HALO_FILE,
    INDICES_FILE,
    INDPTR_FILE,
    LINDICES_FILE,
    META_FILE,
    ShardedCSRGraph,
    default_shards,
    partition_ranges,
    release_pages,
    scratch_root,
)

__all__ = [
    "ensure_sharded",
    "finalize_shards",
    "shard_static_graph",
    "write_edge_arrays",
    "write_gnp",
    "write_random_regular",
]


def _create(path, name, count):
    """A fresh int64 memmap file of ``count`` entries (zero-length safe)."""
    full = os.path.join(path, name)
    if count == 0:
        with open(full, "wb"):
            pass
        return np.zeros(0, dtype=np.int64)
    return np.memmap(full, dtype=np.int64, mode="w+", shape=(count,))


def finalize_shards(path, n, m, indptr, indices, shards=None, provenance=None):
    """Partition, localize, and stamp a shard directory; returns the graph.

    ``indptr``/``indices`` are the already-written global CSR arrays (memmap
    or ndarray).  Writes ``lindices.i64``, ``halo.i64``, a zeroed
    ``colors.i64``, and ``meta.json``.
    """
    if shards is None:
        shards = default_shards(n, m)
    ranges = partition_ranges(indptr, n, shards)
    max_degree = int(np.diff(np.asarray(indptr)).max()) if n else 0

    lindices = _create(path, LINDICES_FILE, 2 * m)
    halo_chunks = []
    halo_offsets = [0]
    for lo, hi in ranges:
        start, end = int(indptr[lo]), int(indptr[hi])
        sl = np.array(indices[start:end])
        outside = (sl < lo) | (sl >= hi)
        halo = np.unique(sl[outside])
        k = hi - lo
        local = np.empty_like(sl)
        inside = ~outside
        local[inside] = sl[inside] - lo
        local[outside] = k + np.searchsorted(halo, sl[outside])
        if end > start:
            lindices[start:end] = local
        halo_chunks.append(halo)
        halo_offsets.append(halo_offsets[-1] + halo.shape[0])
    halo_file = _create(path, HALO_FILE, halo_offsets[-1])
    for i, chunk in enumerate(halo_chunks):
        if chunk.shape[0]:
            halo_file[halo_offsets[i]:halo_offsets[i + 1]] = chunk
    colors = _create(path, COLORS_FILE, n)
    for array in (lindices, halo_file, colors):
        release_pages(array)

    meta = {
        "format": FORMAT_VERSION,
        "n": int(n),
        "m": int(m),
        "max_degree": max_degree,
        "ranges": [[int(a), int(b)] for a, b in ranges],
        "halo_offsets": [int(x) for x in halo_offsets],
        "provenance": provenance or {},
    }
    with open(os.path.join(path, META_FILE), "w") as handle:
        json.dump(meta, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return ShardedCSRGraph(path, meta)


def write_edge_arrays(path, n, u, v, shards=None, provenance=None):
    """Shards from edge endpoint arrays (``u < v`` elementwise, sorted by
    ``(u, v)``, no duplicates) — the shared CSR fill of both writers.

    The fill reproduces ``StaticGraph``'s sorted neighbor lists exactly:
    for vertex ``x`` the backward neighbors (edges where ``x`` is the larger
    endpoint) are all ``< x`` and arrive in ascending order, then the
    forward ones (all ``> x``), also ascending — one sorted row.
    """
    os.makedirs(path, exist_ok=True)
    m = int(u.shape[0])
    degrees = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    indptr = _create(path, INDPTR_FILE, n + 1)
    if n:
        indptr[0] = 0
        np.cumsum(degrees, out=indptr[1:])
    indices = _create(path, INDICES_FILE, 2 * m)
    if m:
        bwd_count = np.bincount(v, minlength=n)
        arange = np.arange(m, dtype=np.int64)
        # Backward half: group by v (stable keeps u ascending within a group).
        order = np.argsort(v, kind="stable")
        vs = v[order]
        indices[np.asarray(indptr)[vs] + (arange - np.searchsorted(vs, vs))] = u[order]
        # Forward half: already grouped by u with v ascending.
        indices[
            np.asarray(indptr)[u] + bwd_count[u] + (arange - np.searchsorted(u, u))
        ] = v
    graph = finalize_shards(
        path, n, m, indptr, indices, shards=shards, provenance=provenance
    )
    release_pages(indptr)
    release_pages(indices)
    return graph


def write_random_regular(path, n, d, seed, shards=None):
    """Stream a random d-regular graph into shards, bit-identical to
    :func:`repro.graphgen.generators.random_regular`.

    The stub keys, the stable argsort, and every repair draw replay the
    in-memory generator's exact RNG sequence; only the bookkeeping differs —
    pair endpoints live in two int64 arrays and the per-edge multiplicities
    in a sorted base-count table plus a small delta dict touched only by
    repairs, instead of an O(m) Python dict.
    """
    provenance = {"generator": "random_regular", "n": n, "d": d, "seed": seed}
    if n * d % 2:
        raise ValueError("n * d must be even for a d-regular graph")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n (got d=%d, n=%d)" % (d, n))
    os.makedirs(path, exist_ok=True)
    if d == 0:
        return write_edge_arrays(
            path, n, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            shards=shards, provenance=provenance,
        )
    if d == n - 1:
        iu, iv = np.triu_indices(n, 1)
        return write_edge_arrays(
            path, n, iu.astype(np.int64), iv.astype(np.int64),
            shards=shards, provenance=provenance,
        )
    rng = random.Random(seed)
    stub_count = n * d
    state = _np_rng(rng)
    keys = state.random_sample(stub_count)
    _np_rng_sync_back(rng, state)
    owners = np.argsort(keys, kind="stable")
    del keys
    owners //= d
    pu = owners[0::2].copy()
    pv = owners[1::2].copy()
    del owners
    npairs = stub_count // 2
    lo = np.minimum(pu, pv)
    hi = np.maximum(pu, pv)
    pair_key = lo * n + hi
    self_mask = pu == pv
    del lo, hi
    uniq, base = np.unique(pair_key[~self_mask], return_counts=True)

    delta = {}

    def count(a, b):
        key = a * n + b if a < b else b * n + a
        i = int(np.searchsorted(uniq, key))
        value = int(base[i]) if i < uniq.shape[0] and uniq[i] == key else 0
        return value + delta.get(int(key), 0)

    def bump(a, b, by):
        key = int(a * n + b if a < b else b * n + a)
        delta[key] = delta.get(key, 0) + by

    # Defective pairs: self-loops, or multiplicity > 1.  The scalar
    # generator builds its stack descending and pops from the end, i.e.
    # processes ascending t — same here.
    idx = np.searchsorted(uniq, pair_key)
    idx[idx >= uniq.shape[0]] = 0
    multi = np.zeros(npairs, dtype=bool)
    if uniq.shape[0]:
        found = uniq[idx] == pair_key
        multi[found] = base[idx[found]] > 1
    stack = np.nonzero(self_mask | multi)[0][::-1].tolist()
    del pair_key, self_mask, idx, multi
    attempts = 0
    limit = 200 * npairs + 1000
    while stack:
        t = stack.pop()
        u, v = int(pu[t]), int(pv[t])
        if u != v and count(u, v) == 1:
            continue  # healed by an earlier switch
        while True:
            attempts += 1
            if attempts > limit:
                raise RuntimeError(
                    "random_regular(%d, %d, seed=%r) failed to repair the "
                    "stub matching" % (n, d, seed)
                )
            s = rng.randrange(npairs)
            if s == t:
                continue
            x, y = int(pu[s]), int(pv[s])
            # Switch (u, v), (x, y) -> (u, y), (x, v) when it stays simple.
            if u == y or x == v:
                continue
            if u != v:
                bump(u, v, -1)
            if x != y:
                bump(x, y, -1)
            new_a = (u, y) if u < y else (y, u)
            new_b = (x, v) if x < v else (v, x)
            if new_a != new_b and not count(*new_a) and not count(*new_b):
                bump(*new_a, 1)
                bump(*new_b, 1)
                pu[t], pv[t] = u, y
                pu[s], pv[s] = x, v
                break
            if u != v:
                bump(u, v, 1)
            if x != y:
                bump(x, y, 1)
    # Effective multiplicities are all 0 or 1 now; the surviving keys,
    # numerically sorted, are the lexicographically sorted edge list.
    eff = base.astype(np.int64)
    extra = []
    for key, dv in delta.items():
        i = int(np.searchsorted(uniq, key))
        if i < uniq.shape[0] and uniq[i] == key:
            eff[i] += dv
        elif dv > 0:
            extra.append(key)
    final = uniq[eff > 0]
    if extra:
        final = np.sort(np.concatenate([final, np.array(extra, dtype=np.int64)]))
    return write_edge_arrays(
        path, n, final // n, final % n, shards=shards, provenance=provenance
    )


def write_gnp(path, n, p, seed, shards=None):
    """Stream G(n, p) into shards, bit-identical to
    :func:`repro.graphgen.generators.gnp_graph`.

    Two passes over the identical block-RNG stream: degrees first, then a
    cursor-scatter fill.  Within a block the edges come out in the scalar
    loop's row-major ``(i, j)`` order, so every vertex's backward neighbors
    (ascending ``i``) land before its forward ones (ascending ``j``) — the
    sorted rows ``StaticGraph`` would build.
    """
    provenance = {"generator": "gnp", "n": n, "p": p, "seed": seed}
    os.makedirs(path, exist_ok=True)

    def blocks():
        rng = random.Random(seed)
        state = _np_rng(rng)
        start_row = 0
        while start_row < n - 1:
            end_row = start_row
            count = 0
            while end_row < n - 1 and count + (n - 1 - end_row) <= _GNP_BLOCK:
                count += n - 1 - end_row
                end_row += 1
            if end_row == start_row:  # a single row exceeding the block cap
                end_row += 1
                count = n - 1 - start_row
            lengths = np.arange(
                n - 1 - start_row, n - 1 - end_row, -1, dtype=np.int64
            )
            starts = np.zeros(end_row - start_row, dtype=np.int64)
            np.cumsum(lengths[:-1], out=starts[1:])
            hits = np.nonzero(state.random_sample(count) < p)[0]
            if hits.size:
                row_idx = np.searchsorted(starts, hits, side="right") - 1
                i_arr = row_idx + start_row
                j_arr = i_arr + 1 + (hits - starts[row_idx])
                yield i_arr, j_arr
            start_row = end_row

    degrees = np.zeros(n, dtype=np.int64)
    m = 0
    for i_arr, j_arr in blocks():
        degrees += np.bincount(i_arr, minlength=n)
        degrees += np.bincount(j_arr, minlength=n)
        m += i_arr.shape[0]
    indptr = _create(path, INDPTR_FILE, n + 1)
    if n:
        indptr[0] = 0
        np.cumsum(degrees, out=indptr[1:])
    indices = _create(path, INDICES_FILE, 2 * m)
    cursor = np.asarray(indptr)[:-1].copy() if n else degrees
    for i_arr, j_arr in blocks():
        cnt = i_arr.shape[0]
        verts = np.empty(2 * cnt, dtype=np.int64)
        nbrs = np.empty(2 * cnt, dtype=np.int64)
        verts[0::2] = i_arr
        verts[1::2] = j_arr
        nbrs[0::2] = j_arr
        nbrs[1::2] = i_arr
        order = np.argsort(verts, kind="stable")
        sv = verts[order]
        slots = cursor[sv] + (
            np.arange(2 * cnt, dtype=np.int64) - np.searchsorted(sv, sv)
        )
        indices[slots] = nbrs[order]
        cursor += np.bincount(verts, minlength=n)
    graph = finalize_shards(
        path, n, m, indptr, indices, shards=shards, provenance=provenance
    )
    release_pages(indptr)
    release_pages(indices)
    return graph


def shard_static_graph(graph, path, shards=None, provenance=None):
    """Convert an in-memory :class:`StaticGraph` (or CSR-bearing drop-in)
    to a shard directory — the bridge for families without a streaming
    writer and for ``backend=\"oocore\"`` on an already-built graph."""
    os.makedirs(path, exist_ok=True)
    csr = graph.csr()
    indptr = _create(path, INDPTR_FILE, graph.n + 1)
    if graph.n:
        indptr[:] = csr.indptr
    indices = _create(path, INDICES_FILE, 2 * graph.m)
    if graph.m:
        indices[:] = csr.indices
    sharded = finalize_shards(
        path, graph.n, graph.m, indptr, indices, shards=shards,
        provenance=provenance or {"generator": "static"},
    )
    release_pages(indptr)
    release_pages(indices)
    return sharded


# -- the disk-cached front door -------------------------------------------------------


def _cache_dir_for(spec, shards):
    payload = json.dumps(
        {"spec": spec, "shards": shards, "format": FORMAT_VERSION},
        sort_keys=True, default=str,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    family = str(spec.get("family", "regular"))
    n = int(spec.get("n", 64))
    return os.path.join(
        scratch_root(), "repro-oocore", "%s-n%d-%s" % (family, n, digest)
    )


def ensure_sharded(spec, shards=None, cache=True):
    """A :class:`ShardedCSRGraph` for a job-runner graph spec dict.

    Families with a streaming writer (``regular``, ``gnp``) are emitted
    straight to shards; every other family is built in memory once and
    converted.  Results are cached on disk keyed by the spec (generation is
    deterministic), so sweeps reuse the shard files across jobs and even
    across processes.
    """
    spec = dict(spec)
    directory = _cache_dir_for(spec, shards)
    if cache and os.path.exists(os.path.join(directory, META_FILE)):
        try:
            return ShardedCSRGraph.open(directory)
        except (ValueError, OSError, KeyError):
            pass  # stale/corrupt cache entry: rebuild below
    family = spec.get("family", "regular")
    n = int(spec.get("n", 64))
    seed = spec.get("seed", 1)
    os.makedirs(directory, exist_ok=True)
    if family == "regular":
        return write_random_regular(
            directory, n, int(spec.get("degree", 6)), seed, shards=shards
        )
    if family == "gnp":
        return write_gnp(
            directory, n, float(spec.get("prob", 0.1)), seed, shards=shards
        )
    from repro.parallel.jobs import build_graph

    return shard_static_graph(
        build_graph(spec), directory, shards=shards, provenance={"spec": spec}
    )
