"""Zero-copy shared-memory fan-out for the multi-process job runner.

The PR-5 pool ships every job *by value*: each worker regenerates its graph
from the :class:`~repro.parallel.jobs.JobSpec` and pickles the full color
list back through the result queue.  This module moves the two largest
payloads into ``multiprocessing.shared_memory`` segments instead:

* **graph segments** — the parent writes a graph's CSR adjacency
  (``indptr`` followed by ``indices``, both ``int64``) into one segment and
  ships only the segment *name* plus shape metadata; workers attach and wrap
  the buffers in a CSR-backed :class:`~repro.runtime.graph.StaticGraph`
  (:meth:`~repro.runtime.graph.StaticGraph.from_csr`, no copy), so the
  per-worker rebuild disappears entirely;
* **color segments** — one small per-job segment the worker writes the
  final color array into, replacing the list in the envelope with a tiny
  marker the parent resolves back from the segment (``offload_colors`` /
  ``restore_colors``).

Lifecycle is strictly **parent-creates, worker-attaches**: every segment is
owned by a :class:`SegmentManager` in the parent, released when the last job
referencing it finalizes (:class:`ShmPlane` refcounts graph segments across
jobs), with ``JobRunner.close``/``__exit__`` and an ``atexit`` hook as
backstops.  Segments deliberately survive the timeout machinery's pool
terminate-and-rebuild: the re-dispatched payloads attach to the same names.
Workers never unlink — a killed or crashed worker can therefore never leak a
``/dev/shm`` entry; the mapping dies with its process.

Every path degrades to the by-value protocol with bit-identical results:
no ``shared_memory`` module, ``shm=False`` on the runner, a failed attach
inside a worker, or a color list the segment cannot represent all simply
leave the plain-dict envelope untouched.
"""

import atexit
import os
import secrets
import weakref

import numpy as np

from repro.obs import core as obs
from repro.runtime.csr import CSRAdjacency
from repro.runtime.graph import StaticGraph

__all__ = [
    "SEGMENT_PREFIX",
    "SegmentManager",
    "ShmPlane",
    "attach_graph",
    "export_graph",
    "offload_colors",
    "restore_colors",
    "segment_stats",
    "shared_memory_or_none",
    "shm_available",
]

#: Every segment name starts with this; tests scan ``/dev/shm`` for leaks.
SEGMENT_PREFIX = "repro-shm-"

#: Marker key the worker leaves in ``payload["colors"]`` after offloading.
COLORS_KEY = "__shm_colors__"

_BUDGET_ENV = "REPRO_SHM_BUDGET"

#: Cap on live segment bytes per ``map_jobs`` call; graphs beyond it run by
#: value.  2 GiB covers four distinct n=10^6, degree-16 topologies.
_DEFAULT_BUDGET = 2 << 30


def shared_memory_or_none():
    """The ``multiprocessing.shared_memory`` module, or None when unusable."""
    try:
        from multiprocessing import shared_memory
    except (ImportError, OSError):
        return None
    return shared_memory


def shm_available():
    """True iff the shared-memory fan-out plane can be used at all."""
    return shared_memory_or_none() is not None


def shm_budget():
    """Byte budget for segments created per ``map_jobs`` call."""
    try:
        return int(os.environ.get(_BUDGET_ENV, _DEFAULT_BUDGET))
    except ValueError:
        return _DEFAULT_BUDGET


# -- segment ownership ----------------------------------------------------------------

_LIVE_MANAGERS = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def segment_stats():
    """Count and total bytes of every live manager's owned segments.

    A cheap process-wide occupancy reading over ``_LIVE_MANAGERS``; the
    sampling profiler (:mod:`repro.obs.flight`) records it per sample so a
    timeline shows when the shared-memory plane fills and drains.
    """
    segments = 0
    total = 0
    for manager in list(_LIVE_MANAGERS):
        for segment in list(manager._segments.values()):
            segments += 1
            total += int(getattr(segment, "size", 0) or 0)
    return {"segments": segments, "bytes": total}


def _cleanup_managers():
    # Each manager individually: one close() blowing up (a view pinned by a
    # worker that died mid-round, an interpreter half torn down) must not
    # stop the remaining managers — e.g. the partition runner's halo
    # segments — from being unlinked.
    for manager in list(_LIVE_MANAGERS):
        try:
            manager.close()
        except Exception:
            pass


class SegmentManager:
    """Parent-side owner of every shared-memory segment.

    Creation and unlinking happen only here; workers attach by name and
    merely close their mapping.  The manager is fork-safe: a forked child
    inheriting it (the pool workers inherit the parent's modules) must never
    unlink the parent's segments, so ``close`` is a no-op outside the
    creating process.  An ``atexit`` hook closes any manager still live at
    interpreter shutdown — the last line of defense against ``/dev/shm``
    leaks when a runner is abandoned without ``close()``.
    """

    def __init__(self):
        self._pid = os.getpid()
        self._segments = {}
        global _ATEXIT_REGISTERED
        if not _ATEXIT_REGISTERED:
            atexit.register(_cleanup_managers)
            _ATEXIT_REGISTERED = True
        _LIVE_MANAGERS.add(self)

    def __len__(self):
        return len(self._segments)

    def names(self):
        """Names of the segments currently owned (sorted, for tests)."""
        return sorted(self._segments)

    def create(self, nbytes):
        """Create and own a new segment of at least ``nbytes`` bytes."""
        shared_memory = shared_memory_or_none()
        if shared_memory is None:
            raise RuntimeError("shared memory is unavailable")
        name = SEGMENT_PREFIX + secrets.token_hex(8)
        segment = shared_memory.SharedMemory(create=True, size=max(1, int(nbytes)), name=name)
        self._segments[name] = segment
        return segment

    def get(self, name):
        """The owned segment called ``name``, or None."""
        return self._segments.get(name)

    def release(self, name):
        """Close and unlink one owned segment (idempotent)."""
        segment = self._segments.pop(name, None)
        if segment is None:
            return
        try:
            segment.close()
        except BufferError:
            # A numpy view is still alive somewhere; unlink regardless — the
            # name disappears now, the memory when the last mapping drops.
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass

    def close(self):
        """Release every owned segment (close-only in forked children).

        A forked child inheriting the manager (pool workers, including the
        partition runner's halo workers) must never unlink the parent's
        segments — but it must still close its inherited mappings, or a
        worker dying between rounds pins the segment memory until every
        other mapping drops.
        """
        if os.getpid() != self._pid:
            for segment in self._segments.values():
                try:
                    segment.close()
                except (BufferError, OSError):
                    pass
            self._segments.clear()
            return
        for name in list(self._segments):
            self.release(name)


# -- the graph plane ------------------------------------------------------------------


def export_graph(manager, graph):
    """Write ``graph``'s CSR arrays into a new segment; return attach metadata.

    Layout: ``indptr`` (``n + 1`` int64) at offset 0, ``indices`` (``2m``
    int64) immediately after.  Returns None when the graph cannot be
    exported (segment creation failed).
    """
    try:
        csr = graph.csr()
        segment = manager.create(csr.indptr.nbytes + csr.indices.nbytes)
    except (RuntimeError, OSError, ValueError):
        return None
    indptr_view = np.ndarray(csr.indptr.shape, dtype=np.int64, buffer=segment.buf)
    indptr_view[:] = csr.indptr
    indices_view = np.ndarray(
        csr.indices.shape, dtype=np.int64, buffer=segment.buf, offset=csr.indptr.nbytes
    )
    indices_view[:] = csr.indices
    del indptr_view, indices_view
    return {
        "segment": segment.name,
        "n": int(graph.n),
        "m": int(graph.m),
        "nbytes": csr.indptr.nbytes + csr.indices.nbytes,
    }


def attach_graph(meta):
    """Worker-side: attach to an exported graph segment.

    Returns ``(graph, segment)``: a CSR-backed
    :class:`~repro.runtime.graph.StaticGraph` whose ``indptr``/``indices``
    *are* the segment memory (only the derived CSR columns are computed
    here), and the attached segment, which the caller closes once the graph
    is dropped.
    """
    shared_memory = shared_memory_or_none()
    if shared_memory is None:
        raise RuntimeError("shared memory is unavailable")
    segment = shared_memory.SharedMemory(name=meta["segment"])
    n, m = int(meta["n"]), int(meta["m"])
    indptr = np.ndarray((n + 1,), dtype=np.int64, buffer=segment.buf)
    indices = np.ndarray(
        (2 * m,), dtype=np.int64, buffer=segment.buf, offset=(n + 1) * 8
    )
    return StaticGraph.from_csr(CSRAdjacency.from_arrays(n, indptr, indices)), segment


# -- the color plane ------------------------------------------------------------------


def offload_colors(envelope, meta):
    """Worker-side: move the envelope's color list into its shared segment.

    Replaces ``summary.payload.colors`` with the ``{COLORS_KEY: count}``
    marker when — and only when — the list round-trips exactly through an
    ``int64`` array; anything else (floats, overlong lists, overflowing
    ints, non-list payloads) stays by value.
    """
    if not envelope.get("ok"):
        return
    summary = envelope.get("summary") or {}
    payload = summary.get("payload") or {}
    colors = payload.get("colors")
    if not isinstance(colors, list) or len(colors) > meta["capacity"]:
        return
    shared_memory = shared_memory_or_none()
    if shared_memory is None:
        return
    try:
        array = np.asarray(colors)
    except (TypeError, ValueError, OverflowError):
        return
    if array.dtype.kind != "i" or array.ndim != 1:
        return
    segment = shared_memory.SharedMemory(name=meta["segment"])
    try:
        view = np.ndarray((meta["capacity"],), dtype=np.int64, buffer=segment.buf)
        view[: array.size] = array
        del view
    finally:
        try:
            segment.close()
        except BufferError:
            pass
    payload["colors"] = {COLORS_KEY: int(array.size)}


def restore_colors(envelope, meta, manager):
    """Parent-side: resolve a worker's color marker back into a plain list."""
    summary = envelope.get("summary") or {}
    payload = summary.get("payload") or {}
    colors = payload.get("colors")
    if not (isinstance(colors, dict) and COLORS_KEY in colors):
        return
    segment = manager.get(meta["segment"])
    count = int(colors[COLORS_KEY])
    view = np.ndarray((meta["capacity"],), dtype=np.int64, buffer=segment.buf)
    payload["colors"] = view[:count].tolist()
    del view


# -- per-map_jobs orchestration -------------------------------------------------------


class ShmPlane:
    """Per-``map_jobs`` segment bookkeeping: annotate payloads, refcount, release.

    Graph segments are shared across every job with the same topology key
    and exported only when the topology is *reused* (two or more jobs) or
    already materialized in the parent's graph cache — otherwise by-value
    dispatch lets the workers generate in parallel, which is never slower.
    Color segments are per-job and always created (they are tiny and remove
    the result-queue pickle of the largest field).
    """

    def __init__(self, manager, budget=None):
        self.manager = manager
        self.budget = shm_budget() if budget is None else budget
        self._spent = 0
        self._graph_refs = {}  # segment name -> outstanding job count
        self._graph_by_index = {}  # job index -> graph segment name
        self._colors_by_index = {}  # job index -> colors meta

    def annotate(self, specs, payloads):
        """Attach shm metadata to every payload this plane can serve."""
        from repro.parallel.jobs import build_graph, graph_key, peek_graph

        by_key = {}
        for index, spec in enumerate(specs):
            try:
                key = graph_key(spec.graph)
            except TypeError:
                key = ("unhashable", index)
            by_key.setdefault(key, []).append(index)
        graph_meta = {}
        for key, indices in by_key.items():
            cached = peek_graph(dict(key)) if isinstance(key[0], tuple) else None
            if len(indices) < 2 and cached is None:
                continue
            graph = cached if cached is not None else build_graph(dict(key))
            estimated = 8 * (graph.n + 1 + 2 * graph.m)
            if self._spent + estimated > self.budget:
                continue
            meta = export_graph(self.manager, graph)
            if meta is None:
                continue
            self._spent += meta["nbytes"]
            self._graph_refs[meta["segment"]] = len(indices)
            graph_meta[key] = meta
            for index in indices:
                self._graph_by_index[index] = meta["segment"]
                payloads[index]["shm_graph"] = meta
        for index, spec in enumerate(specs):
            n = int(spec.graph.get("n", 64))
            if spec.graph.get("family") == "grid":
                n = int(spec.graph.get("rows", 8)) * int(spec.graph.get("cols", 8))
            nbytes = max(1, n) * 8
            if self._spent + nbytes > self.budget:
                continue
            try:
                segment = self.manager.create(nbytes)
            except (RuntimeError, OSError, ValueError):
                continue
            self._spent += nbytes
            meta = {"segment": segment.name, "capacity": n}
            self._colors_by_index[index] = meta
            payloads[index]["shm_colors"] = meta
        tel = obs.active()
        if tel.enabled:
            if self._graph_refs:
                tel.counter("parallel.shm.graph_segments", value=len(self._graph_refs))
            if self._colors_by_index:
                tel.counter("parallel.shm.color_segments", value=len(self._colors_by_index))
            tel.gauge("parallel.shm.bytes", self._spent)

    def finalize(self, index, envelope):
        """A job reached its final envelope: restore colors, drop references."""
        colors_meta = self._colors_by_index.pop(index, None)
        if colors_meta is not None:
            if envelope.get("ok"):
                restore_colors(envelope, colors_meta, self.manager)
            self.manager.release(colors_meta["segment"])
        name = self._graph_by_index.pop(index, None)
        if name is not None:
            self._graph_refs[name] -= 1
            if self._graph_refs[name] <= 0:
                del self._graph_refs[name]
                self.manager.release(name)

    def close(self):
        """Release everything still outstanding (exception backstop)."""
        for meta in self._colors_by_index.values():
            self.manager.release(meta["segment"])
        self._colors_by_index.clear()
        for name in self._graph_refs:
            self.manager.release(name)
        self._graph_refs.clear()
        self._graph_by_index.clear()
