"""The sharded state plane: batch rounds over memory-mapped CSR shards.

One :class:`PartitionRunner` is the state plane of one out-of-core stage
run: :class:`~repro.oocore.engine.OocoreColoringEngine` runs the batch
round loop of :mod:`repro.runtime.fast_engine` over it.  Every worker
owns one shard of a :class:`~repro.oocore.store.ShardedCSRGraph`, runs the
stage's existing ``step_batch`` kernel on its local CSR slice, and the only
cross-shard data that moves between rounds is each shard's **halo** — the
colors of its boundary neighbors.

Data planes
-----------
* **state planes** — double-buffered per-component int64 memmap files
  (:class:`~repro.oocore.store.PlaneStore`), encoded and decoded shard by
  shard.  Workers are forked, the files are MAP_SHARED, so shard-disjoint
  writes are coherent through the page cache without any result pickling.
* **halo planes** — per-shard ``(ncomp, h)`` buffers the parent fills from
  the source plane before dispatching a round.  In pool mode they live in
  ``multiprocessing.shared_memory`` segments owned by a
  :class:`~repro.parallel.shm.SegmentManager` (same prefix, same atexit
  backstop); workers inherit the mappings through fork and never attach or
  unlink — a killed worker cannot leak ``/dev/shm`` entries.  Inline they
  are plain arrays.  Either way the gathered bytes are the metered boundary
  exchange.

``step`` is the synchronous-round barrier: it returns only when every shard
finished.  Conflict counts and the properness check need every endpoint's
*new* color, which a shard's halo copy does not hold yet, so they come from
a second, read-only pass over the settled plane (:func:`_scan_shard`).
"""

import shutil
import tempfile

import numpy as np

from repro.obs import core as obs
from repro.obs import flight
from repro.oocore.store import (
    MemoryBudgetError,
    PlaneStore,
    memory_budget,
    peak_rss_bytes,
    release_pages,
)
from repro.parallel.shm import SegmentManager, shared_memory_or_none
from repro.runtime.fast_engine import equal_pairs, round_counts, scalar_color

__all__ = ["PartitionRunner"]

#: Per-round barrier timeout (seconds) in pool mode; a worker stuck past it
#: gets the pool terminated and a RuntimeError raised (segments released by
#: ``close``).
_DEFAULT_TIMEOUT = 600.0

#: Above this many vertices the plane stops pinning the full final state in
#: RAM, and ``result.colors`` (scalar tuples) becomes unavailable — the
#: decoded int64 array is the product at scale.
_SCALAR_STATE_LIMIT = 1 << 22

_WORKER = {}


def _release(runner, *planes):
    """Drop the resident pages a shard task touched (budget discipline)."""
    if runner.budget is not None:
        for plane in planes:
            for column in plane:
                release_pages(column)
        runner.graph.release_resident()


def _step_shard(runner, shard_id, round_index, src):
    """One shard, one synchronous round.

    Returns ``(changed, finalized, all_final, io_read, io_written)``.
    """
    ncomp = runner.planes.ncomp
    local, io_read = runner.local(shard_id)
    lo, hi, k = local.lo, local.hi, local.k
    halo = runner.halo_views.get(shard_id)
    src_planes = runner.planes.buffer(src)
    dst_planes = runner.planes.buffer(1 - src)
    state = []
    for comp in range(ncomp):
        owned = np.array(src_planes[comp][lo:hi])
        if halo is not None and halo.shape[1]:
            state.append(np.concatenate([owned, halo[comp]]))
        else:
            state.append(owned)
    state = tuple(state)
    io_read += 8 * k * ncomp
    stage = runner.stage
    new_state = stage.step_batch(round_index, state, local.csr(), runner.visibility)
    counts = round_counts(stage, state, new_state, k)
    for comp in range(ncomp):
        dst_planes[comp][lo:hi] = new_state[comp][:k]
    _release(runner, dst_planes, src_planes)
    return counts + (io_read, 8 * k * ncomp)


def _scan_shard(runner, shard_id, src):
    """Improper forward edges of one shard on plane ``src``: ``(count, first)``.

    Halo colors come straight from the plane, so the scan sees what every
    shard wrote.  Forward means larger *global* neighbor id — each edge
    counted once, at its smaller endpoint, in the batch engine's edge
    order — and ``first`` is the shard's first improper edge as
    ``(u, v, scalar color of u)`` in global ids, or None.
    """
    local, _ = runner.local(shard_id)
    slots = local.lindices.shape[0]
    if not slots:
        return 0, None
    plane = runner.planes.buffer(src)
    state = tuple(
        np.concatenate([
            np.array(column[local.lo:local.hi]), np.asarray(column)[local.halo]
        ])
        for column in plane
    )
    # Owner rows straight from indptr: building the shard's full local CSR
    # here would double the work of every round it is not cached for.
    owner = np.repeat(
        np.arange(local.k, dtype=np.int64), np.diff(local.indptr_local[:local.k + 1])
    )
    fwd = local.global_indices() > owner + local.lo
    rows = owner[fwd]
    equal = equal_pairs(state, rows, local.lindices[fwd])
    _release(runner, plane)
    if not bool(equal.any()):
        return 0, None
    i = int(np.argmax(equal))
    u = int(rows[i])
    v = int(local.global_indices()[fwd][i])
    return int(equal.sum()), (u + local.lo, v, scalar_color(runner.stage, state, u))


def _init_worker(runner, heartbeat):
    """Pool initializer: keep the runner inherited through fork.

    Its memmap planes and shared-memory halo views are the parent's own
    mappings; its local-CSR cache becomes this worker's own.
    """
    _WORKER["runner"] = runner
    _WORKER["heartbeat"] = heartbeat


def _pool_task(fn, *args):
    """Run one shard task in a pool worker (beating the heartbeat first)."""
    board = _WORKER.get("heartbeat")
    if board is not None:
        flight.beat(board)
    return fn(_WORKER["runner"], *args)


class PartitionRunner:
    """The sharded state plane of one stage run (see the module docstring).

    Implements the plane operations of :mod:`repro.runtime.fast_engine`:
    :meth:`encode`, :meth:`step`, :meth:`first_conflict`, :meth:`decode`,
    :meth:`close`.  ``workers`` > 1 requests pool mode (fork +
    shared-memory halo planes); anything else — including platforms without
    fork or shm — runs the same shard loop inline with identical results.
    Planes and the pool live from :meth:`encode` (the first shard reveals
    the component count) to :meth:`close`, in a scratch directory under
    ``scratch``.  With telemetry on and ``REPRO_PROFILE=1`` a sampling
    profiler records the run, with shard-residency gauges.
    """

    def __init__(self, graph, stage, visibility, workers=None, scratch=None,
                 timeout=_DEFAULT_TIMEOUT):
        self.graph = graph
        self.stage = stage
        self.visibility = visibility
        self.workers = workers
        self.timeout = timeout
        self.budget = memory_budget()
        # Local CSRs are reused across rounds while they fit this many
        # bytes, and re-streamed from disk otherwise.
        self.cache_bytes = (
            (self.budget // 4) if self.budget is not None else (256 << 20)
        )
        self.tel = obs.active()
        self.profiler = flight.maybe_profiler(self.tel)
        self.sampling = False
        self.directory = tempfile.mkdtemp(prefix="repro-oocore-planes-", dir=scratch)
        self.planes = None
        self.src = 0
        self.io_read = self.io_written = self.halo_bytes = 0
        self._pool = None
        self._manager = None
        self._watchdog = None
        self._locals = {}
        self._locals_bytes = 0
        self._halo_ids = {}
        self.halo_views = {}  # shard_id -> (ncomp, h) array
        self._halo_slots = 0
        for shard_id in range(graph.shards):
            ids = graph.halo_ids(shard_id)
            if ids.shape[0]:
                self._halo_ids[shard_id] = ids
                self._halo_slots += int(ids.shape[0])

    @staticmethod
    def _fork_context():
        from repro.parallel.runner import _multiprocessing_context

        context = _multiprocessing_context()
        if context is None:
            return None
        if getattr(context, "get_start_method", lambda: "")() != "fork":
            return None
        return context

    def local(self, shard_id):
        """``(local CSR of one shard, bytes streamed to get it)``."""
        cached = self._locals.get(shard_id)
        if cached is not None:
            return cached, 0
        local = self.graph.local(shard_id)
        cost = 6 * local.lindices.nbytes + local.halo.nbytes
        if cost <= self.cache_bytes - self._locals_bytes:
            self._locals[shard_id] = local
            self._locals_bytes += cost
        return local, local.bytes_read

    def _enforce_budget(self, ncomp):
        """Planned resident bytes vs the configured budget (raise early).

        Counted: the initial/decoded O(n) arrays, one shard's local CSR and
        double state (old + new, owned + halo), and the halo planes.  The
        state planes themselves are memmaps whose pages are dropped after
        every shard task, so only one shard's window is charged.
        """
        graph = self.graph
        indptr = graph._indptr_memmap()
        max_k = max_slots = max_h = 0
        for i, (lo, hi) in enumerate(graph.ranges):
            max_k = max(max_k, hi - lo)
            max_slots = max(max_slots, int(indptr[hi]) - int(indptr[lo]))
            max_h = max(max_h, graph.halo_offsets[i + 1] - graph.halo_offsets[i])
        planned = 8 * (
            2 * graph.n
            + 6 * max_slots
            + 2 * ncomp * (max_k + max_h)
            + 2 * ncomp * max_k
            + ncomp * graph.total_halo()
        )
        if planned > self.budget:
            raise MemoryBudgetError(
                "planned resident footprint %d bytes exceeds "
                "REPRO_OOCORE_BUDGET=%d (n=%d, shards=%d, ncomp=%d); "
                "raise the budget or the shard count"
                % (planned, self.budget, graph.n, graph.shards, ncomp)
            )

    def _start(self):
        """Halo views, the worker pool and the residency gauges."""
        graph, ncomp = self.graph, self.planes.ncomp
        workers = 1 if self.workers is None else int(self.workers)
        context = self._fork_context()
        use_pool = (
            workers > 1
            and graph.shards > 1
            and shared_memory_or_none() is not None
            and context is not None
        )
        if use_pool:
            self._manager = SegmentManager()
        for shard_id, ids in self._halo_ids.items():
            shape = (ncomp, int(ids.shape[0]))
            if use_pool:
                segment = self._manager.create(8 * shape[0] * shape[1])
                self.halo_views[shard_id] = np.ndarray(
                    shape, dtype=np.int64, buffer=segment.buf
                )
            else:
                self.halo_views[shard_id] = np.zeros(shape, dtype=np.int64)
        if use_pool:
            self._watchdog = flight.pool_watchdog(self.tel, self.timeout)
            heartbeat = self._watchdog.board.path if self._watchdog else None
            self._pool = context.Pool(
                processes=min(workers, graph.shards),
                initializer=_init_worker,
                initargs=(self, heartbeat),
            )
        if self.profiler is not None:
            # Shard-residency gauges ride along with every RSS sample: how
            # much plane/halo state the round loop keeps hot.
            def _residency():
                return {
                    "oocore.shards": graph.shards,
                    "oocore.plane_bytes": 16 * graph.n * ncomp,
                    "oocore.halo_slots": self._halo_slots,
                    "oocore.cache_bytes": self.cache_bytes,
                }

            flight.register_sampler("oocore", _residency)
            self.sampling = True

    def _map(self, fn, *args):
        """``fn(self, shard_id, *args)`` for every shard: in the pool, or inline."""
        tasks = [(shard_id,) + args for shard_id in range(self.graph.shards)]
        if self._pool is None:
            return [fn(self, *task) for task in tasks]
        async_result = self._pool.starmap_async(
            _pool_task, [(fn,) + task for task in tasks]
        )
        try:
            return flight.wait_result(async_result, self.timeout, self._watchdog)
        except Exception:
            # A dead or wedged worker mid-round: terminate the pool now so
            # close() can release the halo segments deterministically.
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            if self._watchdog is not None:
                self._watchdog.notice_restart()
            raise

    def _scan(self):
        """``(count, first)`` improper forward edges of the current plane."""
        results = self._map(_scan_shard, self.src)
        firsts = [first for _, first in results if first is not None]
        return sum(count for count, _ in results), (firsts[0] if firsts else None)

    def _owned(self, lo, hi):
        """Rows ``[lo, hi)`` of the current state, read into RAM."""
        return tuple(
            np.array(self.planes.view(self.src, comp)[lo:hi])
            for comp in range(self.planes.ncomp)
        )

    # -- the plane operations -----------------------------------------------------

    def encode(self, initial):
        """Encode shard by shard into plane 0; True iff every vertex is final."""
        graph, stage = self.graph, self.stage
        all_final = True
        for lo, hi in graph.ranges:
            if hi == lo:
                continue
            state = stage.batch_encode_initial(initial[lo:hi])
            if self.planes is None:
                if self.budget is not None:
                    self._enforce_budget(len(state))
                self.planes = PlaneStore(self.directory, graph.n, len(state))
            for comp, column in enumerate(state):
                self.planes.view(0, comp)[lo:hi] = column
                self.io_written += column.nbytes
            all_final = all_final and bool(stage.batch_is_final(state).all())
        if self.planes is None:  # empty graph
            ncomp = len(stage.batch_encode_initial(initial))
            self.planes = PlaneStore(self.directory, graph.n, ncomp)
        self.planes.release_resident()
        self._start()
        return all_final

    def step(self, round_index, want_conflicts):
        """One round; ``(changed, finalized, all_final, conflicts)``.

        The halo exchange comes first: every shard's boundary colors are
        gathered from the source plane (the only cross-shard bytes).
        """
        src_planes = self.planes.buffer(self.src)
        for shard_id, ids in self._halo_ids.items():
            view = self.halo_views[shard_id]
            for comp in range(self.planes.ncomp):
                view[comp] = src_planes[comp][ids]
            self.halo_bytes += 8 * self.planes.ncomp * int(ids.shape[0])
        rows = self._map(_step_shard, round_index, self.src)
        self.src = 1 - self.src
        changed, finalized, final, io_read, io_written = zip(*rows)
        self.io_read += sum(io_read)
        self.io_written += sum(io_written)
        conflicts = self._scan()[0] if want_conflicts else 0
        return sum(changed), sum(finalized), all(final), conflicts

    def first_conflict(self):
        """The first improper forward edge as ``(u, v, color)``, or None."""
        return self._scan()[1]

    def decode(self):
        """Shard-by-shard decode into the colors plane and the result array.

        Returns ``(decoded, final state)``; the final state is only pinned
        in RAM up to ``_SCALAR_STATE_LIMIT`` vertices (None above).
        """
        graph = self.graph
        decoded = np.empty(graph.n, dtype=np.int64)
        colors_plane = graph.colors_plane() if graph.n else None
        for lo, hi in graph.ranges:
            if hi == lo:
                continue
            part = self.stage.batch_decode_final(self._owned(lo, hi))
            decoded[lo:hi] = part
            colors_plane[lo:hi] = part
        if colors_plane is not None:
            release_pages(colors_plane)
        graph.release_resident()
        final_state = (
            self._owned(0, graph.n) if graph.n <= _SCALAR_STATE_LIMIT else None
        )
        tel = self.tel
        if tel.enabled:
            name = self.stage.name
            tel.counter("oocore.shard_io.bytes_read", self.io_read, stage=name)
            tel.counter("oocore.shard_io.bytes_written", self.io_written, stage=name)
            tel.counter("oocore.halo.bytes", self.halo_bytes, stage=name)
            rss = peak_rss_bytes()
            if rss is not None:
                tel.gauge("oocore.peak_rss_bytes", rss)
        return decoded, final_state

    def close(self):
        """Stop the profiler and the pool; release halo segments and planes."""
        if self.profiler is not None:
            if self.sampling:
                flight.unregister_sampler("oocore")
            self.profiler.stop()
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self.halo_views = {}
        if self._manager is not None:
            self._manager.close()
            self._manager = None
        if self._watchdog is not None:
            self._watchdog.board.close()
            self._watchdog = None
        if self.planes is not None:
            self.planes.close()
        shutil.rmtree(self.directory, ignore_errors=True)
