"""The out-of-core coloring engine: batch rounds over memory-mapped shards.

:class:`OocoreColoringEngine` is the batch round loop of
:class:`~repro.runtime.fast_engine.BatchColoringEngine` running over a
*sharded* state plane: same loop, same early exits, same metrics rows, same
exceptions — but never more than one shard's working set plus the O(n)
color planes resident.  Differential parity (colors, rounds, per-round
metrics and telemetry rows) against the in-memory plane is enforced by
``tests/test_oocore_engine.py`` at sizes where both fit.

The plane (:class:`~repro.parallel.partition.PartitionRunner`) per stage
run:

1. encode: ``batch_encode_initial`` shard by shard into the double-buffered
   state planes (:class:`~repro.oocore.store.PlaneStore` memmap files);
2. step: every shard steps on its local CSR, exchanging only boundary
   (halo) colors between rounds, inline or in a fork pool;
3. decode: ``batch_decode_final`` shard by shard into both the persistent
   ``colors.i64`` plane and the result array.

The engine refuses stages without the batch protocol (there is no scalar
fallback out of core) and ``record_history`` (O(rounds * n) by definition).

Also here: :func:`oocore_greedy`, sequential first-fit executed shard by
shard with the wave-parallel kernel — bit-identical to
:func:`repro.baselines.greedy.greedy_coloring` in the default order.
"""

import shutil
import tempfile

import numpy as np

from repro.baselines.greedy import first_fit_waves
from repro.obs import core as obs
from repro.oocore.store import (
    ShardedCSRGraph,
    peak_rss_bytes,
    release_pages,
    scratch_root,
)
from repro.runtime.engine import Visibility
from repro.runtime.fast_engine import BatchColoringEngine, batch_supported

__all__ = ["OocoreColoringEngine", "oocore_greedy"]


class OocoreColoringEngine(BatchColoringEngine):
    """Drop-in engine (``backend=\"oocore\"``) over a sharded graph.

    Accepts a :class:`~repro.oocore.store.ShardedCSRGraph` directly, or any
    CSR-bearing graph — which is converted into a scratch shard directory
    owned (and deleted) by the engine.

    Parameters mirror the other engines where they make sense;
    ``record_history`` is rejected, scalar-only stages raise.  ``workers``
    picks the fan-out width (default: inline), ``shards`` only applies when
    the engine has to convert an in-memory graph.
    """

    backend = "oocore"

    def __init__(
        self,
        graph,
        visibility=Visibility.LOCAL,
        check_proper_each_round=False,
        record_history=False,
        shards=None,
        workers=None,
        scratch=None,
    ):
        if record_history:
            raise ValueError(
                "record_history is not supported by the oocore engine "
                "(it is O(rounds * n) resident by definition)"
            )
        self._owned_dir = None
        self._scratch_base = scratch or scratch_root()
        if not isinstance(graph, ShardedCSRGraph):
            from repro.oocore.writers import shard_static_graph

            self._owned_dir = tempfile.mkdtemp(
                prefix="repro-oocore-", dir=self._scratch_base
            )
            graph = shard_static_graph(graph, self._owned_dir, shards=shards)
        super().__init__(
            graph,
            visibility=visibility,
            check_proper_each_round=check_proper_each_round,
        )
        self.workers = workers

    def __del__(self):
        # getattr: __init__ may have raised before _owned_dir existed.
        owned = getattr(self, "_owned_dir", None)
        if owned is not None:
            shutil.rmtree(owned, ignore_errors=True)

    def run(self, stage, initial_coloring, in_palette_size=None,
            max_rounds=None, configure=True):
        """Execute ``stage``; contract and outputs as the batch engine."""
        with obs.active().span(
            "engine.run", stage=getattr(stage, "name", "stage"), backend="oocore"
        ):
            if not batch_supported(stage):
                raise RuntimeError(
                    "stage %s has no batch kernel; the oocore engine requires "
                    "the batch protocol" % getattr(stage, "name", stage)
                )
            return self._run_batch(
                stage, initial_coloring, in_palette_size, max_rounds, configure
            )

    def _open_plane(self, stage):
        from repro.parallel.partition import PartitionRunner

        return PartitionRunner(
            self.graph, stage, self.visibility, workers=self.workers,
            scratch=self._scratch_base,
        )


def oocore_greedy(graph, order=None):
    """Sequential first-fit greedy over shards, bit-identical to the oracle.

    Shards are processed in ascending vertex order, so every cross-shard
    *earlier* neighbor is already final when a shard starts; its color is
    read from the persistent color plane and seeds the occupancy exactly as
    an in-shard earlier neighbor would.  Within a shard the standard
    wave-parallel argument applies.  Only the natural order (``order=None``)
    is supported out of core.

    With telemetry live and ``REPRO_PROFILE=1`` set, a sampling profiler
    records the RSS/CPU timeline of the sweep (``profile.sample`` events).
    """
    tel = obs.active()
    profiler = None
    if tel.enabled:
        from repro.obs import flight

        profiler = flight.maybe_profiler(tel)
    try:
        return _oocore_greedy_impl(graph, order, tel)
    finally:
        if profiler is not None:
            profiler.stop()


def _oocore_greedy_impl(graph, order, tel):
    if order is not None:
        raise ValueError(
            "custom orders are not supported by the out-of-core greedy; "
            "use the in-memory backend"
        )
    if not isinstance(graph, ShardedCSRGraph):
        raise TypeError("oocore_greedy needs a ShardedCSRGraph")
    io_read = io_written = halo_bytes = 0
    palette = graph.max_degree + 1
    plane = graph.colors_plane() if graph.n else None
    for shard_id in range(graph.shards):
        local = graph.local(shard_id)
        k = local.k
        if k == 0:
            continue
        io_read += local.bytes_read
        h = local.halo.shape[0]
        sl_global = local.global_indices()
        io_read += sl_global.nbytes
        owner_global = local.owner_globals()
        earlier = sl_global < owner_global
        rows = local.csr().rows[: local.lindices.shape[0]]
        colors_local = np.full(k + h, -1, dtype=np.int64)
        if h:
            colors_local[k:] = plane[local.halo]
            halo_bytes += 8 * h
        # Occupancy: every earlier neighbor (owned or halo; halo ones sit in
        # earlier shards and are colored).  Countdown: later in-shard
        # neighbors only — later shards are not gated here.
        in_shard = sl_global >= local.lo
        first_fit_waves(
            rows, local.lindices, earlier,
            (~earlier) & (sl_global < local.hi),
            np.bincount(rows[earlier & in_shard], minlength=k),
            colors_local, palette,
        )
        plane[local.lo:local.hi] = colors_local[:k]
        io_written += 8 * k
        release_pages(plane)
        graph.release_resident()
    if tel.enabled:
        tel.counter("oocore.shard_io.bytes_read", io_read, stage="greedy")
        tel.counter("oocore.shard_io.bytes_written", io_written, stage="greedy")
        tel.counter("oocore.halo.bytes", halo_bytes, stage="greedy")
        rss = peak_rss_bytes()
        if rss is not None:
            tel.gauge("oocore.peak_rss_bytes", rss)
    if graph.n == 0:
        return []
    return np.array(plane).tolist()
