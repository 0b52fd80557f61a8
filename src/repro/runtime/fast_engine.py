"""The vectorized batch-step engine: the one batch round loop.

:class:`BatchColoringEngine` executes the same synchronous rounds as
:class:`~repro.runtime.engine.ColoringEngine`, but holds the whole coloring
as NumPy arrays and advances every vertex with a handful of array kernels
per round instead of ``n`` Python calls.  Output is bit-for-bit identical to
the reference engine: same per-round colorings, same ``rounds_used``, same
metrics, same exceptions — the differential suite in
``tests/test_fast_engine.py`` enforces this on every covered stage.

Batch protocol
--------------
A stage opts in by implementing ``step_batch``; the engine then also expects
the companion methods (all operate on a *state*: a tuple of parallel
``int64`` arrays, one per internal color coordinate, each of length ``n``):

``batch_encode_initial(initial)``
    Map an ``int64`` array of input colors to the initial state, with the
    same validation (and error messages) as scalar ``encode_initial``.
``step_batch(round_index, state, csr, visibility)``
    One synchronous round for all vertices; ``csr`` is the graph's
    :class:`~repro.runtime.csr.CSRAdjacency`.  Must replicate the scalar
    ``step`` exactly — including SET-LOCAL multiset collapse if the rule is
    multiplicity-sensitive (see ArbAG).
``batch_is_final(state)``
    Boolean array mirroring ``is_final``.
``batch_decode_final(state)``
    ``int64`` array of decoded colors, raising the scalar ``decode_final``
    error for the first non-final vertex.
``batch_to_scalar(state)`` (optional)
    The state as a list of the stage's scalar internal colors.  The default
    zips the coordinate arrays into tuples of Python ints, which is correct
    for every stage whose colors are plain int tuples; stages with richer
    colors (ArbAG's ``None`` finalization round) override it.

Stages without ``step_batch`` simply fall back to the scalar path — a
:class:`BatchColoringEngine` is always safe to use, and the
:mod:`repro.runtime.backends` registry is the front door that picks the
best backend (``resolve_backend("engine", "auto")``).

State planes
------------
The round loop is written once, here, and runs over a *state plane* that
owns the stage state between rounds: ``encode(initial)``, ``step(round_index,
want_conflicts)``, ``first_conflict()``, ``decode()`` and ``close()`` (see
:class:`MemoryPlane`).  :class:`MemoryPlane` keeps the state tuple in RAM
and steps it with one ``step_batch`` call on the whole CSR; the out-of-core
engine (:class:`~repro.oocore.engine.OocoreColoringEngine`) plugs in the
sharded plane of :mod:`repro.parallel.partition`.  Both planes count
through :func:`round_counts` and :func:`equal_pairs`, so the two tiers
count the same way by construction.
"""

import functools
import time

import numpy as np

from repro.errors import ImproperColoringError, PaletteOverflowError
from repro.obs import core as obs
from repro.runtime.algorithm import NetworkInfo
from repro.runtime.engine import ColoringEngine, RunResult, Visibility
from repro.runtime.metrics import MetricsLog, RoundMetrics

__all__ = [
    "BatchColoringEngine",
    "MemoryPlane",
    "batch_supported",
    "equal_pairs",
    "round_counts",
    "scalar_replay_round",
    "BACKENDS",
]

BACKENDS = ("auto", "batch", "reference")


def batch_supported(stage):
    """True iff ``stage`` implements the batch protocol.

    A subclass can opt back out of an inherited kernel by setting
    ``step_batch = None``.
    """
    return getattr(stage, "step_batch", None) is not None


def scalar_replay_round(stage, round_index, colors, csr, visibility):
    """Re-run one round through the scalar ``step`` to surface its exact error.

    Batch kernels call this when they detect a state the scalar path would
    reject (an input color outside the field, no conflict-free point, ...):
    replaying the vertices in vertex order raises the same exception, from
    the same vertex, with the same message as the reference engine.  Returns
    silently if no scalar call raises — the caller then reports the
    batch/scalar inconsistency itself.

    ``colors`` is the round-start coloring as a plain list of scalar internal
    colors; adjacency comes from the ``csr`` view.
    """
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    for v in range(csr.n):
        view = tuple(colors[u] for u in indices[indptr[v]:indptr[v + 1]])
        if visibility is Visibility.SET_LOCAL:
            view = frozenset(view)
        stage.step(round_index, colors[v], view)


def to_scalar(stage, state):
    """The state as the scalar engine's internal color list."""
    if hasattr(stage, "batch_to_scalar"):
        return stage.batch_to_scalar(state)
    return list(zip(*(component.tolist() for component in state)))


def scalar_color(stage, state, row):
    """The scalar internal color of one row of ``state``."""
    return to_scalar(stage, tuple(column[row:row + 1] for column in state))[0]


def round_counts(stage, old, new, k):
    """``(changed, finalized, all_final)`` of one round over rows ``[0, k)``.

    Rows past ``k`` (a shard's halo copies) are ignored.  Both state planes
    count through here, so a sharded run sums to exactly the in-memory
    numbers: vertex ownership is a partition.
    """
    changed = 0
    if k:
        mask = np.zeros(k, dtype=bool)
        for before, after in zip(old, new):
            mask |= before[:k] != after[:k]
        changed = int(mask.sum())
    final = stage.batch_is_final(tuple(column[:k] for column in new))
    return changed, int(final.sum()), bool(final.all())


def equal_pairs(state, rows, nbrs):
    """Mask over the edges ``(rows[i], nbrs[i])`` whose endpoints match.

    Component-wise equality over the state columns — for every stage whose
    scalar colors are plain int tuples this matches the reference engine's
    full-color comparison exactly.  Conflict counts and the per-round
    properness check both read it.
    """
    equal = np.ones(rows.shape[0], dtype=bool)
    for column in state:
        equal &= column[rows] == column[nbrs]
    return equal


def _scalar_colors_dropped():
    raise RuntimeError(
        "scalar color tuples are not retained at this size; "
        "use result.int_colors_array"
    )


class MemoryPlane:
    """The in-memory state plane: the state tuple stays in RAM.

    Each round is one ``step_batch`` call on the graph's whole CSR; edges
    are the CSR's sorted forward pairs ``edge_u < edge_v``.  Its methods
    are the plane protocol the round loop calls.
    """

    def __init__(self, csr, stage, visibility):
        self.csr = csr
        self.stage = stage
        self.visibility = visibility
        self.state = None

    def encode(self, initial):
        """Encode the initial colors; True iff every vertex starts final."""
        self.state = self.stage.batch_encode_initial(initial)
        return bool(self.stage.batch_is_final(self.state).all())

    def step(self, round_index, want_conflicts):
        """One round; ``(changed, finalized, all_final, conflicts)``."""
        csr = self.csr
        new_state = self.stage.step_batch(
            round_index, self.state, csr, self.visibility
        )
        counts = round_counts(self.stage, self.state, new_state, csr.n)
        self.state = new_state
        conflicts = 0
        if want_conflicts:
            conflicts = int(equal_pairs(new_state, csr.edge_u, csr.edge_v).sum())
        return counts + (conflicts,)

    def first_conflict(self):
        """The first improper edge as ``(u, v, scalar color of u)``, or None."""
        equal = equal_pairs(self.state, self.csr.edge_u, self.csr.edge_v)
        if not bool(equal.any()):
            return None
        i = int(np.argmax(equal))
        u = int(self.csr.edge_u[i])
        return u, int(self.csr.edge_v[i]), scalar_color(self.stage, self.state, u)

    def decode(self):
        """``(decoded int64 colors, final state)``; a plane may return None
        for a final state too large to keep."""
        return self.stage.batch_decode_final(self.state), self.state

    def close(self):
        """Nothing to release: the state is plain arrays."""


class BatchColoringEngine(ColoringEngine):
    """Drop-in :class:`ColoringEngine` that vectorizes supporting stages.

    Construction, parameters, and results match the reference engine; only
    the inner loop differs.  A stage without ``step_batch`` transparently
    uses the inherited scalar path.

    The round loop runs over the plane :meth:`_open_plane` returns — here
    the in-memory :class:`MemoryPlane`; the out-of-core engine swaps in its
    sharded plane and inherits everything else.
    """

    #: The ``backend`` tag of the ``engine.run`` span and record.
    backend = "batch"

    def run(
        self,
        stage,
        initial_coloring,
        in_palette_size=None,
        max_rounds=None,
        configure=True,
    ):
        """Execute ``stage``; see :meth:`ColoringEngine.run` for the contract."""
        if not batch_supported(stage):
            tel = obs.active()
            if tel.enabled:
                # Fallback-to-scalar is a first-class observability signal: a
                # batch engine quietly running scalar rounds is the #1 way to
                # lose an order of magnitude of throughput.
                tel.counter("engine.fallback_scalar", stage=stage.name)
                tel.event("engine.fallback", stage=stage.name, reason="no-step-batch")
            if hasattr(initial_coloring, "tolist"):
                # An ndarray handed over by a batch-aware pipeline; the
                # scalar path wants plain Python ints.
                initial_coloring = initial_coloring.tolist()
            return super().run(
                stage,
                initial_coloring,
                in_palette_size=in_palette_size,
                max_rounds=max_rounds,
                configure=configure,
            )
        # Same engine.run span as the scalar tier (the fallback branch above
        # gets its span from ColoringEngine.run); the backend tag is stripped
        # by comparable_view so cross-tier telemetry parity holds.
        with obs.active().span(
            "engine.run", stage=getattr(stage, "name", "stage"), backend="batch"
        ):
            return self._run_batch(
                stage, initial_coloring, in_palette_size, max_rounds, configure
            )

    # -- the round loop ---------------------------------------------------------

    def _open_plane(self, stage):
        """The state plane one stage run steps (in RAM here)."""
        return MemoryPlane(self.graph.csr(), stage, self.visibility)

    def _check_proper(self, plane, stage, round_index):
        if self.check_proper_each_round and stage.maintains_proper:
            conflict = plane.first_conflict()
            if conflict is not None:
                u, v, color = conflict
                raise ImproperColoringError(round_index, (u, v), color)

    def _run_batch(self, stage, initial_coloring, in_palette_size, max_rounds, configure):
        graph = self.graph
        if len(initial_coloring) != graph.n:
            raise ValueError("initial coloring must assign a color to every vertex")
        # No list round-trip: an ndarray from an upstream batch stage is used
        # as-is, a plain sequence is converted once.
        initial = np.asarray(initial_coloring, dtype=np.int64)
        if in_palette_size is None:
            in_palette_size = (int(initial.max()) + 1) if graph.n else 1
        if configure:
            stage.configure(NetworkInfo(graph.n, graph.max_degree, in_palette_size))

        tel = obs.active()
        recording = tel.enabled
        run_start = time.perf_counter() if recording else 0.0
        round_rows = [] if recording else None
        metrics = MetricsLog()

        plane = self._open_plane(stage)
        try:
            all_final = plane.encode(initial)
            history = (
                [to_scalar(stage, plane.state)] if self.record_history else None
            )
            self._check_proper(plane, stage, -1)

            bound = stage.rounds_bound if max_rounds is None else max_rounds
            rounds_used = 0
            for round_index in range(bound):
                if all_final:
                    break
                if recording:
                    round_start = time.perf_counter()
                changed, finalized, all_final, conflicts = plane.step(
                    round_index, recording
                )
                messages = 2 * graph.m
                bits = messages * stage.message_bits(round_index)
                metrics.record(RoundMetrics(round_index, messages, bits, changed))
                rounds_used += 1
                if recording:
                    round_rows.append(
                        {
                            "round": round_index,
                            "messages": messages,
                            "bits": bits,
                            "changed": changed,
                            "finalized": finalized,
                            "conflicts": conflicts,
                            "seconds": time.perf_counter() - round_start,
                        }
                    )
                if self.record_history:
                    history.append(to_scalar(stage, plane.state))
                self._check_proper(plane, stage, round_index)
                if changed == 0 and (
                    stage.uniform_step
                    or (
                        stage.uniform_after is not None
                        and round_index >= stage.uniform_after
                    )
                ):
                    # Fixed point of a round-independent rule (or of a stage's
                    # declared uniform tail): every later round would repeat
                    # this no-op verbatim, so stop.  The reference engine
                    # applies the identical early exit.
                    break

            decoded, final_state = plane.decode()
        finally:
            plane.close()
        out = stage.out_palette_size
        bad = (decoded < 0) | (decoded >= out)
        if bool(bad.any()):
            v = int(np.argmax(bad))
            raise PaletteOverflowError(
                "vertex %d got color %r outside palette of size %d (stage %s)"
                % (v, int(decoded[v]), out, stage.name)
            )
        if recording:
            self._record_run(
                tel, stage, self.backend, in_palette_size, rounds_used, metrics,
                round_rows, time.perf_counter() - run_start,
            )
        # Python views materialize on first access; batch-aware pipelines
        # chain ``int_colors_array`` into the next stage without them.
        colors = (
            _scalar_colors_dropped
            if final_state is None
            else functools.partial(to_scalar, stage, final_state)
        )
        return RunResult(
            colors, None, rounds_used, metrics, history, int_colors_array=decoded
        )
