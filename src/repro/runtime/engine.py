"""The synchronous round engine.

One engine instance wraps one :class:`~repro.runtime.graph.StaticGraph` and
executes locally-iterative stages on it, round by round.  All vertices update
simultaneously: the new color of ``v`` is a function of the *current* colors
of its closed neighborhood only.

Visibility modes
----------------
LOCAL:
    ``step`` receives the tuple of neighbor colors (a multiset; order is the
    engine's adjacency order and carries no information an algorithm may use).
SET_LOCAL:
    ``step`` receives a frozenset of neighbor colors — identical messages from
    different neighbors are indistinguishable and multiplicities are lost.
    This is the weak LOCAL model of Hefetz et al. [33] discussed in
    Section 1.2.3; algorithms that run unchanged here inherit the model's
    strong lower bounds as context for their upper bounds.
"""

import enum
import time

import numpy as np

from repro.errors import ImproperColoringError, PaletteOverflowError
from repro.obs import core as obs
from repro.runtime.algorithm import NetworkInfo
from repro.runtime.metrics import MetricsLog, RoundMetrics
from repro.runtime.results import Result

__all__ = ["Visibility", "RunResult", "ColoringEngine"]


class Visibility(enum.Enum):
    """What a vertex sees of its neighborhood each round."""

    LOCAL = "local"
    SET_LOCAL = "set-local"


class RunResult:
    """Outcome of running one stage to completion.

    Attributes
    ----------
    colors:
        Final internal colors, indexed by vertex.
    int_colors:
        Final colors decoded to ``range(out_palette_size)``.
    rounds_used:
        Number of rounds actually executed (early stop counts the executed
        rounds only).
    metrics:
        :class:`~repro.runtime.metrics.MetricsLog` for the run.
    history:
        Per-round list of internal colorings (only if recording was enabled);
        ``history[0]`` is the encoded initial coloring.
    int_colors_array:
        ``int_colors`` as an int64 NumPy array when the run came off the
        vectorized batch path, ``None`` otherwise.  Pipelines use it to keep
        the color vector an ndarray across stage boundaries.

    The batch engine hands over ``int_colors_array`` with ``int_colors=None``
    and ``colors`` as a zero-argument function: both Python views are then
    built on first access, so a run whose colors only feed the next stage
    (or a 10^7-vertex out-of-core run) never pays for them.
    """

    def __init__(self, colors, int_colors, rounds_used, metrics, history,
                 int_colors_array=None):
        self._colors = colors
        self._int_colors = int_colors
        self.rounds_used = rounds_used
        self.metrics = metrics
        self.history = history
        self.int_colors_array = int_colors_array
        self._num_colors = None

    @property
    def colors(self):
        """Final internal colors, indexed by vertex (built on first access)."""
        if callable(self._colors):
            self._colors = self._colors()
        return self._colors

    @property
    def int_colors(self):
        """Final decoded colors as a plain-int list (built on first access)."""
        if self._int_colors is None:
            self._int_colors = self.int_colors_array.tolist()
        return self._int_colors

    @property
    def num_colors(self):
        """Distinct decoded colors in the final coloring (memoized)."""
        if self._num_colors is None:
            if self._int_colors is None:
                # Array-backed: count without materializing the list.
                unique = np.unique(self.int_colors_array)
                self._num_colors = int(unique.shape[0])
            else:
                self._num_colors = len(set(self._int_colors))
        return self._num_colors

    @property
    def rounds(self):
        """Alias of :attr:`rounds_used` (the shared result protocol)."""
        return self.rounds_used

    def to_dict(self, detail=True):
        """JSON-serializable summary (history omitted; colors decoded).

        ``detail`` is forwarded to :meth:`MetricsLog.to_dict`: pass False to
        omit the per-round metric rows.
        """
        return {
            "colors": list(self.int_colors),
            "rounds_used": self.rounds_used,
            "num_colors": self.num_colors,
            "metrics": self.metrics.to_dict(detail=detail),
        }

    def __repr__(self):
        return "RunResult(rounds=%d, colors=%d)" % (self.rounds_used, self.num_colors)


Result.register(RunResult)


class ColoringEngine:
    """Runs locally-iterative stages on a fixed topology.

    Parameters
    ----------
    graph:
        The :class:`~repro.runtime.graph.StaticGraph` to run on.
    visibility:
        LOCAL (default) or SET_LOCAL.
    check_proper_each_round:
        If True, verify after every round that stages claiming
        ``maintains_proper`` indeed kept the coloring proper, and raise
        :class:`~repro.errors.ImproperColoringError` otherwise.  This is the
        executable form of Lemmas 3.2 / 7.1 / 7.4.
    record_history:
        If True, keep the full per-round coloring history on the result.
    """

    def __init__(
        self,
        graph,
        visibility=Visibility.LOCAL,
        check_proper_each_round=False,
        record_history=False,
    ):
        self.graph = graph
        self.visibility = visibility
        self.check_proper_each_round = check_proper_each_round
        self.record_history = record_history

    # -- helpers ---------------------------------------------------------------

    def _neighborhood_view(self, colors, v):
        neighbor_colors = tuple(colors[u] for u in self.graph.neighbors(v))
        if self.visibility is Visibility.SET_LOCAL:
            return frozenset(neighbor_colors)
        return neighbor_colors

    def _assert_proper(self, colors, round_index):
        for u, v in self.graph.edges:
            if colors[u] == colors[v]:
                raise ImproperColoringError(round_index, (u, v), colors[u])

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        stage,
        initial_coloring,
        in_palette_size=None,
        max_rounds=None,
        configure=True,
    ):
        """Execute ``stage`` from the given integer initial coloring.

        Parameters
        ----------
        stage:
            A :class:`~repro.runtime.algorithm.LocallyIterativeColoring`.
        initial_coloring:
            Sequence of input colors (ints), indexed by vertex.
        in_palette_size:
            Size of the input palette; defaults to ``max(initial) + 1``.
        max_rounds:
            Cap on rounds; defaults to ``stage.rounds_bound``.
        configure:
            If True (default) the engine configures the stage with this
            graph's :class:`~repro.runtime.algorithm.NetworkInfo`.

        The stage stops early as soon as every vertex reports
        ``stage.is_final(color)``.
        """
        # The span wraps the whole run (rounds, decode, telemetry record) so
        # a merged trace shows one engine.run bar per stage execution nested
        # under its pipeline.stage; free when telemetry is disabled.
        with obs.active().span(
            "engine.run", stage=getattr(stage, "name", "stage"), backend="reference"
        ):
            return self._run_scalar(
                stage, initial_coloring, in_palette_size, max_rounds, configure
            )

    def _run_scalar(
        self, stage, initial_coloring, in_palette_size, max_rounds, configure
    ):
        graph = self.graph
        if len(initial_coloring) != graph.n:
            raise ValueError("initial coloring must assign a color to every vertex")
        if in_palette_size is None:
            in_palette_size = (max(initial_coloring) + 1) if graph.n else 1
        if configure:
            stage.configure(NetworkInfo(graph.n, graph.max_degree, in_palette_size))

        colors = [stage.encode_initial(c) for c in initial_coloring]
        metrics = MetricsLog()
        history = [list(colors)] if self.record_history else None

        tel = obs.active()
        recording = tel.enabled
        run_start = time.perf_counter() if recording else 0.0
        round_rows = [] if recording else None

        if self.check_proper_each_round and stage.maintains_proper:
            self._assert_proper(colors, -1)

        bound = stage.rounds_bound if max_rounds is None else max_rounds
        rounds_used = 0
        for round_index in range(bound):
            if all(stage.is_final(colors[v]) for v in graph.vertices()):
                break
            if recording:
                round_start = time.perf_counter()
            new_colors = [
                stage.step(round_index, colors[v], self._neighborhood_view(colors, v))
                for v in graph.vertices()
            ]
            changed = sum(
                1 for v in graph.vertices() if new_colors[v] != colors[v]
            )
            messages = 2 * graph.m
            bits = messages * stage.message_bits(round_index)
            metrics.record(RoundMetrics(round_index, messages, bits, changed))
            colors = new_colors
            rounds_used += 1
            if recording:
                round_rows.append(
                    {
                        "round": round_index,
                        "messages": messages,
                        "bits": bits,
                        "changed": changed,
                        "finalized": sum(1 for c in colors if stage.is_final(c)),
                        "conflicts": sum(
                            1 for u, v in graph.edges if colors[u] == colors[v]
                        ),
                        "seconds": time.perf_counter() - round_start,
                    }
                )
            if self.record_history:
                history.append(list(colors))
            if self.check_proper_each_round and stage.maintains_proper:
                self._assert_proper(colors, round_index)
            if changed == 0 and (
                stage.uniform_step
                or (
                    stage.uniform_after is not None
                    and round_index >= stage.uniform_after
                )
            ):
                # Fixed point of a round-independent rule (or of a stage's
                # declared uniform tail): every later round would repeat this
                # no-op verbatim, so stop.  The batch engine applies the
                # identical early exit.
                break

        int_colors = [stage.decode_final(c) for c in colors]
        out = stage.out_palette_size
        for v, c in enumerate(int_colors):
            if not (0 <= c < out):
                raise PaletteOverflowError(
                    "vertex %d got color %r outside palette of size %d (stage %s)"
                    % (v, c, out, stage.name)
                )
        if recording:
            self._record_run(
                tel, stage, "reference", in_palette_size, rounds_used, metrics,
                round_rows, time.perf_counter() - run_start,
            )
        return RunResult(colors, int_colors, rounds_used, metrics, history)

    def _record_run(
        self, tel, stage, backend, in_palette, rounds_used, metrics, round_rows,
        wall_seconds,
    ):
        """Emit the per-run telemetry record (shared by both engine paths)."""
        graph = self.graph
        tel.event(
            "engine.run",
            stage=stage.name,
            backend=backend,
            n=graph.n,
            m=graph.m,
            delta=graph.max_degree,
            in_palette=in_palette,
            out_palette=stage.out_palette_size,
            rounds_used=rounds_used,
            total_messages=metrics.total_messages,
            total_bits=metrics.total_bits,
            rounds=round_rows,
            wall_seconds=wall_seconds,
        )
        tel.counter("engine.runs", stage=stage.name)
        tel.counter("engine.rounds", rounds_used, stage=stage.name)
        tel.histogram("engine.run_seconds", wall_seconds, stage=stage.name)
