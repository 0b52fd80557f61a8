"""End-to-end coloring recipes.

This module is the home of the ready-made pipelines (distinct from
:mod:`repro.runtime.pipeline`, the stage-composition machinery; the
:mod:`repro.core` package re-exports the main entry points).

* :func:`delta_plus_one_coloring` — **Corollary 3.6**, the headline result:
  Linial (``log* n + O(1)`` rounds) -> AG (``O(Delta)``) -> standard color
  reduction (``O(Delta)``); a locally-iterative (Delta+1)-coloring in
  ``O(Delta) + log* n`` rounds.
* :func:`delta_plus_one_exact_no_reduction` — **Section 7**: the same but
  finishing with the AG(p)/AG(N) high/low hybrid instead of the standard
  reduction, reaching exactly ``Delta + 1`` colors with uniform AG-style
  steps only (the building block of the self-stabilizing Theorem 7.5).
* :func:`one_plus_eps_delta_coloring` — **Theorem 6.4, first part** (shape):
  defective coloring (``log* n + O(1)``) -> ArbAG (``O(Delta/p)``) ->
  parallel per-class completion along ArbAG's finalization orientation.
  With ``p = Theta(sqrt(Delta))`` the AG-side round count is
  ``O(sqrt(Delta))``; the palette is ``C * Delta`` for a construction
  constant ``C`` (the paper reaches ``(1 + eps) * Delta`` for arbitrarily
  small ``eps`` by plugging ArbAG into the finer machinery of [3], which we
  approximate — see DESIGN.md's substitution notes).
* :func:`sublinear_delta_plus_one_coloring` — **Theorem 6.4, second part**
  (shape): the previous pipeline completed to exactly ``Delta + 1`` colors
  with a standard reduction.  The reduction costs ``O(Delta)`` rounds; the
  genuinely sublinear exact completion of [22] is out of scope (documented
  in EXPERIMENTS.md).
"""

from repro.core.ag import AdditiveGroupColoring
from repro.core.arbdefective import ArbAGColoring, finalization_orientation
from repro.core.hybrid import ExactDeltaPlusOneHybrid
from repro.core.reductions import StandardColorReduction
from repro.defective.vertex import DefectiveLinialColoring
from repro.linial.core import LinialColoring
from repro.runtime.backends import resolve_backend
from repro.runtime.pipeline import ColoringPipeline
from repro.runtime.results import Result

__all__ = [
    "delta_plus_one_coloring",
    "delta_plus_one_exact_no_reduction",
    "one_plus_eps_delta_coloring",
    "sublinear_delta_plus_one_coloring",
    "complete_arbdefective_to_proper",
    "SublinearColoringResult",
]


def _initial_id_coloring(graph):
    """The trivial n-coloring from unique IDs (normalized to ranks)."""
    ids = graph.ids
    if isinstance(ids, range) and ids == range(graph.n):
        # Identity ids (every generated graph, every sharded graph): the
        # ranks are the ids.  Skips an O(n log n) Python sort that dominates
        # setup at out-of-core sizes.
        return list(range(graph.n))
    order = sorted(range(graph.n), key=lambda v: ids[v])
    rank = [0] * graph.n
    for position, v in enumerate(order):
        rank[v] = position
    return rank


def _palette_size(initial_coloring, graph):
    """``max + 1`` of the initial colors, ndarray-aware (no Python scan)."""
    if not graph.n:
        return 1
    if hasattr(initial_coloring, "max"):
        return int(initial_coloring.max()) + 1
    return max(initial_coloring) + 1


def delta_plus_one_coloring(
    graph,
    initial_coloring=None,
    visibility=None,
    check_proper_each_round=False,
    backend="auto",
):
    """Corollary 3.6: a locally-iterative (Delta+1)-coloring, O(Delta)+log* n.

    Returns the :class:`~repro.runtime.pipeline.PipelineResult`; the final
    coloring uses colors in ``[0, Delta]``.  ``backend`` selects the engine
    (see :mod:`repro.runtime.backends`).
    """
    if initial_coloring is None:
        initial_coloring = _initial_id_coloring(graph)
    pipeline = ColoringPipeline(
        [LinialColoring(), AdditiveGroupColoring(), StandardColorReduction()]
    )
    return pipeline.run(
        graph,
        initial_coloring,
        in_palette_size=_palette_size(initial_coloring, graph),
        visibility=visibility,
        check_proper_each_round=check_proper_each_round,
        backend=backend,
    )


def delta_plus_one_exact_no_reduction(
    graph,
    initial_coloring=None,
    visibility=None,
    check_proper_each_round=False,
    backend="auto",
):
    """Section 7: exact (Delta+1)-coloring via the AG(p)/AG(N) hybrid."""
    if initial_coloring is None:
        initial_coloring = _initial_id_coloring(graph)
    pipeline = ColoringPipeline(
        [LinialColoring(), AdditiveGroupColoring(), ExactDeltaPlusOneHybrid()]
    )
    return pipeline.run(
        graph,
        initial_coloring,
        in_palette_size=_palette_size(initial_coloring, graph),
        visibility=visibility,
        check_proper_each_round=check_proper_each_round,
        backend=backend,
    )


class SublinearColoringResult:
    """Outcome of the arbdefective-based pipelines of Theorem 6.4."""

    def __init__(self, colors, palette_size, stage_rounds, out_degree_bound):
        self.colors = colors
        self.palette_size = palette_size
        self.stage_rounds = dict(stage_rounds)
        self.out_degree_bound = out_degree_bound

    @property
    def total_rounds(self):
        """Rounds summed over every stage."""
        return sum(self.stage_rounds.values())

    @property
    def rounds(self):
        """Alias of :attr:`total_rounds` (the shared result protocol)."""
        return self.total_rounds

    @property
    def ag_side_rounds(self):
        """Rounds spent in the Delta-dependent (non-log*) stages."""
        return sum(
            rounds
            for name, rounds in self.stage_rounds.items()
            if name not in ("defective-linial",)
        )

    @property
    def num_colors(self):
        """Distinct colors actually used (<= palette_size)."""
        return len(set(self.colors))

    def to_dict(self):
        """JSON-serializable summary."""
        return {
            "colors": list(self.colors),
            "palette_size": self.palette_size,
            "num_colors": self.num_colors,
            "stage_rounds": dict(self.stage_rounds),
            "total_rounds": self.total_rounds,
            "ag_side_rounds": self.ag_side_rounds,
            "out_degree_bound": self.out_degree_bound,
        }

    def __repr__(self):
        return "SublinearColoringResult(rounds=%d, palette=%d, colors=%d)" % (
            self.total_rounds,
            self.palette_size,
            self.num_colors,
        )


Result.register(SublinearColoringResult)


def complete_arbdefective_to_proper(graph, orientation, class_of, class_palette):
    """Color each arbdefective class in parallel along its orientation.

    Every vertex whose in-class out-neighbors are already colored picks the
    smallest color of its class's private palette not used by an out-neighbor.
    Out-neighbors finalized no later than the vertex did (ArbAG's
    finalization orientation), so in-class in-neighbors are provably
    uncolored when the vertex acts, and ``out_degree + 1`` colors per class
    always suffice.

    Returns ``(colors, rounds)`` where ``colors[v]`` is
    ``class_of[v] * class_palette + local`` and ``rounds`` is the number of
    act-iterations (one synchronous round each).
    """
    n = graph.n
    local = [None] * n
    remaining = set(range(n))
    rounds = 0
    while remaining:
        acting = [
            v
            for v in remaining
            if all(local[u] is not None for u in orientation[v])
        ]
        if not acting:
            raise AssertionError("orientation is cyclic — cannot happen")
        for v in acting:
            taken = {local[u] for u in orientation[v]}
            if len(taken) >= class_palette:
                raise AssertionError(
                    "out-degree %d exceeds class palette %d"
                    % (len(taken), class_palette)
                )
            local[v] = min(c for c in range(class_palette) if c not in taken)
        remaining.difference_update(acting)
        rounds += 1
    colors = [class_of[v] * class_palette + local[v] for v in range(n)]
    return colors, rounds


def _hpartition_completion(graph, class_of, num_classes):
    """Color every arbdefective class in parallel via its own H-partition.

    Each class induces a bounded-arboricity subgraph (Lemma 6.2); the
    Barenboim–Elkin H-partition colors it with ``(2+eps)*a + 1`` colors.
    Classes run in parallel with disjoint palettes, so the round count is
    the max over classes and the palette the max class palette times the
    class count.
    """
    from repro.arboricity.hpartition import arboricity_coloring

    colors = [None] * graph.n
    worst_rounds = 0
    class_palette = 1
    for cid in range(num_classes):
        members = [v for v in graph.vertices() if class_of[v] == cid]
        if not members:
            continue
        subgraph, index = graph.subgraph(members)
        sub_colors, partition, rounds = arboricity_coloring(subgraph)
        worst_rounds = max(worst_rounds, rounds)
        class_palette = max(class_palette, partition.out_degree_bound + 1)
        for v in members:
            colors[v] = sub_colors[index[v]]
    final = [
        class_of[v] * class_palette + (colors[v] or 0) for v in range(graph.n)
    ]
    return final, worst_rounds, class_palette


def _resolve_k_knob(tolerance, k, delta):
    """Fold the Maus-style ``k`` knob into ArbAG's ``tolerance`` budget.

    The family has one tradeoff dial — Maus (2021) phrases it as an
    ``O(k * Delta)``-coloring in ``O(Delta / k) + log*(n)`` rounds — and in
    this pipeline the dial is ArbAG's conflict budget ``p``, which plays the
    role of ``Delta / k``: a *small* ``k`` (near the ``Delta + 1`` regime)
    maps to a large budget, few colors and many rounds, a large ``k`` to a
    small budget, more colors and fewer conflict rounds.  ``k`` and
    ``tolerance`` are two spellings of the same dial; passing both is an
    error.
    """
    if k is None:
        return tolerance
    if tolerance is not None:
        raise ValueError("pass either k or tolerance, not both")
    if k < 1:
        raise ValueError("k must be >= 1")
    return max(1, -(-int(delta) // int(k)))


def one_plus_eps_delta_coloring(
    graph,
    tolerance=None,
    initial_coloring=None,
    completion="orientation",
    backend="auto",
    k=None,
):
    """Theorem 6.4 shape: proper O(Delta)-coloring in O(sqrt(Delta) + log* n).

    ``tolerance`` is ArbAG's conflict budget ``p`` (default
    ``ceil(sqrt(Delta))``, the headline setting); ``k`` is the same dial
    under its Maus (2021) name — ``O(k * Delta)`` colors against
    ``O(Delta / k) + log*(n)`` rounds — and the two spellings are mutually
    exclusive.  ``completion`` selects the per-class proper-coloring
    backend:

    * ``"orientation"`` (default) — greedy along ArbAG's finalization
      orientation (``out-degree + 1`` colors per class, depth-bound rounds);
    * ``"hpartition"`` — the Barenboim–Elkin H-partition on each class
      subgraph (``(2+eps)*a + 1`` colors per class, ``O(log n)``-layer
      rounds) — the [3]-style backend.

    Returns a :class:`SublinearColoringResult`.
    """
    delta = graph.max_degree
    tolerance = _resolve_k_knob(tolerance, k, delta)
    if tolerance is None:
        tolerance = max(1, int(round(delta ** 0.5)))
    if initial_coloring is None:
        initial_coloring = _initial_id_coloring(graph)
    if completion not in ("orientation", "hpartition"):
        raise ValueError("unknown completion backend %r" % completion)

    engine = resolve_backend("engine", backend)(graph)
    stage_rounds = {}

    defective = DefectiveLinialColoring(tolerance)
    defective_run = engine.run(
        defective,
        initial_coloring,
        in_palette_size=_palette_size(initial_coloring, graph),
    )
    stage_rounds["defective-linial"] = defective_run.rounds_used

    arb = ArbAGColoring(tolerance)
    arb_run = engine.run(
        arb, defective_run.int_colors, in_palette_size=defective.out_palette_size
    )
    stage_rounds["arb-ag"] = arb_run.rounds_used

    orientation = finalization_orientation(graph, arb_run.colors)
    out_degree_bound = max((len(o) for o in orientation), default=0)
    class_of = arb_run.int_colors
    if completion == "orientation":
        class_palette = out_degree_bound + 1
        colors, completion_rounds = complete_arbdefective_to_proper(
            graph, orientation, class_of, class_palette
        )
    else:
        colors, completion_rounds, class_palette = _hpartition_completion(
            graph, class_of, arb.out_palette_size
        )
    stage_rounds["class-completion"] = completion_rounds

    palette_size = arb.out_palette_size * class_palette
    return SublinearColoringResult(colors, palette_size, stage_rounds, out_degree_bound)


def sublinear_delta_plus_one_coloring(
    graph, tolerance=None, initial_coloring=None, backend="auto", k=None
):
    """Theorem 6.4 shape, exact variant: finish with a standard reduction.

    The reduction from ``C * Delta`` to ``Delta + 1`` colors costs
    ``O(Delta)`` rounds, so only the arbdefective front-end is sublinear —
    see EXPERIMENTS.md for the honest accounting versus [22].  ``k`` is the
    Maus-style tradeoff knob (alias of ``tolerance``, mutually exclusive).
    """
    partial = one_plus_eps_delta_coloring(
        graph, tolerance=tolerance, initial_coloring=initial_coloring,
        backend=backend, k=k,
    )
    engine = resolve_backend("engine", backend)(graph)
    reduction = StandardColorReduction()
    run = engine.run(
        reduction, partial.colors, in_palette_size=partial.palette_size
    )
    stage_rounds = dict(partial.stage_rounds)
    stage_rounds["standard-reduction"] = run.rounds_used
    return SublinearColoringResult(
        run.int_colors,
        reduction.out_palette_size,
        stage_rounds,
        partial.out_degree_bound,
    )
