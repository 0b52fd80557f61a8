"""Fully-dynamic self-stabilizing O(Delta)-coloring (Section 4.1, Lemma 4.2).

The RAM of a vertex is a single color in the interval plan's global range.
Every round, Procedure Self-Stabilizing-Coloring runs:

1. **Check-Error** — a color that is invalid (corrupted beyond the range) or
   equal to a neighbor's color resets to the vertex's ID slot in ``I_r``;
2. otherwise the vertex descends: Mod-Linial for ``I_j`` with ``j >= 2``,
   Excl-Linial with the forbidden set ``S'`` (all possible next colors of
   ``I_0`` neighbors — rotate and finalize, two per neighbor) for ``I_1``,
   and the uniform AG step inside ``I_0``.

Once faults stop: conflicting vertices reset in one round; colors then drain
down the intervals in ``r = log* n + O(1)`` rounds; and the AG core
finalizes everyone within ``Q = O(Delta)`` more rounds (Lemma 4.2's
``O(Delta + log* n)`` stabilization).  Only vertices adjacent to a fault can
ever detect an error, and finalized AG colors never move, so the adjustment
radius is 1 (Theorem 4.3's argument).
"""

import numpy as np

from repro.linial.core import linial_next_color
from repro.selfstab.engine import SelfStabAlgorithm
from repro.selfstab.kernels import (
    ColorBatchOps,
    apply_upper_descent,
    batch_levels,
    masked_point_search,
)
from repro.selfstab.plan import IntervalPlan

__all__ = ["SelfStabColoring"]


class SelfStabColoring(ColorBatchOps, SelfStabAlgorithm):
    """Self-stabilizing proper ``Q``-coloring, ``Q = O(Delta)`` prime."""

    name = "selfstab-coloring"

    def __init__(self, n_bound, delta_bound):
        super().__init__(n_bound, delta_bound)
        # The AG core field Q doubles as the landing field: it needs
        # Q >= 2 * Delta + 1 for AG's two-conflicts-per-window argument and
        # Q >= 4 * Delta + 1 for the landing step (2*Delta agreements +
        # 2*Delta forbidden colors); the plan helper enforces both.
        q = IntervalPlan.landing_field_for(
            delta_bound, self._i1_size(n_bound, delta_bound), 2 * delta_bound + 1
        )
        self.q = q
        self.plan = IntervalPlan(
            n_bound,
            delta_bound,
            core_size=q * q,
            landing_q=q,
            landing_points=q,
        )

    @staticmethod
    def _i1_size(n_bound, delta_bound):
        from repro.linial.plan import linial_plan

        iterations = linial_plan(max(2, n_bound), delta_bound)
        return iterations[-1].out_palette if iterations else max(2, n_bound)

    # -- SelfStabAlgorithm interface ----------------------------------------------

    def fresh_ram(self, vertex):
        return self.plan.reset_color(vertex)

    def visible(self, vertex, ram):
        return ram

    def transition(self, vertex, ram, neighbor_visibles):
        plan = self.plan
        color = ram
        level = plan.level_of(color)
        # Check-Error: invalid or conflicting colors reset to the ID slot.
        if level is None or any(color == other for other in neighbor_visibles):
            return plan.reset_color(vertex)

        local = color - plan.offsets[level]
        valid_neighbors = [
            (plan.level_of(c), c) for c in neighbor_visibles
        ]
        if level >= 2:
            iteration = plan.descent_iteration(level)
            same_level = [
                c - plan.offsets[level]
                for lv, c in valid_neighbors
                if lv == level
            ]
            new_local = linial_next_color(
                local, same_level, iteration.q, iteration.degree
            )
            return plan.to_global(level - 1, new_local)
        if level == 1:
            same_level = [
                c - plan.offsets[1] for lv, c in valid_neighbors if lv == 1
            ]
            forbidden = set()
            for lv, c in valid_neighbors:
                if lv == 0:
                    forbidden.update(self._core_candidates(c - plan.offsets[0]))
            new_local = linial_next_color(
                local, same_level, self.q, 2, forbidden=frozenset(forbidden)
            )
            return plan.to_global(0, new_local)
        # level == 0: the uniform AG step.
        core_neighbors = [
            c - plan.offsets[0] for lv, c in valid_neighbors if lv == 0
        ]
        return plan.to_global(0, self._ag_step(local, core_neighbors))

    def _ag_step(self, local, core_neighbors):
        q = self.q
        a, b = divmod(local, q)
        conflict = any(nb % q == b for nb in core_neighbors)
        if conflict:
            return a * q + (b + a) % q
        return b  # <0, b>

    def _core_candidates(self, local):
        """The <= 2 colors an I_0 neighbor may hold next round (the set S')."""
        q = self.q
        a, b = divmod(local, q)
        return (a * q + (b + a) % q, b)

    # -- batch protocol (see repro.selfstab.fast_engine) -------------------------
    #
    # One int64 column per vertex holding the global color.  Check-Error is a
    # CSR equality scatter; each interval's Mod-Linial descent is a masked
    # point search over a base-q digit matrix (the LinialColoring kernel
    # shape); the landing step adds the Excl-Linial forbidden scatter over
    # precomputed rotate/finalize candidates of I_0 neighbors; the AG core is
    # pure elementwise arithmetic.  All rules are existence-based, so the
    # kernel is identical in LOCAL and SET-LOCAL.

    def _np_offsets(self):
        arr = self.__dict__.get("_offsets_arr")
        if arr is None:
            arr = np.asarray(self.plan.offsets, dtype=np.int64)
            self._offsets_arr = arr
        return arr

    def transition_batch_colors(self, colors, ctx):
        """Vectorized ``transition`` over the whole color column."""
        csr = ctx.csr
        plan, q = self.plan, self.q
        offsets = plan.offsets
        levels = batch_levels(colors, plan, self._np_offsets())
        new = np.empty(colors.shape[0], dtype=np.int64)

        # Check-Error: invalid or conflicting colors reset to the ID slot.
        conflict = csr.any_per_vertex(csr.gather(colors) == csr.owner_values(colors))
        reset = (levels < 0) | conflict
        if bool(reset.any()):
            new[reset] = offsets[plan.levels - 1] + ctx.vertices[reset]
        active = ~reset
        slot_levels = levels[csr.indices]

        apply_upper_descent(new, colors, levels, slot_levels, active, plan, ctx)

        mask1 = active & (levels == 1)
        if bool(mask1.any()):
            self._batch_land(new, colors, mask1, slot_levels, ctx)

        mask0 = active & (levels == 0)
        if bool(mask0.any()):
            # The uniform AG step, elementwise.  offsets[0] == 0, so the
            # core-local value is the color itself.
            a, b = colors // q, colors % q
            smask = mask0[csr.rows] & (slot_levels == 0)
            owner_rows = csr.rows[smask]
            hit = colors[csr.indices[smask]] % q == b[owner_rows]
            core_conflict = np.zeros(colors.shape[0], dtype=bool)
            core_conflict[owner_rows[hit]] = True
            stepped = np.where(core_conflict, a * q + (b + a) % q, b)
            new[mask0] = stepped[mask0]
        return new

    def _batch_land(self, new, colors, mask1, slot_levels, ctx):
        """Excl-Linial landing (I_1 -> I_0) with the forbidden set S'."""
        csr = ctx.csr
        plan, q = self.plan, self.q
        off1 = plan.offsets[1]
        sub = np.nonzero(mask1)[0]
        inv = np.empty(colors.shape[0], dtype=np.int64)
        inv[sub] = np.arange(sub.size, dtype=np.int64)
        locals_ = colors[sub] - off1

        smask = mask1[csr.rows] & (slot_levels == 1)
        owner_rows = csr.rows[smask]
        nbr_locals = colors[csr.indices[smask]] - off1
        keep = nbr_locals != colors[owner_rows] - off1

        # Rotate/finalize candidates of each I_0 neighbor (the set S').
        cmask = mask1[csr.rows] & (slot_levels == 0)
        core_rows = inv[csr.rows[cmask]]
        core_locals = colors[csr.indices[cmask]]  # offsets[0] == 0
        core_a, core_b = core_locals // q, core_locals % q
        rotate = core_a * q + (core_b + core_a) % q
        finalize = core_b

        def forbidden(cand, pending):
            hit = np.zeros(sub.size, dtype=bool)
            sel = pending[core_rows]
            rows = core_rows[sel]
            if rows.size:
                match = (rotate[sel] == cand[rows]) | (finalize[sel] == cand[rows])
                hit[rows[match]] = True
            return hit

        result = masked_point_search(
            locals_,
            q,
            2,
            q,
            inv[owner_rows[keep]],
            nbr_locals[keep],
            lambda x, values: x * q + values,
            forbidden,
        )
        if result is None:
            ctx.replay()
        new[sub] = plan.offsets[0] + result

    def is_legal(self, graph, rams):
        """Proper coloring with every color finalized in the AG core."""
        offset = self.plan.offsets[0]
        for v in graph.vertices():
            color = rams.get(v)
            if self.plan.level_of(color) != 0:
                return False
            if (color - offset) // self.q != 0:  # not finalized
                return False
        for v in graph.vertices():
            for u in graph.neighbors(v):
                if rams[u] == rams[v]:
                    return False
        return True

    def batch_is_legal(self, state, csr):
        """Vectorized :meth:`is_legal` over canonical columns.

        Finalized core states are exactly ``offset <= c < offset + q``
        (level 0 and ``a == 0``), so the scalar predicate collapses to a
        range check plus edge-wise properness.
        """
        (colors,) = state
        local = colors - self.plan.offsets[0]
        if not bool(((local >= 0) & (local < self.q)).all()):
            return False
        return not bool((colors[csr.edge_u] == colors[csr.edge_v]).any())

    def final_colors(self, graph, rams):
        """Extract the ``[0, Q)`` palette colors from a legal state."""
        offset = self.plan.offsets[0]
        return {v: (rams[v] - offset) % self.q for v in graph.vertices()}

    def stabilization_bound(self):
        return self.plan.levels + 3 * self.q + 16
