"""Fully-dynamic self-stabilizing exact (Delta+1)-coloring (Theorems 4.3, 7.5).

Same interval descent as :mod:`repro.selfstab.coloring`, but ``I_0`` hosts the
*extended* high/low hybrid:

* low states ``(L, 0, a)`` (final) and ``(L, 1, a)`` (AG(N) working, rotating
  ``a`` by 1 mod ``N = Delta + 1``), encoded as ``b * N + a`` in ``[0, 2N)``;
* high states ``(H, b, a)`` with ``b in [1, P-1]``, ``a in Z_P``, running
  AG(P) — rotate ``a`` by ``b`` — gated exactly as in Section 7: a high
  vertex may leave the high range only when it has no working-low neighbor,
  no high neighbor on the same ``a``, no finalized-low neighbor on the same
  ``a``, *and* its ``a`` lies below ``2N`` (it then becomes the low vertex
  ``a`` encodes).

The paper's static hybrid uses a prime ``p <= 2N`` so every landing value is
low.  Here the landing step from ``I_1`` needs ``P - 1 >= 4 * Delta + 1``
evaluation points (``2 * Delta`` polynomial agreements plus ``2 * Delta``
forbidden next-states of core neighbors), forcing ``P > 2N``; the extra
guard ``a < 2N`` restores convergence: within any window of ``P`` rounds a
high vertex's ``a`` visits all ``2N = 2 * Delta + 2`` low values while its at
most ``Delta`` neighbors block at most ``2 * Delta`` rounds, so a landing
round always exists.  (See DESIGN.md's substitution notes.)

Landing arrivals enter as high states ``(H, x + 1, P_v(x))`` — the
Excl-Linial pair written into the high range — so they can never collide
with low states, and the forbidden set keeps them off every high neighbor's
possible next state.
"""

import numpy as np

from repro.mathutil.gf import eval_poly_mod, int_to_poly_coeffs
from repro.selfstab.engine import SelfStabAlgorithm
from repro.selfstab.kernels import (
    ColorBatchOps,
    apply_upper_descent,
    batch_levels,
    masked_point_search,
)
from repro.selfstab.plan import IntervalPlan
from repro.linial.core import linial_next_color

__all__ = ["SelfStabExactColoring"]


class SelfStabExactColoring(ColorBatchOps, SelfStabAlgorithm):
    """Self-stabilizing proper (Delta+1)-coloring, O(Delta + log* n) rounds."""

    name = "selfstab-exact-coloring"

    def __init__(self, n_bound, delta_bound):
        super().__init__(n_bound, delta_bound)
        self.n_colors = delta_bound + 1  # N
        from repro.selfstab.coloring import SelfStabColoring

        i1_size = SelfStabColoring._i1_size(n_bound, delta_bound)
        self.p = IntervalPlan.landing_field_for(
            delta_bound, i1_size, extra_floor=4 * delta_bound + 3
        )
        core_size = 2 * self.n_colors + (self.p - 1) * self.p
        self.plan = IntervalPlan(
            n_bound,
            delta_bound,
            core_size=core_size,
            landing_q=self.p,
            landing_points=self.p - 1,
        )

    # -- core state encoding -------------------------------------------------------

    def _decode_core(self, local):
        """Return ('L', b, a) or ('H', b, a) from a core-local int."""
        two_n = 2 * self.n_colors
        if local < two_n:
            return ("L", local // self.n_colors, local % self.n_colors)
        j = local - two_n
        return ("H", j // self.p + 1, j % self.p)

    def _encode_core(self, state):
        tag, b, a = state
        if tag == "L":
            return b * self.n_colors + a
        return 2 * self.n_colors + (b - 1) * self.p + a

    # -- the extended hybrid step ---------------------------------------------------

    def _core_step(self, state, neighbor_states):
        tag, b, a = state
        n, p = self.n_colors, self.p
        if tag == "L":
            if b == 0:
                return state
            conflict = any(
                nt == "L" and na == a for nt, _, na in neighbor_states
            )
            if conflict:
                return ("L", 1, (a + 1) % n)
            return ("L", 0, a)
        # High state.
        has_low_working = any(
            nt == "L" and nb == 1 for nt, nb, _ in neighbor_states
        )
        conflict = any(
            (nt == "H" and na == a) or (nt == "L" and nb == 0 and na == a)
            for nt, nb, na in neighbor_states
        )
        if conflict or has_low_working or a >= 2 * n:
            return ("H", b, (a + b) % p)
        if a < n:
            return ("L", 0, a)
        return ("L", 1, a - n)

    def _core_candidates(self, local):
        """Possible next core states of a core neighbor (the set S')."""
        state = self._core_step_options(self._decode_core(local))
        return tuple(self._encode_core(s) for s in state)

    def _core_step_options(self, state):
        tag, b, a = state
        n, p = self.n_colors, self.p
        if tag == "L":
            if b == 0:
                return (state,)
            return (("L", 1, (a + 1) % n), ("L", 0, a))
        options = [("H", b, (a + b) % p)]
        if a < n:
            options.append(("L", 0, a))
        elif a < 2 * n:
            options.append(("L", 1, a - n))
        return tuple(options)

    # -- landing (I_1 -> I_0) ---------------------------------------------------------

    def _land(self, local, same_level_locals, forbidden_core_locals):
        """Excl-Linial into the high range: state (H, x+1, P_v(x))."""
        p = self.p
        mine = int_to_poly_coeffs(local, 2, p)
        neighbor_polys = [
            int_to_poly_coeffs(c, 2, p)
            for c in set(same_level_locals)
            if c != local
        ]
        forbidden = set(forbidden_core_locals)
        for x in range(p - 1):  # keep b = x + 1 inside [1, p - 1]
            value = eval_poly_mod(mine, x, p)
            candidate = self._encode_core(("H", x + 1, value))
            if candidate in forbidden:
                continue
            if all(eval_poly_mod(g, x, p) != value for g in neighbor_polys):
                return candidate
        raise AssertionError(
            "no landing point in GF(%d) with %d neighbors and %d forbidden — "
            "the plan guarantees one" % (p, len(neighbor_polys), len(forbidden))
        )

    # -- SelfStabAlgorithm interface -----------------------------------------------

    def fresh_ram(self, vertex):
        return self.plan.reset_color(vertex)

    def visible(self, vertex, ram):
        return ram

    def transition(self, vertex, ram, neighbor_visibles):
        plan = self.plan
        color = ram
        level = plan.level_of(color)
        if level is None or any(color == other for other in neighbor_visibles):
            return plan.reset_color(vertex)

        local = color - plan.offsets[level]
        leveled = [(plan.level_of(c), c) for c in neighbor_visibles]
        if level >= 2:
            iteration = plan.descent_iteration(level)
            same_level = [
                c - plan.offsets[level] for lv, c in leveled if lv == level
            ]
            new_local = linial_next_color(
                local, same_level, iteration.q, iteration.degree
            )
            return plan.to_global(level - 1, new_local)
        if level == 1:
            same_level = [c - plan.offsets[1] for lv, c in leveled if lv == 1]
            forbidden = []
            for lv, c in leveled:
                if lv == 0:
                    forbidden.extend(self._core_candidates(c - plan.offsets[0]))
            new_local = self._land(local, same_level, forbidden)
            return plan.to_global(0, new_local)
        core_neighbors = [
            self._decode_core(c - plan.offsets[0]) for lv, c in leveled if lv == 0
        ]
        new_state = self._core_step(self._decode_core(local), core_neighbors)
        return plan.to_global(0, self._encode_core(new_state))

    # -- batch protocol (see repro.selfstab.fast_engine) -------------------------
    #
    # Same column layout and descent kernel as SelfStabColoring; only the
    # landing encoder/forbidden set (high-range Excl-Linial over the <= 2
    # next states of each core neighbor) and the level-0 machine (the
    # decoded high/low hybrid, elementwise) differ.

    def _np_offsets(self):
        arr = self.__dict__.get("_offsets_arr")
        if arr is None:
            arr = np.asarray(self.plan.offsets, dtype=np.int64)
            self._offsets_arr = arr
        return arr

    def transition_batch_colors(self, colors, ctx):
        """Vectorized ``transition`` over the whole color column."""
        csr = ctx.csr
        plan = self.plan
        levels = batch_levels(colors, plan, self._np_offsets())
        new = np.empty(colors.shape[0], dtype=np.int64)

        conflict = csr.any_per_vertex(csr.gather(colors) == csr.owner_values(colors))
        reset = (levels < 0) | conflict
        if bool(reset.any()):
            new[reset] = plan.offsets[plan.levels - 1] + ctx.vertices[reset]
        active = ~reset
        slot_levels = levels[csr.indices]

        apply_upper_descent(new, colors, levels, slot_levels, active, plan, ctx)

        mask1 = active & (levels == 1)
        if bool(mask1.any()):
            self._batch_land(new, colors, mask1, slot_levels, ctx)

        mask0 = active & (levels == 0)
        if bool(mask0.any()):
            self._batch_core(new, colors, mask0, slot_levels, ctx)
        return new

    def _batch_core_options(self, core_locals):
        """Per-value next-state options: ``(opt1, opt2, has2)`` core-locals.

        Vectorized ``_core_candidates``: low working states may rotate or
        finalize; high states may rotate or (when their ``a`` encodes a low
        state) land on it — and both low encodings collapse to the value
        ``a`` itself.  Final low states have a single (fixed) option.
        """
        n, p = self.n_colors, self.p
        two_n = 2 * n
        is_low = core_locals < two_n
        low_b = core_locals // n
        low_a = core_locals % n
        high_j = core_locals - two_n
        high_b = high_j // p + 1
        high_a = high_j % p
        opt1 = np.where(
            is_low,
            np.where(low_b == 0, core_locals, n + (low_a + 1) % n),
            two_n + (high_b - 1) * p + (high_a + high_b) % p,
        )
        has2 = np.where(is_low, low_b == 1, high_a < two_n)
        opt2 = np.where(is_low, low_a, high_a)
        return opt1, opt2, has2

    def _batch_land(self, new, colors, mask1, slot_levels, ctx):
        """Excl-Linial landing into the high range: state (H, x+1, P_v(x))."""
        csr = ctx.csr
        plan, p = self.plan, self.p
        two_n = 2 * self.n_colors
        off1 = plan.offsets[1]
        sub = np.nonzero(mask1)[0]
        inv = np.empty(colors.shape[0], dtype=np.int64)
        inv[sub] = np.arange(sub.size, dtype=np.int64)
        locals_ = colors[sub] - off1

        smask = mask1[csr.rows] & (slot_levels == 1)
        owner_rows = csr.rows[smask]
        nbr_locals = colors[csr.indices[smask]] - off1
        keep = nbr_locals != colors[owner_rows] - off1

        cmask = mask1[csr.rows] & (slot_levels == 0)
        core_rows = inv[csr.rows[cmask]]
        opt1, opt2, has2 = self._batch_core_options(
            colors[csr.indices[cmask]]  # offsets[0] == 0
        )

        def forbidden(cand, pending):
            hit = np.zeros(sub.size, dtype=bool)
            sel = pending[core_rows]
            rows = core_rows[sel]
            if rows.size:
                match = (opt1[sel] == cand[rows]) | (
                    has2[sel] & (opt2[sel] == cand[rows])
                )
                hit[rows[match]] = True
            return hit

        result = masked_point_search(
            locals_,
            p,
            2,
            p - 1,  # keep b = x + 1 inside [1, p - 1]
            inv[owner_rows[keep]],
            nbr_locals[keep],
            lambda x, values: two_n + x * p + values,
            forbidden,
        )
        if result is None:
            ctx.replay()
        new[sub] = plan.offsets[0] + result

    def _batch_core(self, new, colors, mask0, slot_levels, ctx):
        """The extended high/low hybrid step, elementwise over the core."""
        csr = ctx.csr
        n, p = self.n_colors, self.p
        two_n = 2 * n
        # offsets[0] == 0: core-local values are the colors themselves.
        is_low = colors < two_n
        low_b = colors // n
        low_a = colors % n
        high_j = colors - two_n
        high_b = high_j // p + 1
        high_a = high_j % p
        own_a = np.where(is_low, low_a, high_a)

        smask = mask0[csr.rows] & (slot_levels == 0)
        owner_rows = csr.rows[smask]
        nb = colors[csr.indices[smask]]
        nb_is_low = nb < two_n
        nb_b = nb // n
        nb_a = np.where(nb_is_low, nb % n, (nb - two_n) % p)
        own_low_s = is_low[owner_rows]
        same_a = nb_a == own_a[owner_rows]
        conflict_slot = np.where(
            own_low_s,
            nb_is_low & same_a,
            (~nb_is_low & same_a) | (nb_is_low & (nb_b == 0) & same_a),
        )
        size = colors.shape[0]
        conflict = np.zeros(size, dtype=bool)
        conflict[owner_rows[conflict_slot]] = True
        low_working = np.zeros(size, dtype=bool)
        low_working[owner_rows[nb_is_low & (nb_b == 1)]] = True

        stepped = np.where(
            is_low,
            np.where(
                low_b == 0,
                colors,
                np.where(conflict, n + (low_a + 1) % n, low_a),
            ),
            np.where(
                conflict | low_working | (high_a >= two_n),
                two_n + (high_b - 1) * p + (high_a + high_b) % p,
                high_a,  # both low landings encode to the value a itself
            ),
        )
        new[mask0] = stepped[mask0]

    def is_legal(self, graph, rams):
        """Proper (Delta+1)-coloring: every vertex in a final low state."""
        offset = self.plan.offsets[0]
        for v in graph.vertices():
            color = rams.get(v)
            if self.plan.level_of(color) != 0:
                return False
            tag, b, _ = self._decode_core(color - offset)
            if tag != "L" or b != 0:
                return False
        for v in graph.vertices():
            for u in graph.neighbors(v):
                if rams[u] == rams[v]:
                    return False
        return True

    def batch_is_legal(self, state, csr):
        """Vectorized :meth:`is_legal` over canonical columns.

        Final low states ('L', 0, a) are exactly
        ``offset <= c < offset + N``, so the scalar predicate collapses to a
        range check plus edge-wise properness.
        """
        (colors,) = state
        local = colors - self.plan.offsets[0]
        if not bool(((local >= 0) & (local < self.n_colors)).all()):
            return False
        return not bool((colors[csr.edge_u] == colors[csr.edge_v]).any())

    def final_colors(self, graph, rams):
        """Colors in ``[0, Delta]`` from a legal state."""
        offset = self.plan.offsets[0]
        return {
            v: self._decode_core(rams[v] - offset)[2] for v in graph.vertices()
        }

    def stabilization_bound(self):
        return self.plan.levels + 8 * self.p + 4 * self.n_colors + 24
