"""A classical O(n)-stabilization self-stabilizing coloring baseline.

Representative of the pre-paper state of the art surveyed by Guellati and
Kheddouci [29]: on a conflict, the lower-ID endpoint yields and greedily
picks the smallest color absent from its neighborhood.  Correct, simple —
and slow: a single fault at the head of a path can trigger a linear cascade
of recolorings, so stabilization time is Theta(n) in the worst case.  The
self-stabilization benchmarks race it against the paper's
O(Delta + log* n) algorithms.
"""

import numpy as np

from repro.selfstab.engine import SelfStabAlgorithm
from repro.selfstab.kernels import ColorBatchOps

__all__ = ["RankGreedySelfStabColoring"]


class RankGreedySelfStabColoring(ColorBatchOps, SelfStabAlgorithm):
    """Conflict -> lower-ID endpoint re-picks greedily. Theta(n) stabilization."""

    name = "selfstab-rank-greedy"

    # visible() broadcasts (id, color), so the CONGEST meter needs the
    # original vertex ids next to the color column (see BatchSelfStabEngine).
    batch_payload_wants_ids = True

    def __init__(self, n_bound, delta_bound):
        super().__init__(n_bound, delta_bound)
        self.palette = delta_bound + 1

    def fresh_ram(self, vertex):
        return 0

    def visible(self, vertex, ram):
        # Broadcast (id, color); IDs are ROM so they are always truthful.
        return (vertex, ram if isinstance(ram, int) else -1)

    def transition(self, vertex, ram, neighbor_visibles):
        color = ram if isinstance(ram, int) and 0 <= ram < self.palette else -1
        conflict_with_higher = any(
            c == color and other_id > vertex for other_id, c in neighbor_visibles
        )
        if color == -1 or conflict_with_higher:
            taken = {c for _, c in neighbor_visibles}
            for candidate in range(self.palette):
                if candidate not in taken:
                    return candidate
        return color

    def is_legal(self, graph, rams):
        for v in graph.vertices():
            color = rams.get(v)
            if not isinstance(color, int) or not (0 <= color < self.palette):
                return False
        for v in graph.vertices():
            for u in graph.neighbors(v):
                if rams[u] == rams[v]:
                    return False
        return True

    def final_colors(self, graph, rams):
        """Colors in ``[0, Delta]`` extracted from a legal state."""
        return {v: rams[v] for v in graph.vertices()}

    def stabilization_bound(self):
        return 4 * self.n_bound + 16

    # -- batch protocol (see repro.selfstab.fast_engine) -------------------------
    #
    # One int64 color column.  Non-int garbage encodes to the sentinel, which
    # (like the scalar path's broadcast -1) lies outside [0, palette) and
    # equals no valid color, so validity, conflict, and taken-set tests all
    # agree with the scalar transition.  Bool RAM is *exotic*: the scalar
    # path keeps the bool object in RAM and charges it 1 payload bit, which a
    # plain int column cannot reproduce — those rounds run scalar.

    def batch_encode(self, raws):
        encoded = ColorBatchOps.batch_encode(self, raws)
        if encoded is None:
            return None
        state, noncanon = encoded
        if any(isinstance(raw, bool) for raw in noncanon.values()):
            return None
        return state, noncanon

    def batch_encode_one(self, raw):
        if isinstance(raw, bool):
            return None
        return ColorBatchOps.batch_encode_one(self, raw)

    def batch_payload_max(self, state, include, ids=None):
        """Max bits of the (id, color) pair over included canonical vertices."""
        values = state[0][include]
        if values.size == 0:
            return 0
        pair = _batch_bit_length(values) + _batch_bit_length(ids[include]) + 2
        return int(pair.max())

    def transition_batch(self, state, ctx):
        csr = ctx.csr
        (colors,) = state
        ids = ctx.vertices
        palette = self.palette
        valid = (colors >= 0) & (colors < palette)
        color_eff = np.where(valid, colors, -1)
        own = color_eff[csr.rows]
        nbr_vis = colors[csr.indices]
        conflict = csr.any_per_vertex(
            (nbr_vis == own) & (own >= 0) & (ids[csr.indices] > ids[csr.rows])
        )
        repick = ~valid | conflict
        new = color_eff.copy()
        count = int(repick.sum())
        if count:
            compact = np.cumsum(repick) - 1
            occupied = np.zeros((count, palette), dtype=bool)
            sel = repick[csr.rows]
            taken = nbr_vis[sel]
            owner = compact[csr.rows[sel]]
            in_palette = (taken >= 0) & (taken < palette)
            occupied[owner[in_palette], taken[in_palette]] = True
            picked = np.argmin(occupied, axis=1)
            # A full row mirrors the scalar fall-through (keep the color);
            # impossible while degrees respect the Delta bound.
            full = occupied.all(axis=1)
            new[repick] = np.where(full, color_eff[repick], picked)
        return (new,), new != colors

    def batch_is_legal(self, state, csr):
        """Vector twin of :meth:`is_legal` over the packed color column."""
        (colors,) = state
        if colors.size and not bool(
            ((colors >= 0) & (colors < self.palette)).all()
        ):
            return False
        if csr.m and bool((colors[csr.edge_u] == colors[csr.edge_v]).any()):
            return False
        return True


def _batch_bit_length(values):
    """Vectorized ``abs(x).bit_length()`` for int64 arrays (exact)."""
    arr = np.abs(values)
    out = np.zeros(arr.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        high = (arr >> shift) != 0
        out[high] += shift
        arr = np.where(high, arr >> shift, arr)
    return out + (arr != 0)
