"""The standard (greedy) color reduction.

Classical locally-iterative primitive (see e.g. Barenboim–Elkin's monograph,
Chapter 3): given a proper ``m``-coloring with ``m > Delta + 1``, eliminate
the highest color class one round at a time — in round ``t`` every vertex of
color ``m - 1 - t`` (they form an independent set, so they act without
coordination) re-colors itself with the smallest color in ``[0, Delta]``
missing from its neighborhood.  After ``m - Delta - 1`` rounds the palette is
exactly ``[0, Delta]``.

Corollary 3.6 runs this after AG to go from ``q = O(Delta)`` colors to
``Delta + 1``, keeping the whole pipeline locally-iterative.  The rule only
needs the *set* of neighbor colors, so it runs in SET-LOCAL too.
"""

import numpy as np

from repro.runtime.algorithm import LocallyIterativeColoring

__all__ = ["StandardColorReduction"]


class StandardColorReduction(LocallyIterativeColoring):
    """Proper ``m``-coloring to proper ``(Delta+1)``-coloring in ``m - Delta - 1`` rounds."""

    name = "standard-reduction"
    maintains_proper = True
    uniform_step = False  # the acting class depends on the round number

    def __init__(self, target_palette=None):
        """``target_palette`` defaults to ``Delta + 1`` (its minimum legal value)."""
        super().__init__()
        self._requested_target = target_palette
        self.target = None
        self.start_palette = None

    def configure(self, info):
        super().configure(info)
        minimum = info.max_degree + 1
        self.target = self._requested_target or minimum
        if self.target < minimum:
            raise ValueError(
                "target palette %d below Delta + 1 = %d" % (self.target, minimum)
            )
        self.start_palette = max(info.in_palette_size, self.target)

    @property
    def out_palette_size(self):
        self._require_configured()
        return self.target

    @property
    def rounds_bound(self):
        self._require_configured()
        return max(0, self.start_palette - self.target)

    def step(self, round_index, color, neighbor_colors):
        acting_color = self.start_palette - 1 - round_index
        if color != acting_color or color < self.target:
            return color
        taken = set(neighbor_colors)
        for candidate in range(self.target):
            if candidate not in taken:
                return candidate
        raise AssertionError(
            "no free color among %d for a vertex with <= Delta = %d neighbors"
            % (self.target, self.info.max_degree)
        )

    def is_final(self, color):
        # A color below the target can still be *kept*, but never changed, so
        # once every vertex is below the target the run may stop.
        return color < self.target

    # -- batch protocol (see repro.runtime.fast_engine) -------------------------
    #
    # State: the current color as a single int64 array.  Only the acting
    # color class does any work: a boolean occupancy matrix (one row per
    # acting vertex, one column per color in [0, target)) is scattered
    # straight from the CSR neighborhood, and the smallest missing color is
    # an argmin over it.  Membership in the taken set ignores multiplicity,
    # so the kernel is identical in LOCAL and SET-LOCAL.

    def batch_encode_initial(self, initial):
        """Vectorized ``encode_initial`` (identity, like the scalar path)."""
        return (initial,)

    def step_batch(self, round_index, state, csr, visibility):
        """Vectorized ``step``: recolor the acting class off an occupancy matrix."""
        (colors,) = state
        acting_color = self.start_palette - 1 - round_index
        if acting_color < self.target:
            return state
        acting = colors == acting_color
        count = int(acting.sum())
        if count == 0:
            return state
        compact = np.cumsum(acting) - 1
        occupied = np.zeros((count, self.target), dtype=bool)
        slot_sel = acting[csr.rows]
        neighbor = csr.gather(colors)[slot_sel]
        owner = compact[csr.rows[slot_sel]]
        in_target = (neighbor >= 0) & (neighbor < self.target)
        occupied[owner[in_target], neighbor[in_target]] = True
        if bool(occupied.all(axis=1).any()):
            raise AssertionError(
                "no free color among %d for a vertex with <= Delta = %d neighbors"
                % (self.target, self.info.max_degree)
            )
        new_colors = colors.copy()
        new_colors[acting] = np.argmin(occupied, axis=1)
        return (new_colors,)

    def batch_is_final(self, state):
        """Vectorized ``is_final``: below-target colors can never change."""
        return state[0] < self.target

    def batch_decode_final(self, state):
        """Vectorized ``decode_final`` (identity, like the scalar path)."""
        return state[0]

    def batch_to_scalar(self, state):
        """The state as the scalar engine's plain-int color list."""
        return state[0].tolist()
