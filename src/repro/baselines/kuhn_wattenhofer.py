"""The Kuhn–Wattenhofer / Szegedy–Vishwanathan color reduction.

This is the locally-iterative state of the art the paper supersedes — the
``O(Delta log Delta + log* n)`` bound of Table 1 — included both as a
benchmark baseline and because its structure explains the SV barrier: each
*halving* of the palette costs ``Theta(Delta)`` rounds, and ``log Delta``
halvings separate ``Delta^2`` from ``Delta + 1``.

One halving iteration: partition the palette ``[m]`` into blocks of
``2 * (Delta + 1)`` consecutive colors.  All blocks in parallel run the
standard color reduction *inside the block* (``Delta + 1`` sub-rounds, each
eliminating the block's top color), compressing each block to ``Delta + 1``
colors.  At the end of the iteration colors are renumbered into
``ceil(m / (2N)) * N`` consecutive values, i.e. roughly ``m / 2``.

The rule is round-dependent (each sub-round activates one color class per
block) but still locally-iterative, and it runs in SET-LOCAL since only the
set of neighbor colors matters.
"""

import numpy as np

from repro.runtime.algorithm import LocallyIterativeColoring

__all__ = ["KuhnWattenhoferReduction"]


class KuhnWattenhoferReduction(LocallyIterativeColoring):
    """Proper ``m``-coloring to ``Delta+1`` in ``O(Delta log(m / Delta))`` rounds."""

    name = "kuhn-wattenhofer"
    maintains_proper = True
    uniform_step = False

    def __init__(self):
        super().__init__()
        self.block = None  # N = Delta + 1: the post-halving block palette
        self.palette_schedule = None  # palette size at the start of iteration i

    def configure(self, info):
        super().configure(info)
        n_colors = info.max_degree + 1
        self.block = n_colors
        schedule = [max(info.in_palette_size, n_colors)]
        while schedule[-1] > n_colors:
            m = schedule[-1]
            blocks = -(-m // (2 * n_colors))  # ceil division
            schedule.append(min(m, blocks * n_colors))
            if schedule[-1] == schedule[-2]:
                # m <= 2N compresses to N directly.
                schedule[-1] = n_colors
        self.palette_schedule = schedule

    @property
    def out_palette_size(self):
        self._require_configured()
        return self.block

    @property
    def rounds_bound(self):
        """(#iterations) * N sub-rounds: Theta(Delta log(m / Delta))."""
        self._require_configured()
        return (len(self.palette_schedule) - 1) * self.block

    def step(self, round_index, color, neighbor_colors):
        n_colors = self.block
        iteration = round_index // n_colors
        sub_round = round_index % n_colors
        if iteration >= len(self.palette_schedule) - 1:
            return color

        two_n = 2 * n_colors
        block_index, local = divmod(color, two_n)
        acting_local = two_n - 1 - sub_round
        if local == acting_local and local >= n_colors:
            base = block_index * two_n
            taken = {c - base for c in neighbor_colors if base <= c < base + two_n}
            local = min(c for c in range(n_colors) if c not in taken)
        if sub_round == n_colors - 1:
            # End of the iteration: renumber into compact N-sized blocks.
            return block_index * n_colors + local
        return block_index * two_n + local

    def is_final(self, color):
        return False  # progress is schedule-driven; run the full bound

    @property
    def uniform_after(self):
        """Past the halving schedule the step is the identity (uniform tail)."""
        self._require_configured()
        return (len(self.palette_schedule) - 1) * self.block

    # -- batch protocol (see repro.runtime.fast_engine) -------------------------
    #
    # State: the current color as a single int64 array.  Each sub-round only
    # the acting local class of each 2N-block repicks, off a boolean
    # occupancy matrix scattered from the same-block neighbor colors (only
    # locals below N matter: candidates come from [0, N)).  Membership is
    # existence-only, so the kernel is identical in LOCAL and SET-LOCAL.

    def batch_encode_initial(self, initial):
        """Vectorized ``encode_initial`` (identity, like the scalar path)."""
        return (initial,)

    def step_batch(self, round_index, state, csr, visibility):
        """Vectorized ``step``: per-block greedy repick of the acting class."""
        (colors,) = state
        n_colors = self.block
        iteration = round_index // n_colors
        sub_round = round_index % n_colors
        if iteration >= len(self.palette_schedule) - 1:
            return state

        two_n = 2 * n_colors
        block_index = colors // two_n
        local = colors % two_n
        acting_local = two_n - 1 - sub_round
        acting = local == acting_local  # acting_local >= N always holds
        count = int(acting.sum())
        new_local = local
        if count:
            compact = np.cumsum(acting) - 1
            occupied = np.zeros((count, n_colors), dtype=bool)
            slot_sel = acting[csr.rows]
            neighbor = csr.gather(colors)[slot_sel]
            owner_rows = csr.rows[slot_sel]
            base = block_index[owner_rows] * two_n
            nbr_local = neighbor - base
            in_block = (nbr_local >= 0) & (nbr_local < n_colors)
            occupied[compact[owner_rows[in_block]], nbr_local[in_block]] = True
            if bool(occupied.all(axis=1).any()):
                # The scalar step's min() over an empty candidate range —
                # impossible for a proper input; replay for the exact error.
                from repro.runtime.fast_engine import scalar_replay_round

                scalar_replay_round(
                    self, round_index, colors.tolist(), csr, visibility
                )
                raise AssertionError(
                    "batch KW kernel rejected a round the scalar step accepts"
                )
            new_local = local.copy()
            new_local[acting] = np.argmin(occupied, axis=1)
        if sub_round == n_colors - 1:
            return (block_index * n_colors + new_local,)
        if count == 0:
            return state
        return (block_index * two_n + new_local,)

    def batch_is_final(self, state):
        """Vectorized ``is_final`` (never final, like the scalar path)."""
        return np.zeros(state[0].shape[0], dtype=bool)

    def batch_decode_final(self, state):
        """Vectorized ``decode_final`` (identity, like the scalar path)."""
        return state[0]

    def batch_to_scalar(self, state):
        """The state as the scalar engine's plain-int color list."""
        return state[0].tolist()
