"""Linial's algorithm as a locally-iterative stage, plus the Excl-Linial step.

The single-iteration primitive :func:`linial_next_color` is shared by:

* :class:`LinialColoring` — the static ``log* n + O(1)``-round stage used in
  Corollary 3.6's pipeline, and
* the self-stabilizing Mod-Linial of Section 4, which calls the primitive
  with a *forbidden set* (the Excl-Linial extension: with a field of size
  ``> d * Delta + |forbidden|`` there is still a point avoiding every
  neighbor's polynomial and every forbidden pair).
"""

import numpy as np

from repro.linial.plan import linial_plan
from repro.mathutil.gf import (
    batch_eval_point,
    batch_poly_coeffs,
    eval_poly_mod,
    int_to_poly_coeffs,
)
from repro.runtime.algorithm import LocallyIterativeColoring

__all__ = ["linial_next_color", "linial_round_batch", "LinialColoring"]

# Evaluation points are processed one at a time (Horner column per point):
# almost every vertex succeeds within the first few points, so the scan
# exits early and the kernel's largest transient is a single length-n
# column — never an (n x block) value matrix, which at out-of-core shard
# sizes (multi-million-row states) dominated peak RSS.


def linial_round_batch(stage, round_index, colors, csr, visibility, q, degree):
    """One vectorized Linial iteration over all vertices (batch kernel body).

    Shared by :class:`LinialColoring` and the proper rounds of
    ``DefectiveLinialColoring``: ``stage`` is only used to replay the round
    through its scalar ``step`` when the batch kernel must surface the exact
    scalar error (out-of-field input, no conflict-free point).  Returns the
    new int64 color array.
    """
    limit = q ** (degree + 1)
    out_of_field = colors < 0
    if limit < (1 << 62):
        out_of_field |= colors >= limit
    if bool(out_of_field.any()):
        _raise_like_scalar(stage, round_index, colors, csr, visibility)
    coeffs = batch_poly_coeffs(colors, degree, q)
    n = csr.n
    new_colors = np.empty(n, dtype=np.int64)
    pending = np.ones(n, dtype=bool)
    distinct = csr.gather(colors) != csr.owner_values(colors)
    # Only distinct-colored neighbors can ever conflict; slice them once.
    distinct_rows = csr.rows[distinct]
    distinct_nbrs = csr.indices[distinct]
    for x in range(q):
        # Re-select per point: pending collapses after the first few
        # points, so later iterations gather almost nothing.
        column = batch_eval_point(coeffs, x, q)
        slot_sel = pending[distinct_rows]
        rows = distinct_rows[slot_sel]
        conflict = np.zeros(n, dtype=bool)
        if rows.size:
            agree = column[distinct_nbrs[slot_sel]] == column[rows]
            conflict[rows[agree]] = True
        free = pending & ~conflict
        new_colors[free] = x * q + column[free]
        pending &= conflict
        if not bool(pending.any()):
            break
    if bool(pending.any()):
        # Some vertex has no conflict-free point (under-sized field).
        _raise_like_scalar(stage, round_index, colors, csr, visibility)
    return new_colors


def _raise_like_scalar(stage, round_index, colors, csr, visibility):
    """Replay the round through the scalar step to raise its exact error."""
    from repro.runtime.fast_engine import scalar_replay_round

    scalar_replay_round(stage, round_index, colors.tolist(), csr, visibility)
    raise AssertionError(
        "batch Linial kernel rejected a round the scalar step accepts"
    )


def linial_next_color(color, neighbor_colors, q, degree, forbidden=frozenset()):
    """One Linial iteration for a single vertex.

    Encodes ``color`` as a degree-``degree`` polynomial ``g`` over GF(q) and
    returns the new color ``x * q + g(x)`` for the smallest evaluation point
    ``x`` where ``g`` differs from every neighbor's polynomial and the
    resulting pair is not forbidden.

    Existence: each of the ``<= Delta`` neighbor polynomials agrees with ``g``
    on at most ``degree`` points and each forbidden color rules out at most
    one point, so ``q >= degree * Delta + |forbidden| + 1`` always leaves a
    valid ``x``.  Raises :class:`ValueError` when the caller under-sized the
    field.
    """
    mine = int_to_poly_coeffs(color, degree, q)
    neighbor_polys = [
        int_to_poly_coeffs(c, degree, q) for c in set(neighbor_colors) if c != color
    ]
    for x in range(q):
        value = eval_poly_mod(mine, x, q)
        candidate = x * q + value
        if candidate in forbidden:
            continue
        if all(eval_poly_mod(other, x, q) != value for other in neighbor_polys):
            return candidate
    raise ValueError(
        "no conflict-free point in GF(%d) for degree %d with %d neighbors, "
        "%d forbidden colors" % (q, degree, len(neighbor_polys), len(forbidden))
    )


class LinialColoring(LocallyIterativeColoring):
    """``m`` colors (e.g. IDs) to ``O(Delta^2)`` colors in ``log* m + O(1)`` rounds.

    Round ``i`` applies the planned iteration ``(q_i, d_i)``; the plan is a
    pure function of ``(m, Delta)``, so every vertex derives it locally from
    ROM data.  Works in SET-LOCAL: the rule uses only the set of neighbor
    colors.
    """

    name = "linial"
    maintains_proper = True
    uniform_step = False

    def __init__(self):
        super().__init__()
        self.plan = None

    def configure(self, info):
        super().configure(info)
        self.plan = linial_plan(info.in_palette_size, info.max_degree)

    @property
    def out_palette_size(self):
        self._require_configured()
        if not self.plan:
            return self.info.in_palette_size
        return self.plan[-1].out_palette

    @property
    def rounds_bound(self):
        self._require_configured()
        return len(self.plan)

    def step(self, round_index, color, neighbor_colors):
        if round_index >= len(self.plan):
            return color
        iteration = self.plan[round_index]
        return linial_next_color(
            color, neighbor_colors, iteration.q, iteration.degree
        )

    # -- batch protocol (see repro.runtime.fast_engine) -------------------------
    #
    # State: the current color as a single int64 array.  Each round encodes
    # all n colors as one base-q coefficient matrix, evaluates every
    # candidate point with a Vandermonde-style modular matmul, and picks each
    # vertex's smallest conflict-free point with a masked scatter over the
    # CSR neighborhood.  The conflict test is pure existence over *distinct*
    # neighbor colors, so the kernel is identical in LOCAL and SET-LOCAL.

    def batch_encode_initial(self, initial):
        """Vectorized ``encode_initial`` (identity, like the scalar path)."""
        return (initial,)

    def step_batch(self, round_index, state, csr, visibility):
        """Vectorized ``step``: one planned Linial iteration for all vertices."""
        (colors,) = state
        if round_index >= len(self.plan):
            return state
        iteration = self.plan[round_index]
        new_colors = linial_round_batch(
            self, round_index, colors, csr, visibility, iteration.q, iteration.degree
        )
        return (new_colors,)

    def batch_is_final(self, state):
        """Vectorized ``is_final`` (never final, like the scalar path)."""
        return np.zeros(state[0].shape[0], dtype=bool)

    def batch_decode_final(self, state):
        """Vectorized ``decode_final`` (identity, like the scalar path)."""
        return state[0]

    def batch_to_scalar(self, state):
        """The state as the scalar engine's plain-int color list."""
        return state[0].tolist()
