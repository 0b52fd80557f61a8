"""Shared NumPy kernels for the batch self-stabilization engine.

The self-stabilizing algorithms are *uniform* per-round local rules over the
interval plan: classify every (possibly corrupted) color, reset conflicts,
run one Mod-/Excl-Linial descent per interval, and step the core machine.
Each of those pieces is a data-parallel map over the 1-hop neighborhood, so
a whole round becomes a handful of array operations over a
:class:`~repro.runtime.csr.CSRAdjacency` view.

Encoding.  RAM values are arbitrary Python objects (the adversary writes
garbage), but *canonical* states — what the algorithms themselves produce —
are plain machine-sized ints (or ``(int, status)`` pairs for the MIS).  The
batch state stores every color as one ``int64`` column:

* plain ints keep their exact value (negative or out-of-range garbage
  included — equality and ``<`` comparisons must match the scalar path);
* bools store their int value (``True == 1`` for every rule the algorithms
  apply) and are tracked as payload-noncanonical so the CONGEST meter still
  charges the scalar 1 bit;
* non-int garbage maps to a sentinel below every representable color, which
  classifies as invalid and equals nothing valid — exactly the scalar
  behavior (two distinct garbage values colliding on the sentinel is
  unobservable: no rule ever compares two *neighbor* values to each other);
* ints too large for the sentinel-safe ``int64`` range are *exotic*:
  ``batch_encode`` refuses and the engine runs that round through the
  inherited scalar step (bit-for-bit parity for free).

Every rule here is existence/forall-based over the neighbor multiset, so
one kernel serves both the LOCAL and SET-LOCAL visibility models.
"""

import numpy as np

from repro.mathutil.gf import batch_eval_points, batch_poly_coeffs

__all__ = [
    "BatchContext",
    "ColorBatchOps",
    "replay_scalar_round",
    "masked_point_search",
    "batch_levels",
    "apply_upper_descent",
    "SENTINEL",
]

#: Stored for non-int garbage: below every valid color, equal to nothing.
SENTINEL = -(1 << 62)

#: Plain ints beyond this magnitude are "exotic" and force a scalar round.
_CANON_MAX = 1 << 61

# Evaluation points are processed in small blocks (see LinialColoring):
# almost every vertex succeeds within the first few points.
_POINT_BLOCK = 16


def replay_scalar_round(algorithm, raws, csr, vertices, set_visibility):
    """Re-run one round through the scalar ``transition`` in vertex order.

    Batch kernels call this when no conflict-free point exists for some
    vertex: replaying raises the scalar path's exact exception, from the
    same vertex, with the same message.
    """
    visible = [algorithm.visible(v, raws[i]) for i, v in enumerate(vertices)]
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    for i, v in enumerate(vertices):
        view = tuple(visible[j] for j in indices[indptr[i]:indptr[i + 1]])
        if set_visibility:
            view = frozenset(view)
        algorithm.transition(v, raws[i], view)


class BatchContext:
    """Everything a ``transition_batch`` kernel needs for one round."""

    __slots__ = ("csr", "vertices", "set_visibility", "algorithm", "raw_values")

    def __init__(self, csr, vertices, set_visibility, algorithm, raw_values):
        self.csr = csr
        self.vertices = vertices  # int64 array: compact index -> original id
        self.set_visibility = set_visibility
        self.algorithm = algorithm
        self.raw_values = raw_values  # lazy: the scalar RAM list for replay

    def replay(self):
        """Replay through the scalar path to raise its exact error."""
        raws = self.raw_values()
        replay_scalar_round(
            self.algorithm,
            raws,
            self.csr,
            self.vertices.tolist(),
            self.set_visibility,
        )
        raise AssertionError(
            "batch self-stab kernel rejected a round the scalar transition accepts"
        )


def batch_levels(colors, plan, offsets_arr):
    """Interval index per color column entry; -1 for invalid values.

    Mirrors ``IntervalPlan.level_of``: any int64 value outside
    ``[0, total_size)`` (garbage, sentinel) classifies as invalid.
    """
    valid = (colors >= 0) & (colors < plan.total_size)
    idx = np.searchsorted(offsets_arr, colors, side="right") - 1
    return np.where(valid, idx, -1)


def masked_point_search(locals_, q, degree, points, nbr_rows, nbr_locals, encode, forbidden):
    """Smallest conflict-free evaluation point per vertex, vectorized.

    The batch analogue of ``linial_next_color`` / ``_land``: encode each
    vertex's local color as a degree-``degree`` polynomial over GF(q),
    evaluate candidate points in blocks, and pick per vertex the smallest
    ``x`` whose value differs from every same-interval neighbor polynomial
    and whose encoded candidate is not forbidden.

    ``nbr_rows``/``nbr_locals`` list the same-interval neighbor slots
    (positions into ``locals_`` / their local colors), pre-filtered to drop
    neighbors holding the *same* local color — the scalar path skips its own
    polynomial, and an unskipped copy would conflict at every point.
    Duplicates are harmless (existence-only), so LOCAL == SET-LOCAL.

    ``encode(x, values)`` maps a point and its evaluations to candidate
    local colors; ``forbidden(cand, pending)`` (or None) marks candidates the
    Excl-Linial forbidden set rules out.  Returns the per-vertex candidate
    array, or ``None`` if some vertex exhausts all points (the caller then
    replays the round through the scalar path for its exact error).
    """
    s = locals_.shape[0]
    out = np.empty(s, dtype=np.int64)
    if s == 0:
        return out
    coeffs = batch_poly_coeffs(locals_, degree, q)
    have_nb = nbr_locals.size > 0
    nb_coeffs = batch_poly_coeffs(nbr_locals, degree, q) if have_nb else None
    pending = np.ones(s, dtype=bool)
    for first in range(0, points, _POINT_BLOCK):
        xs = np.arange(first, min(first + _POINT_BLOCK, points), dtype=np.int64)
        own_vals = batch_eval_points(coeffs, xs, q)
        for j in range(xs.size):
            x = int(xs[j])
            column = own_vals[:, j]
            conflict = np.zeros(s, dtype=bool)
            if have_nb:
                # Neighbor polynomials are evaluated lazily, per point, on
                # the still-pending slots only: pending collapses after the
                # first point or two, so pre-evaluating whole blocks over
                # all O(m) slots would dominate the round.
                sel = pending[nbr_rows]
                rows = nbr_rows[sel]
                if rows.size:
                    sub = nb_coeffs if rows.size == nbr_rows.size else nb_coeffs[sel]
                    vals = sub[:, -1].copy()
                    for k in range(sub.shape[1] - 2, -1, -1):
                        vals *= x
                        vals += sub[:, k]
                        vals %= q
                    agree = vals == column[rows]
                    conflict[rows[agree]] = True
            cand = encode(x, column)
            if forbidden is not None:
                conflict |= forbidden(cand, pending)
            free = pending & ~conflict
            out[free] = cand[free]
            pending &= conflict
            if not bool(pending.any()):
                return out
    return None


def apply_upper_descent(new, colors, levels, slot_levels, active, plan, ctx):
    """Mod-Linial descent for every active vertex at level >= 2.

    Shared verbatim by the plain and exact colorings (their transitions only
    differ at levels 1 and 0).  Writes results into ``new`` in place.
    """
    csr = ctx.csr
    offsets = plan.offsets
    upper = active & (levels >= 2)
    if not bool(upper.any()):
        return
    for level in np.unique(levels[upper]).tolist():
        mask = active & (levels == level)
        sub = np.nonzero(mask)[0]
        iteration = plan.descent_iteration(level)
        off = offsets[level]
        locals_ = colors[sub] - off
        inv = np.empty(colors.shape[0], dtype=np.int64)
        inv[sub] = np.arange(sub.size, dtype=np.int64)
        smask = mask[csr.rows] & (slot_levels == level)
        owner_rows = csr.rows[smask]
        nbr_locals = colors[csr.indices[smask]] - off
        keep = nbr_locals != colors[owner_rows] - off
        q = iteration.q
        result = masked_point_search(
            locals_,
            q,
            iteration.degree,
            q,
            inv[owner_rows[keep]],
            nbr_locals[keep],
            lambda x, values: x * q + values,
            None,
        )
        if result is None:
            ctx.replay()
        new[sub] = offsets[level - 1] + result


class ColorBatchOps:
    """Batch protocol mixin for algorithms whose RAM is one global color.

    Concrete classes provide ``transition_batch_colors(colors, ctx)``; this
    mixin supplies the encode/decode/payload plumbing the batch engine uses.
    Assumes ``visible`` is the identity (true for every algorithm here).
    """

    batch_transitions = True

    def batch_encode(self, raws):
        """Columns for a RAM list: ``((values,), noncanon)`` or None (exotic)."""
        values = np.empty(len(raws), dtype=np.int64)
        noncanon = {}
        for i, raw in enumerate(raws):
            if isinstance(raw, bool):
                values[i] = int(raw)
                noncanon[i] = raw
            elif isinstance(raw, int):
                if not -_CANON_MAX < raw < _CANON_MAX:
                    return None
                values[i] = raw
            else:
                values[i] = SENTINEL
                noncanon[i] = raw
        return (values,), noncanon

    def batch_encode_one(self, raw):
        """Column values for one RAM: ``(cols, canonical)`` or None (exotic)."""
        if isinstance(raw, bool):
            return (int(raw),), False
        if isinstance(raw, int):
            if not -_CANON_MAX < raw < _CANON_MAX:
                return None
            return (raw,), True
        return (SENTINEL,), False

    def batch_decode(self, state):
        """The canonical (post-step) state as the scalar RAM list."""
        return state[0].tolist()

    def batch_payload_max(self, state, include):
        """Max broadcast payload bits over the included canonical vertices."""
        values = state[0][include]
        if values.size == 0:
            return 0
        return max(1, int(np.abs(values).max()).bit_length() + 1)

    def transition_batch(self, state, ctx):
        """One synchronous round: ``(new_state, changed_mask)``."""
        (colors,) = state
        new_colors = self.transition_batch_colors(colors, ctx)
        return (new_colors,), colors != new_colors
