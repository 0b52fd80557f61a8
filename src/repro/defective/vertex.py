"""p-defective ``O((Delta/p)^2)``-coloring in ``log* n + O(1)`` rounds.

Section 6 starts ArbAG from a ``p``-defective ``O((Delta/p)^2)``-coloring
computed by the algorithm of Barenboim–Elkin–Kuhn [9].  We reproduce that
guarantee with the same machinery as our Linial stage: a proper Linial
cascade down to ``O(Delta^2)`` colors, followed by O(1) *tolerant* Linial
steps.  A tolerant step encodes colors as degree-2 polynomials over GF(q) and
each vertex picks the evaluation point with the *fewest* collisions with its
distinctly-colored neighbors; by pigeonhole some point has at most
``floor(2 * Delta / q)`` collisions, so a step with ``q = Theta(Delta / p)``
adds at most ``O(p)`` defect while squaring down the palette towards
``O((Delta/p)^2)``.

Already-equal neighbors stay tolerated (they may or may not separate later);
the accumulated defect is the sum of the per-step pigeonhole bounds, exposed
as :attr:`DefectiveLinialColoring.defect_bound` and asserted in tests.
"""

import numpy as np

from repro.linial.plan import integer_root_ceiling, linial_plan
from repro.mathutil.gf import (
    batch_eval_points,
    batch_poly_coeffs,
    eval_poly_mod,
    int_to_poly_coeffs,
)
from repro.mathutil.primes import next_prime_at_least
from repro.runtime.algorithm import LocallyIterativeColoring

__all__ = ["DefectiveLinialColoring", "defective_linial_next_color"]

_TOLERANT_DEGREE = 2


def defective_linial_next_color(color, neighbor_colors, q, degree):
    """One tolerant Linial step: the point with the fewest collisions.

    Returns ``x * q + g(x)`` for the ``x`` minimizing the number of
    distinctly-colored neighbors whose polynomial agrees with ours at ``x``
    (ties broken towards smaller ``x``).
    """
    mine = int_to_poly_coeffs(color, degree, q)
    neighbor_polys = [
        int_to_poly_coeffs(c, degree, q) for c in set(neighbor_colors) if c != color
    ]
    if not neighbor_polys:
        # Fixed-point neighborhood (no distinctly-colored neighbor can ever
        # collide): x = 0 wins with count 0, so skip the per-point scan.
        return eval_poly_mod(mine, 0, q)
    best_x, best_value, best_count = 0, eval_poly_mod(mine, 0, q), None
    for x in range(q):
        value = eval_poly_mod(mine, x, q)
        count = sum(
            1 for other in neighbor_polys if eval_poly_mod(other, x, q) == value
        )
        if best_count is None or count < best_count:
            best_x, best_value, best_count = x, value, count
        if best_count == 0:
            break
    return best_x * q + best_value


class DefectiveLinialColoring(LocallyIterativeColoring):
    """``m`` colors to a ``O(p)``-defective ``O((Delta/p)^2)``-coloring.

    Parameters
    ----------
    tolerance:
        The defect parameter ``p`` (``1 <= p``).  ``p = 1`` degenerates to an
        essentially-proper Linial run; ``p = sqrt(Delta)`` is the setting of
        Section 6's headline result.
    """

    name = "defective-linial"
    maintains_proper = False
    uniform_step = False

    def __init__(self, tolerance):
        super().__init__()
        if tolerance < 1:
            raise ValueError("tolerance must be >= 1")
        self.tolerance = tolerance
        self.proper_plan = None
        self.tolerant_qs = None
        self.defect_bound = None

    def configure(self, info):
        super().configure(info)
        delta = info.max_degree
        self.proper_plan = linial_plan(info.in_palette_size, delta)
        proper_out = (
            self.proper_plan[-1].out_palette
            if self.proper_plan
            else info.in_palette_size
        )
        # Target palette: (smallest prime >= 2 * ceil(Delta/p) + 2) squared,
        # which is what ArbAG wants to see as its input space.
        r = -(-delta // self.tolerance) if delta else 0
        target_q = next_prime_at_least(max(2 * r + 2, 2))
        target = target_q * target_q
        qs = []
        bound = 0
        m = proper_out
        while m > target:
            q = next_prime_at_least(
                max(integer_root_ceiling(m, _TOLERANT_DEGREE + 1), target_q)
            )
            if q * q >= m:
                break
            qs.append(q)
            bound += (_TOLERANT_DEGREE * delta) // q
            m = q * q
        self.tolerant_qs = qs
        self.defect_bound = bound
        self._final_palette = m

    @property
    def out_palette_size(self):
        self._require_configured()
        return self._final_palette

    @property
    def rounds_bound(self):
        self._require_configured()
        return len(self.proper_plan) + len(self.tolerant_qs)

    def step(self, round_index, color, neighbor_colors):
        n_proper = len(self.proper_plan)
        if round_index < n_proper:
            iteration = self.proper_plan[round_index]
            from repro.linial.core import linial_next_color

            return linial_next_color(
                color, neighbor_colors, iteration.q, iteration.degree
            )
        tolerant_index = round_index - n_proper
        if tolerant_index >= len(self.tolerant_qs):
            return color
        q = self.tolerant_qs[tolerant_index]
        return defective_linial_next_color(
            color, neighbor_colors, q, _TOLERANT_DEGREE
        )

    @property
    def uniform_after(self):
        """Past the schedule the step is the identity — a uniform tail.

        Both engines use this for the fixed-point early exit (the same break
        the ``uniform_step`` stages get): once a round at or past this index
        changes nothing, no later round can.  Callers that run this stage
        with a generous ``max_rounds`` no longer re-enter the per-neighbor
        scan of :func:`defective_linial_next_color` on every tail round.
        """
        self._require_configured()
        return len(self.proper_plan) + len(self.tolerant_qs)

    # -- batch protocol (see repro.runtime.fast_engine) -------------------------
    #
    # State: the current color as a single int64 array.  Proper rounds reuse
    # the shared Linial kernel; tolerant rounds evaluate every candidate
    # point's collision count against the *deduplicated* distinctly-colored
    # neighbor polynomials (the scalar rule counts per distinct color, so
    # SET-LOCAL and LOCAL agree after the dedup) and argmin with ties to the
    # smallest point — exactly the scalar best-count scan.

    def batch_encode_initial(self, initial):
        """Vectorized ``encode_initial`` (identity, like the scalar path)."""
        return (initial,)

    def step_batch(self, round_index, state, csr, visibility):
        """Vectorized ``step``: planned Linial round or tolerant repick."""
        from repro.linial.core import linial_round_batch

        (colors,) = state
        n_proper = len(self.proper_plan)
        if round_index < n_proper:
            iteration = self.proper_plan[round_index]
            new_colors = linial_round_batch(
                self, round_index, colors, csr, visibility,
                iteration.q, iteration.degree,
            )
            return (new_colors,)
        tolerant_index = round_index - n_proper
        if tolerant_index >= len(self.tolerant_qs):
            return state
        q = self.tolerant_qs[tolerant_index]
        return (self._tolerant_round_batch(round_index, colors, csr, visibility, q),)

    def _tolerant_round_batch(self, round_index, colors, csr, visibility, q):
        degree = _TOLERANT_DEGREE
        limit = q ** (degree + 1)
        out_of_field = (colors < 0) | (colors >= limit)
        if bool(out_of_field.any()):
            # Replay in vertex order for the scalar encoder's exact error.
            from repro.runtime.fast_engine import scalar_replay_round

            scalar_replay_round(self, round_index, colors.tolist(), csr, visibility)
            raise AssertionError(
                "batch tolerant kernel rejected a round the scalar step accepts"
            )
        n = csr.n
        coeffs = batch_poly_coeffs(colors, degree, q)
        nbr = csr.gather(colors)
        sel = csr.distinct_slot_mask(nbr) & (nbr != csr.owner_values(colors))
        rows = csr.rows[sel]
        nbr_idx = csr.indices[sel]
        own_vals = batch_eval_points(coeffs, np.arange(q, dtype=np.int64), q)
        # Scan points smallest-first with a collapsing pending set: a vertex
        # is decided the moment it sees a zero-collision point (the scalar
        # loop's early break), and only pending vertices' slots are touched
        # afterwards — so the expected slot work is a small multiple of m,
        # not m * q.  A neighbor's polynomial is that neighbor's own
        # polynomial, so its values come from ``own_vals`` by gather.
        best_x = np.zeros(n, dtype=np.int64)
        best_count = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        pending = np.ones(n, dtype=bool)
        for x in range(q):
            column = own_vals[:, x]
            agree = column[nbr_idx] == column[rows]
            count = np.bincount(rows[agree], minlength=n)
            better = pending & (count < best_count)
            best_x[better] = x
            best_count[better] = count[better]
            pending &= best_count > 0
            if not bool(pending.any()):
                break
            keep = pending[rows]
            rows = rows[keep]
            nbr_idx = nbr_idx[keep]
        return best_x * q + own_vals[np.arange(n), best_x]

    def batch_is_final(self, state):
        """Vectorized ``is_final`` (never final, like the scalar path)."""
        return np.zeros(state[0].shape[0], dtype=bool)

    def batch_decode_final(self, state):
        """Vectorized ``decode_final`` (identity, like the scalar path)."""
        return state[0]

    def batch_to_scalar(self, state):
        """The state as the scalar engine's plain-int color list."""
        return state[0].tolist()
