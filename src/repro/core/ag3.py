"""3AG — the 3-dimensional Additive-Group algorithm (Section 7).

Reduces a proper ``p^3``-coloring to a proper ``p``-coloring in ``O(p)``
rounds with one uniform step (no phases), which is what makes it deployable
in self-stabilizing settings where different vertices cannot be assumed to be
in the same phase.

Colors are triples ``<c, b, a>`` over ``Z_p``.  The step (pseudocode 3AG(p)):

* while ``c != 0``: if no neighbor *with a different first coordinate* shares
  ``b``, drop to ``<0, b, a>``; otherwise rotate the middle coordinate
  ``<c, b + c, a>``;
* once ``c == 0``: if no neighbor shares ``a``, finalize to ``<0, 0, a>``;
  otherwise rotate the last coordinate ``<0, b, a + b>``.

**Reproduction note.**  The paper's pseudocode tests plain ``b_v != b_u`` in
the first phase.  Taken literally that deadlocks: two adjacent working
vertices with identical ``(c, b)`` but different ``a`` (possible in any
proper ``p^3``-coloring) rotate ``b`` in lockstep and block each other
forever, contradicting the convergence claim "each neighbor conflicts at
most three times".  The convergence analysis implicitly assumes colliding
``b``-values drift apart, i.e. that only *different-``c``* neighbors count as
phase-1 conflicts — which is the rule implemented here.  Lockstep pairs then
drop to ``<0, b, a>`` together (distinct because their ``a`` differ) and
phase 2 separates them through their distinct ``a`` coordinates.  With this
reading, Lemma 7.1's properness case analysis goes through verbatim (a
``c != 0`` vertex still cannot drop onto a finalized ``<0, 0, a>`` neighbor:
that neighbor has ``b = 0`` and first coordinate ``0 != c``, so it blocks the
drop), and the round count is the paper's: every vertex reaches ``c == 0``
within ``3 * Delta + 1`` rounds (a neighbor blocks as a working vertex, as a
dropped vertex with frozen ``b``, and as a finalized vertex with ``b = 0`` —
at most three windows) and finalizes within ``2 * Delta + 1`` more, so ``2p``
rounds suffice for ``p >= 3 * Delta + 1`` (Corollary 7.2; the paper works
with the same ``p >= 3 * Delta + 1`` assumption).
"""

import math

import numpy as np

from repro.mathutil.primes import next_prime_at_least
from repro.runtime.algorithm import LocallyIterativeColoring

__all__ = ["ThreeDimensionalAG", "ag3_prime_for"]


def ag3_prime_for(in_palette_size, max_degree, epsilon=None):
    """Smallest prime ``p`` with ``p^3 >= k`` and ``p >= 3 * Delta + 1``.

    With ``epsilon`` (Corollary 7.3) the degree floor relaxes to
    ``(1 + epsilon) * Delta`` at the cost of extra convergence phases.
    """
    cube_floor = 2
    while cube_floor ** 3 < in_palette_size:
        cube_floor += 1
    if epsilon is None:
        degree_floor = 3 * max_degree + 1
    else:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        degree_floor = int(math.ceil((1 + epsilon) * max_degree)) + 1
    return next_prime_at_least(max(cube_floor, degree_floor, 2))


class ThreeDimensionalAG(LocallyIterativeColoring):
    """``p^3`` colors to ``p`` colors in ``2p`` rounds, one uniform step."""

    name = "3ag"
    maintains_proper = True
    uniform_step = True

    def __init__(self, epsilon=None):
        super().__init__()
        self.epsilon = epsilon
        self.p = None

    def configure(self, info):
        super().configure(info)
        self.p = ag3_prime_for(info.in_palette_size, info.max_degree, self.epsilon)

    @property
    def out_palette_size(self):
        self._require_configured()
        return self.p

    @property
    def rounds_bound(self):
        """Corollary 7.2: ``2p`` rounds for ``p >= 3 * Delta + 1``; Corollary
        7.3: a factor ``O(1/epsilon)`` more when the palette is squeezed."""
        self._require_configured()
        if self.epsilon is None or self.p >= 3 * self.info.max_degree + 1:
            return 2 * self.p
        delta = max(1, self.info.max_degree)
        eff = max(1e-9, self.p / delta - 1)
        phases = 2 * (1 + math.ceil(1.0 / eff))
        return phases * self.p

    def encode_initial(self, color):
        self._require_configured()
        p = self.p
        if not (0 <= color < p ** 3):
            raise ValueError("input color %d does not fit in p^3 = %d" % (color, p ** 3))
        return (color // (p * p), (color // p) % p, color % p)

    def step(self, round_index, color, neighbor_colors):
        c, b, a = color
        p = self.p
        if c != 0:
            if all(nb != b or nc == c for nc, nb, _ in neighbor_colors):
                return (0, b, a)
            return (c, (b + c) % p, a)
        if all(na != a for _, _, na in neighbor_colors):
            return (0, 0, a)
        return (0, b, (a + b) % p)

    def is_final(self, color):
        c, b, _ = color
        return c == 0 and b == 0

    def decode_final(self, color):
        c, b, a = color
        if c != 0 or b != 0:
            raise ValueError("vertex has not finalized: %r" % (color,))
        return a

    def message_bits(self, round_index):
        """Full color once, then 2 bits per round (which coordinate moved).

        Section 5 uses exactly this: each endpoint sends the results of its
        two local tests (``b`` distinct? ``a`` distinct?) as 2 bits.
        """
        if round_index == 0:
            return max(1, math.ceil(math.log2(max(2, self.p ** 3))))
        return 2

    # -- batch protocol (see repro.runtime.fast_engine) -------------------------
    #
    # State: (c, b, a) as three int64 arrays.  Both conflict tests are pure
    # existence over the neighborhood, so the kernel is visibility-independent.

    def batch_encode_initial(self, initial):
        """Vectorized ``encode_initial``: int64 input colors to the state arrays."""
        self._require_configured()
        p = self.p
        bad = (initial < 0) | (initial >= p ** 3)
        if bool(bad.any()):
            first = int(initial[int(bad.argmax())])
            raise ValueError(
                "input color %d does not fit in p^3 = %d" % (first, p ** 3)
            )
        return (initial // (p * p), (initial // p) % p, initial % p)

    def step_batch(self, round_index, state, csr, visibility):
        """Vectorized ``step``: advance every vertex one round on the CSR view."""
        c, b, a = state
        p = self.p
        nc, nb, na = csr.gather(c), csr.gather(b), csr.gather(a)
        # Phase-1 conflict: a *different-c* neighbor shares b (see the
        # reproduction note above); phase-2 conflict: a neighbor shares a.
        phase1 = csr.any_per_vertex(
            (nb == csr.owner_values(b)) & (nc != csr.owner_values(c))
        )
        phase2 = csr.any_per_vertex(na == csr.owner_values(a))
        working = c != 0
        new_c = np.where(working & phase1, c, 0)
        new_b = np.where(
            working,
            np.where(phase1, (b + c) % p, b),
            np.where(phase2, b, 0),
        )
        new_a = np.where(working, a, np.where(phase2, (a + b) % p, a))
        return (new_c, new_b, new_a)

    def batch_is_final(self, state):
        """Vectorized ``is_final``: boolean finality mask over the state."""
        c, b, _ = state
        return (c == 0) & (b == 0)

    def batch_decode_final(self, state):
        """Vectorized ``decode_final``: decoded color array (scalar errors kept)."""
        c, b, a = state
        unfinished = (c != 0) | (b != 0)
        if bool(unfinished.any()):
            v = int(unfinished.argmax())
            raise ValueError(
                "vertex has not finalized: %r"
                % ((int(c[v]), int(b[v]), int(a[v])),)
            )
        return a
