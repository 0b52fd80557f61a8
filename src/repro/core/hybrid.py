"""Exact (Delta+1)-coloring without the standard color reduction (Section 7).

The construction splits colors into *low* (below ``2N``, ``N = Delta + 1``)
and *high* (the rest).  Low-color vertices run AG(N)
(:mod:`repro.core.agn`), ignoring their high-color neighbors entirely.
High-color vertices run AG(p) over a prime ``p`` in ``(N, 2N]`` (one exists
by Bertrand's postulate) with two twists from the paper:

* a high vertex *takes into account* its finalized low neighbors when testing
  for a conflict (their values live in ``[0, N)``, so they can only collide
  with a high vertex about to land there), and
* a high vertex is *not allowed to finalize* while it still has a
  non-finalized low-color neighbor; if it wants to finalize but may not, it
  keeps rotating ``<b, a + b>`` instead (Lemma 7.4 shows this keeps the
  coloring proper).

When a high vertex finally lands on value ``a``, it simply *becomes* a
low-color vertex (working if ``a >= N``, final if ``a < N``) and continues
with AG(N).  Lows converge within ``N`` rounds of appearing; highs converge a
constant number of ``p``-round phases later (Corollary 7.3 with
``eps = p / Delta - 1``), so the whole stage takes ``O(Delta)`` rounds and
ends with every vertex holding a final color in ``[0, Delta]`` — an exact
(Delta+1)-coloring, reached with one palette-monotone uniform rule and no
round counter, which is why the same machinery self-stabilizes (Theorem 7.5).

Internal colors are tagged triples: ``("L", 0, a)`` final, ``("L", 1, a)``
low working, ``("H", b, a)`` high working with rotation step ``b >= 1``.
"""

import math

import numpy as np

from repro.runtime.algorithm import LocallyIterativeColoring

__all__ = ["ExactDeltaPlusOneHybrid", "largest_prime_at_most"]


def largest_prime_at_most(n):
    """Return the largest prime ``<= n`` (None if there is none)."""
    from repro.mathutil.primes import is_prime

    candidate = n
    while candidate >= 2:
        if is_prime(candidate):
            return candidate
        candidate -= 1
    return None


class ExactDeltaPlusOneHybrid(LocallyIterativeColoring):
    """High/low hybrid: any ``<= 2N + p(p-1)``-coloring to exactly ``Delta+1``."""

    name = "exact-hybrid"
    maintains_proper = True
    uniform_step = True

    LOW = "L"
    HIGH = "H"

    def __init__(self):
        super().__init__()
        self.n_colors = None  # N = Delta + 1
        self.p = None

    def configure(self, info):
        super().configure(info)
        n = info.max_degree + 1
        p = largest_prime_at_most(2 * n)
        if p is None or p <= info.max_degree:
            # Only possible for Delta = 0 where N = 1, 2N = 2, p = 2 > 0. Guard anyway.
            p = 2
        self.n_colors = n
        self.p = p
        capacity = 2 * n + p * (p - 1)
        # Delta = 0: no edges, so no conflicts ever arise and every vertex
        # finalizes to color 0 immediately; any input palette is acceptable.
        if info.max_degree > 0 and info.in_palette_size > capacity:
            raise ValueError(
                "hybrid stage capacity is %d colors (2N + p(p-1), N=%d, p=%d); "
                "got %d — reduce with AG first" % (capacity, n, p, info.in_palette_size)
            )

    @property
    def out_palette_size(self):
        self._require_configured()
        return self.n_colors

    @property
    def rounds_bound(self):
        """N rounds for lows + O(1) phases of p rounds for highs + N more."""
        self._require_configured()
        n, p = self.n_colors, self.p
        delta = self.info.max_degree
        phases = 2 + math.ceil(delta / max(1, p - n))
        return n + phases * p + n

    def encode_initial(self, color):
        self._require_configured()
        n, p = self.n_colors, self.p
        if color < 0:
            raise ValueError("negative color")
        if color < 2 * n:
            return (self.LOW, color // n, color % n)
        j = color - 2 * n
        return (self.HIGH, j // p + 1, j % p)

    def step(self, round_index, color, neighbor_colors):
        tag, b, a = color
        if tag == self.LOW:
            return self._low_step(b, a, neighbor_colors)
        return self._high_step(b, a, neighbor_colors)

    def _low_step(self, b, a, neighbor_colors):
        """AG(N), ignoring high-color neighbors (the paper's rule)."""
        if b == 0:
            return (self.LOW, 0, a)
        conflict = any(
            tag == self.LOW and na == a for tag, _, na in neighbor_colors
        )
        if conflict:
            return (self.LOW, 1, (a + 1) % self.n_colors)
        return (self.LOW, 0, a)

    def _high_step(self, b, a, neighbor_colors):
        """AG(p) with low-aware conflicts and the finalization gate."""
        has_low_working = any(
            tag == self.LOW and nb == 1 for tag, nb, _ in neighbor_colors
        )
        conflict = any(
            (tag == self.HIGH and na == a)
            or (tag == self.LOW and nb == 0 and na == a)
            for tag, nb, na in neighbor_colors
        )
        if conflict or has_low_working:
            return (self.HIGH, b, (a + b) % self.p)
        # Land in the low color space and continue as a low vertex.
        if a < self.n_colors:
            return (self.LOW, 0, a)
        return (self.LOW, 1, a - self.n_colors)

    def is_final(self, color):
        tag, b, _ = color
        return tag == self.LOW and b == 0

    def decode_final(self, color):
        tag, b, a = color
        if tag != self.LOW or b != 0:
            raise ValueError("vertex has not finalized: %r" % (color,))
        return a

    def message_bits(self, round_index):
        if round_index == 0:
            return super().message_bits(round_index)
        return 2

    # -- batch protocol (see repro.runtime.fast_engine) -------------------------
    #
    # State: three int64 columns (tag, b, a) with tag 0 = LOW, 1 = HIGH.
    # Every rule is an existence test over the neighbor multiset, so one
    # kernel serves LOCAL and SET-LOCAL; component-wise column equality is
    # exactly tuple equality, so the engine's conflict/properness checks work
    # unchanged.

    _TAG_LOW = 0
    _TAG_HIGH = 1

    def batch_encode_initial(self, initial):
        """Vectorized ``encode_initial`` (same validation as the scalar path)."""
        n, p = self.n_colors, self.p
        if bool((initial < 0).any()):
            raise ValueError("negative color")
        low = initial < 2 * n
        j = initial - 2 * n
        tag = np.where(low, self._TAG_LOW, self._TAG_HIGH)
        b = np.where(low, initial // n, j // p + 1)
        a = np.where(low, initial % n, j % p)
        return (tag, b, a)

    def step_batch(self, round_index, state, csr, visibility):
        """Vectorized ``step``: one uniform hybrid round for all vertices."""
        tag, b, a = state
        n, p = self.n_colors, self.p
        nbr_tag = csr.gather(tag)
        nbr_b = csr.gather(b)
        nbr_a = csr.gather(a)
        own_a = csr.owner_values(a)
        nbr_low = nbr_tag == self._TAG_LOW
        same_a = nbr_a == own_a
        low_conflict = csr.any_per_vertex(nbr_low & same_a)
        low_working = csr.any_per_vertex(nbr_low & (nbr_b == 1))
        high_conflict = csr.any_per_vertex(
            same_a & (~nbr_low | (nbr_b == 0))
        )

        low = tag == self._TAG_LOW
        high = ~low
        new_tag = tag.copy()
        new_b = b.copy()
        new_a = a.copy()

        rotate = low & (b != 0) & low_conflict
        settle = low & (b != 0) & ~low_conflict
        new_b[rotate] = 1
        new_a[rotate] = (a[rotate] + 1) % n
        new_b[settle] = 0

        stay = high & (high_conflict | low_working)
        new_a[stay] = (a[stay] + b[stay]) % p
        land = high & ~stay
        new_tag[land] = self._TAG_LOW
        land_low = land & (a < n)
        land_high = land & (a >= n)
        new_b[land_low] = 0
        new_b[land_high] = 1
        new_a[land_high] = a[land_high] - n
        return (new_tag, new_b, new_a)

    def batch_is_final(self, state):
        """Vectorized ``is_final``: low and settled."""
        tag, b, _ = state
        return (tag == self._TAG_LOW) & (b == 0)

    def batch_decode_final(self, state):
        """Vectorized ``decode_final`` with the scalar path's exact error."""
        not_final = ~self.batch_is_final(state)
        if bool(not_final.any()):
            v = int(np.argmax(not_final))
            raise ValueError(
                "vertex has not finalized: %r" % (self._scalar_color(state, v),)
            )
        return state[2]

    def _scalar_color(self, state, v):
        tag, b, a = state
        label = self.LOW if int(tag[v]) == self._TAG_LOW else self.HIGH
        return (label, int(b[v]), int(a[v]))

    def batch_to_scalar(self, state):
        """The state as the scalar engine's tagged-triple color list."""
        tag, b, a = state
        low = self.LOW
        high = self.HIGH
        return [
            (low if t == self._TAG_LOW else high, bv, av)
            for t, bv, av in zip(tag.tolist(), b.tolist(), a.tolist())
        ]
