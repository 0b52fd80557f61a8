"""AG over the additive group ``Z_{Delta+1}`` — the exact (Delta+1) step.

Section 7 observes that primality of the modulus is only needed while
*working* vertices must drift apart; if the starting point is a proper
``(1 + eps) * Delta``-coloring with ``eps <= 1`` (at most ``2 * (Delta + 1)``
colors), colors can be written as ``<b, a>`` with ``b in {0, 1}`` and
``a in Z_N``, ``N = Delta + 1``, and the AG step run with arithmetic modulo
the (not necessarily prime) ``N``:

* ``b == 0``: the color is final, forever;
* ``b == 1``: if some neighbor has the same ``a`` (*regardless of its* ``b``),
  rotate ``<1, (a + 1) mod N>``; otherwise finalize ``<0, a>``.

Two working neighbors start with distinct ``a`` (their pairs differ and both
have ``b = 1``) and both advance by exactly 1 each round, so they never
collide; a working vertex passes each finalized neighbor's ``a`` at most once
per ``N`` rounds, and with at most ``Delta < N`` finalized neighbors some
round in every window of ``N`` is conflict-free.  Hence an exact
``(Delta+1)``-coloring in ``N = Delta + 1`` rounds, with the coloring proper
(as pairs) throughout — no standard color reduction needed.
"""

import numpy as np

from repro.runtime.algorithm import LocallyIterativeColoring

__all__ = ["AdditiveGroupZN"]


class AdditiveGroupZN(LocallyIterativeColoring):
    """``<= 2(Delta+1)`` colors to exactly ``Delta + 1`` in ``Delta + 1`` rounds."""

    name = "ag-zn"
    maintains_proper = True
    uniform_step = True

    def __init__(self):
        super().__init__()
        self.modulus = None

    def configure(self, info):
        super().configure(info)
        self.modulus = info.max_degree + 1
        if info.in_palette_size > 2 * self.modulus:
            raise ValueError(
                "AG(N) needs a (1+eps)Delta-coloring with eps <= 1: "
                "got %d colors > 2 * (Delta + 1) = %d"
                % (info.in_palette_size, 2 * self.modulus)
            )

    @property
    def out_palette_size(self):
        self._require_configured()
        return self.modulus

    @property
    def rounds_bound(self):
        self._require_configured()
        return self.modulus

    def encode_initial(self, color):
        self._require_configured()
        n = self.modulus
        if not (0 <= color < 2 * n):
            raise ValueError("input color %d out of range [0, %d)" % (color, 2 * n))
        return (color // n, color % n)

    def step(self, round_index, color, neighbor_colors):
        b, a = color
        if b == 0:
            return color
        if any(na == a for _, na in neighbor_colors):
            return (1, (a + 1) % self.modulus)
        return (0, a)

    def is_final(self, color):
        return color[0] == 0

    def decode_final(self, color):
        b, a = color
        if b != 0:
            raise ValueError("vertex still working: %r" % (color,))
        return a

    def message_bits(self, round_index):
        if round_index == 0:
            return super().message_bits(round_index)
        return 1

    # -- batch protocol (see repro.runtime.fast_engine) -------------------------
    #
    # State: (b, a) as two int64 arrays.  The conflict test ("some neighbor
    # has the same a, regardless of its b") is pure existence, so the kernel
    # is visibility-independent.

    def batch_encode_initial(self, initial):
        """Vectorized ``encode_initial``: int64 input colors to the state arrays."""
        self._require_configured()
        n = self.modulus
        bad = (initial < 0) | (initial >= 2 * n)
        if bool(bad.any()):
            first = int(initial[int(bad.argmax())])
            raise ValueError("input color %d out of range [0, %d)" % (first, 2 * n))
        return (initial // n, initial % n)

    def step_batch(self, round_index, state, csr, visibility):
        """Vectorized ``step``: advance every vertex one round on the CSR view."""
        b, a = state
        conflict = csr.any_per_vertex(csr.gather(a) == csr.owner_values(a))
        working = b != 0
        new_b = np.where(working & ~conflict, 0, b)
        new_a = np.where(working & conflict, (a + 1) % self.modulus, a)
        return (new_b, new_a)

    def batch_is_final(self, state):
        """Vectorized ``is_final``: boolean finality mask over the state."""
        return state[0] == 0

    def batch_decode_final(self, state):
        """Vectorized ``decode_final``: decoded color array (scalar errors kept)."""
        b, a = state
        working = b != 0
        if bool(working.any()):
            v = int(working.argmax())
            raise ValueError(
                "vertex still working: %r" % ((int(b[v]), int(a[v])),)
            )
        return a
