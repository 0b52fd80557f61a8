"""Corollary 3.6 executed through bit channels.

The communication-efficiency claim of Section 3 ("it is enough to send only
one bit indicating whether its color became final or that it changed
according to the rule") made executable for *vertex* coloring:

1. **Linial rounds** — each vertex broadcasts its current color, serialized
   at the round's palette width; receivers deserialize into per-neighbor
   replicas.
2. **AG pair exchange** — one broadcast of the initial pair, then
3. **AG rounds** — exactly **one bit** per neighbor per round
   (``1`` = rotated, ``0`` = finalized): a receiver holding the neighbor's
   replica ``(a, b)`` applies ``(a, b + a)`` or ``(0, b)`` itself.
4. **Standard reduction rounds** — a vertex of the acting class broadcasts
   its freshly picked color (palette-width bits); everyone else broadcasts a
   single ``0`` "no change" bit, so receivers know whether to read a value.

Per-neighbor replicas are asserted equal to the true colors after every
round; the final coloring is bit-identical to
:func:`repro.recipes.delta_plus_one_coloring` on the same graph.
"""

import math

import numpy as np

from repro.bitround.channel import BitChannelNetwork, decode_int, encode_int
from repro.core.ag import AdditiveGroupColoring
from repro.core.reductions import StandardColorReduction
from repro.linial.core import LinialColoring, linial_next_color, linial_round_batch
from repro.runtime.algorithm import NetworkInfo
from repro.runtime.results import Result

__all__ = ["VertexBitProtocolRun", "run_vertex_coloring_bit_protocol"]


def _bits(x):
    return max(1, math.ceil(math.log2(max(2, x))))


class VertexBitProtocolRun:
    """Outcome of the bit-level vertex-coloring execution."""

    def __init__(self, colors, rounds_by_phase, bit_rounds_by_phase):
        self.colors = colors
        self.rounds_by_phase = dict(rounds_by_phase)
        self.bit_rounds_by_phase = dict(bit_rounds_by_phase)

    @property
    def total_bit_rounds(self):
        """Bit-rounds summed over all phases."""
        return sum(self.bit_rounds_by_phase.values())

    @property
    def rounds(self):
        """Communication rounds summed over phases (the result protocol)."""
        return sum(self.rounds_by_phase.values())

    @property
    def num_colors(self):
        """Distinct colors used (at most Delta + 1)."""
        return len(set(self.colors))

    def to_dict(self):
        """JSON-serializable summary."""
        return {
            "colors": list(self.colors),
            "num_colors": self.num_colors,
            "rounds_by_phase": dict(self.rounds_by_phase),
            "bit_rounds_by_phase": dict(self.bit_rounds_by_phase),
            "rounds": self.rounds,
            "total_bit_rounds": self.total_bit_rounds,
        }

    def __repr__(self):
        return "VertexBitProtocolRun(colors=%d, bit_rounds=%d)" % (
            self.num_colors,
            self.total_bit_rounds,
        )


Result.register(VertexBitProtocolRun)


def run_vertex_coloring_bit_protocol(graph, backend="auto"):
    """Execute Linial -> AG -> standard reduction over bit channels.

    ``backend`` picks the execution tier.  The reference tier pushes every
    bit through a real :class:`BitChannelNetwork` and asserts per-neighbor
    replica consistency after every round; the batch tier runs the identical
    update rules as array kernels and computes each phase's bit-round count
    from the channel's closed form (``drain()`` returns the longest pending
    queue, i.e. the widest message any direction carries that round).  Both
    tiers return bit-identical colors, round counts, and ledgers.
    """
    if backend != "reference" and hasattr(graph, "csr"):
        return _batch(graph)
    return _reference(graph)


def _batch(graph):
    """Array-kernel tier: same rules, ledgers from the drain closed form."""
    from repro.runtime.engine import Visibility

    n = graph.n
    if n == 0:
        return VertexBitProtocolRun([], {}, {})
    delta = graph.max_degree
    csr = graph.csr()
    has_edges = csr.indices.shape[0] > 0
    colors = np.arange(n, dtype=np.int64)
    palette = max(2, n)
    rounds = {}
    bit_rounds = {}

    # -- Phase 1: Linial (one palette-width broadcast per iteration) -----------
    linial = LinialColoring()
    linial.configure(NetworkInfo(n, delta, palette))
    linial_bits = 0
    for index, iteration in enumerate(linial.plan):
        if has_edges:
            linial_bits += _bits(palette)
        colors = linial_round_batch(
            linial, index, colors, csr, Visibility.LOCAL,
            iteration.q, iteration.degree,
        )
        palette = iteration.out_palette
    rounds["linial"] = len(linial.plan)
    bit_rounds["linial"] = linial_bits

    # -- Phase 2: AG (one pair broadcast, then one bit per round) --------------
    ag = AdditiveGroupColoring()
    ag.configure(NetworkInfo(n, delta, palette))
    q = ag.q
    ag_bits = _bits(palette) if has_edges else 0
    a = colors // q
    b = colors % q
    ag_rounds = 0
    while bool((a != 0).any()):
        conflict = csr.any_per_vertex(csr.gather(b) == csr.owner_values(b))
        rotated = conflict & (a != 0)
        b = np.where(rotated, (b + a) % q, b)
        a = np.where(rotated, a, 0)
        if has_edges:
            ag_bits += 1
        ag_rounds += 1
    colors = b
    palette = q
    rounds["additive-group"] = ag_rounds
    bit_rounds["additive-group"] = ag_bits

    # -- Phase 3: standard reduction (flag bit + value when anyone acts) -------
    reduction = StandardColorReduction()
    reduction.configure(NetworkInfo(n, delta, palette))
    target = reduction.target
    width = _bits(palette)
    red_rounds = 0
    red_bits = 0
    deg_pos = csr.degrees > 0
    state = (colors,)
    for t in range(max(0, palette - target)):
        acting = palette - 1 - t
        if bool(((state[0] == acting) & deg_pos).any()):
            red_bits += 1 + width
        elif has_edges:
            red_bits += 1
        state = reduction.step_batch(t, state, csr, Visibility.LOCAL)
        red_rounds += 1
    rounds["standard-reduction"] = red_rounds
    bit_rounds["standard-reduction"] = red_bits

    return VertexBitProtocolRun(state[0].tolist(), rounds, bit_rounds)


def _reference(graph):
    """Channel-level tier: every bit really crosses a FIFO edge channel."""
    n = graph.n
    if n == 0:
        return VertexBitProtocolRun([], {}, {})
    delta = graph.max_degree
    network = BitChannelNetwork(graph)
    colors = list(range(n))
    palette = max(2, n)
    # replicas[(v, u)] = v's belief about u's current color.
    replicas = {}
    rounds = {}
    bit_rounds = {}

    def broadcast_colors(width):
        for v in graph.vertices():
            network.broadcast(v, encode_int(colors[v], width))
        used = network.drain()
        for v in graph.vertices():
            for u in graph.neighbors(v):
                replicas[(v, u)] = decode_int(network.receive(v, u, width))
        return used

    def assert_replicas():
        for v in graph.vertices():
            for u in graph.neighbors(v):
                assert replicas[(v, u)] == colors[u], (v, u)

    # -- Phase 1: Linial -----------------------------------------------------------
    linial = LinialColoring()
    linial.configure(NetworkInfo(n, delta, palette))
    linial_bits = 0
    for iteration in linial.plan:
        linial_bits += broadcast_colors(_bits(palette))
        assert_replicas()
        colors = [
            linial_next_color(
                colors[v],
                [replicas[(v, u)] for u in graph.neighbors(v)],
                iteration.q,
                iteration.degree,
            )
            for v in graph.vertices()
        ]
        palette = iteration.out_palette
    rounds["linial"] = len(linial.plan)
    bit_rounds["linial"] = linial_bits

    # -- Phase 2: AG with 1-bit rounds -----------------------------------------------
    ag = AdditiveGroupColoring()
    ag.configure(NetworkInfo(n, delta, palette))
    q = ag.q
    pair_bits = broadcast_colors(_bits(palette))
    assert_replicas()
    pairs = [(c // q, c % q) for c in colors]
    pair_replicas = {
        key: (c // q, c % q) for key, c in replicas.items()
    }
    ag_rounds = 0
    ag_bits = pair_bits
    while any(a != 0 for a, _ in pairs):
        decisions = []
        for v in graph.vertices():
            a, b = pairs[v]
            conflict = any(
                pair_replicas[(v, u)][1] == b for u in graph.neighbors(v)
            )
            rotated = conflict and a != 0
            decisions.append(rotated)
            network.broadcast(v, "1" if rotated else "0")
        ag_bits += network.drain()
        ag_rounds += 1
        for v in graph.vertices():
            a, b = pairs[v]
            pairs[v] = (a, (b + a) % q) if decisions[v] else (0, b)
        for v in graph.vertices():
            for u in graph.neighbors(v):
                bit = network.receive(v, u, 1)
                ra, rb = pair_replicas[(v, u)]
                pair_replicas[(v, u)] = (
                    (ra, (rb + ra) % q) if bit == "1" else (0, rb)
                )
        for v in graph.vertices():
            for u in graph.neighbors(v):
                assert pair_replicas[(v, u)] == pairs[u], (v, u)
    colors = [b for _, b in pairs]
    replicas = {key: rb for key, (_, rb) in pair_replicas.items()}
    palette = q
    rounds["additive-group"] = ag_rounds
    bit_rounds["additive-group"] = ag_bits

    # -- Phase 3: standard reduction --------------------------------------------------
    reduction = StandardColorReduction()
    reduction.configure(NetworkInfo(n, delta, palette))
    target = reduction.target
    width = _bits(palette)
    red_rounds = 0
    red_bits = 0
    for t in range(max(0, palette - target)):
        acting = palette - 1 - t
        new_colors = list(colors)
        for v in graph.vertices():
            if colors[v] == acting and colors[v] >= target:
                taken = {replicas[(v, u)] for u in graph.neighbors(v)}
                pick = 0
                while pick in taken:
                    pick += 1
                new_colors[v] = pick
                network.broadcast(v, "1" + encode_int(pick, width))
            else:
                network.broadcast(v, "0")
        red_bits += network.drain()
        red_rounds += 1
        colors = new_colors
        for v in graph.vertices():
            for u in graph.neighbors(v):
                flag = network.receive(v, u, 1)
                if flag == "1":
                    replicas[(v, u)] = decode_int(network.receive(v, u, width))
        assert_replicas()
    rounds["standard-reduction"] = red_rounds
    bit_rounds["standard-reduction"] = red_bits

    return VertexBitProtocolRun(colors, rounds, bit_rounds)
