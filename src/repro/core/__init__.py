"""The paper's primary contribution: the Additive-Group coloring family.

* :mod:`repro.core.ag` — the Additive-Group (AG) algorithm of Section 3:
  ``Theta(Delta^2)`` colors down to ``O(Delta)`` in ``O(Delta)`` rounds,
  locally-iterative, proper every round, one uniform step.
* :mod:`repro.core.ag3` — the 3-dimensional variant 3AG of Section 7
  (``p^3 -> p`` colors in ``O(p)`` rounds, still one uniform step).
* :mod:`repro.core.agn` — AG over the additive group ``Z_{Delta+1}``
  (not necessarily a field), turning a ``<= 2(Delta+1)``-coloring into an
  exact (Delta+1)-coloring.
* :mod:`repro.core.hybrid` — the high/low-color hybrid of Section 7 that
  reaches exactly ``Delta + 1`` colors without the standard color reduction.
* :mod:`repro.core.arbdefective` — ArbAG (Section 6): the conflict-tolerant
  variant computing ``O(p)``-arbdefective ``O(Delta/p)``-colorings.
* :mod:`repro.core.reductions` — the classical standard color reduction.
* :mod:`repro.recipes` (re-exported here) — ready-made end-to-end
  colorings (Corollary 3.6, Section 7 exact, Theorem 6.4 sublinear).
"""

from repro.core.ag import AdditiveGroupColoring
from repro.core.ag3 import ThreeDimensionalAG
from repro.core.agn import AdditiveGroupZN
from repro.core.hybrid import ExactDeltaPlusOneHybrid
from repro.core.arbdefective import ArbAGColoring
from repro.core.reductions import StandardColorReduction

_RECIPES = (
    "delta_plus_one_coloring",
    "delta_plus_one_exact_no_reduction",
    "one_plus_eps_delta_coloring",
    "sublinear_delta_plus_one_coloring",
)


def __getattr__(name):
    # Resolved on first use: repro.recipes imports this package's stage
    # modules, so an eager import here would be circular.
    if name in _RECIPES:
        from repro import recipes

        return getattr(recipes, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "AdditiveGroupColoring",
    "ThreeDimensionalAG",
    "AdditiveGroupZN",
    "ExactDeltaPlusOneHybrid",
    "ArbAGColoring",
    "StandardColorReduction",
    "delta_plus_one_coloring",
    "delta_plus_one_exact_no_reduction",
    "one_plus_eps_delta_coloring",
    "sublinear_delta_plus_one_coloring",
]
