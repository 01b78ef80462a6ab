"""Score-set realization and verification for oriented bipartite graphs.

The oracle's names are imported from ``scoresets.oracle`` on first
access, so importing the package imports no numpy.
"""

from .graph_core import (
    DEFAULT_BUDGET,
    ArcState,
    BipartiteOrientedGraph,
    BudgetExceededError,
    ScoreSequencePair,
    ScoreSet,
)
from .criteria import (
    Violation,
    check_bipartite_pair,
    check_oriented_scores,
)
from .constructions import (
    Block,
    Family,
    Realization,
    RealizationError,
    UnsupportedScoreSetError,
    build,
    classify,
    realize,
)

__version__ = "0.1.0"

__all__ = [
    "ArcState",
    "BipartiteOrientedGraph",
    "Block",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "EnumerationSpace",
    "EquivalenceReport",
    "Family",
    "RealizabilityCatalog",
    "Realization",
    "RealizationError",
    "ScoreSequencePair",
    "ScoreSet",
    "UnsupportedScoreSetError",
    "Violation",
    "Witness",
    "bounded_search",
    "build",
    "catalog_for_shape",
    "check_bipartite_pair",
    "check_oriented_scores",
    "classify",
    "criterion_equivalence",
    "realizable_sets_up_to",
    "realize",
]


def __getattr__(name: str):
    if name in __all__:  # the names bound in this module never get here
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
