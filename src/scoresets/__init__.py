"""Score-set realization and verification for oriented bipartite graphs."""

from .graph_core import (
    ArcState,
    BipartiteOrientedGraph,
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
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    EnumerationSpace,
    EquivalenceReport,
    RealizabilityCatalog,
    Witness,
    bounded_search,
    catalog_for_shape,
    criterion_equivalence,
    realizable_sets_up_to,
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
