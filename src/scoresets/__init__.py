"""Score-set realization and verification for oriented bipartite graphs."""

from .graph_core import (
    ArcState,
    BipartiteOrientedGraph,
    Block,
    ScoreSequencePair,
    ScoreSet,
)
from .criteria import (
    CriterionVerdict,
    Violation,
    check_bipartite_pair,
    check_oriented_scores,
)
from .constructions import (
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
    space_size,
)

__version__ = "0.1.0"

__all__ = [
    "ArcState",
    "BipartiteOrientedGraph",
    "Block",
    "BudgetExceededError",
    "CriterionVerdict",
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
    "space_size",
]
