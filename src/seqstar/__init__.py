"""Exact computation over the compactified sequence space.

Points, an exact dyadic ultrametric, the clopen basis, meet-preserving
tree embeddings, oracle-driven construction operations with replayable
trace certificates, and a small catalog of reference functions.
"""

from .sequences import (
    AugmentedPoint,
    BudgetExceeded,
    DepthBudget,
    DomainMismatch,
    FinitePoint,
    InfinitePoint,
    PeriodicPoint,
    Point,
    Prefix,
    canonical_enumeration,
    canonical_index,
    is_prefix,
    meet,
    nodes_in_range,
    restrict,
    split_index,
    weight,
)
from .metric import Bounded, Dyadic, EpsilonSchedule, Exact, ball_member, distance, weight_schedule
from .topology import (
    BasicClopen,
    Cone,
    ConeMinus,
    Counterexample,
    Covers,
    Singleton,
    basic_member,
    cover_decide,
    covers_cone,
    neighborhood_of,
    representatives,
    uncovered_descent,
)
from .embeddings import (
    Agrees,
    ContainmentError,
    Disagrees,
    EmbeddingFamily,
    Empty,
    InvalidEmbedding,
    MeetEmbedding,
    Valid,
    Violation,
    amalgamate,
    extend,
    meet_preservation_oracle,
    preimage_cone,
    validate,
)
from .constructions import (
    PartialEmbedding,
    SpaceFunction,
    TreeSetOracle,
    classify_baire_function,
    compose_function,
)
from .trace import RecheckReport, recheck

__all__ = [name for name in dir() if not name.startswith("_")]
