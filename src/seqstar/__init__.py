"""Exact computation over the compactified sequence space.

Points, an exact dyadic ultrametric, the clopen basis, meet-preserving
tree embeddings, oracle-driven construction operations with replayable
trace certificates, and a small catalog of reference functions.

Importing the package runs no submodule's code.  Every submodule but `cli`
is registered in `sys.modules` at once, and compiled and run on the first
access to one of its attributes, so that a command-line call pays only for
the modules its subcommand uses.
"""

import importlib.util
import sys

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "sequences": (
        "AugmentedPoint", "BudgetExceeded", "DepthBudget", "DomainMismatch", "FinitePoint",
        "InfinitePoint", "PeriodicPoint", "Point", "Prefix", "canonical_enumeration",
        "canonical_index", "is_prefix", "meet", "nodes_in_range", "restrict", "split_index",
        "weight",
    ),
    "metric": (
        "Bounded", "Dyadic", "EpsilonSchedule", "Exact", "ball_member", "distance",
        "weight_schedule",
    ),
    "topology": (
        "BasicClopen", "Cone", "ConeMinus", "Counterexample", "Covers", "Singleton",
        "basic_member", "cover_decide", "covers_cone", "neighborhood_of", "representatives",
        "uncovered_descent",
    ),
    "embeddings": (
        "Agrees", "ContainmentError", "Disagrees", "EmbeddingFamily", "Empty",
        "InvalidEmbedding", "MeetEmbedding", "Valid", "Violation", "amalgamate", "extend",
        "meet_preservation_oracle", "preimage_cone", "validate",
    ),
    "serialize": (),
    "constructions": ("PartialEmbedding", "classify_baire_function"),
    "trace": ("RecheckReport", "recheck"),
    "registry": ("SpaceFunction", "TreeSetOracle", "compose_function"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# registry, like catalog, is a submodule that __all__ does not name
__all__ = sorted([*_EXPORTS.keys() - {"registry"}, *_HOME])


def _register_lazily(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in (*_EXPORTS, "catalog"):
    _register_lazily(_name)
del _name


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_HOME])
