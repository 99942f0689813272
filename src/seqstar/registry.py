"""Built-in oracles addressable by name, the value types that carry them,
and the contract of every construction op.

The command-line layer only accepts oracles from this registry so that
every emitted trace can be re-verified offline: the trace stores the name,
the recheck run looks the same object up again.  OPS holds, per op, what
the command line and recheck know of it.  Nothing here runs the
constructions' code until an op is run, so recheck never loads it.
"""
from __future__ import annotations

from typing import Any, Callable

from . import constructions as con  # a module reference: only running an op loads it
from .embeddings import MeetEmbedding, extend
from .metric import Dyadic
from .sequences import (
    AugmentedPoint,
    BudgetExceeded,
    DomainMismatch,
    FinitePoint,
    Frozen,
    InfinitePoint,
    PeriodicPoint,
    Point,
    Record,
    Seq,
    Undetermined,
    canonical_index,
    split_and_weight,
    weight,
)
from .serialize import ParseError, dyadic_from_json, seq_arg, table_from_json, table_to_json


class TreeSetOracle(Record):
    """A set of tree nodes given by a pure membership test, optionally with
    a density hint mapping each node to an extension inside the set."""

    __slots__ = ("name", "member", "dense_extension")

    def __init__(self, name: str, member: Callable[[Seq], bool],
                 dense_extension: Callable[[Seq], Seq] | None = None):
        super().__init__(name, member, dense_extension)


class TreeFamily(Frozen):
    """Tree sets indexed by level, under the name a trace records."""

    __slots__ = ("name", "level")

    def __call__(self, n: int) -> TreeSetOracle:
        return self.level(n)


class SpaceFunction(Record):
    """A function into a metric space, presented through oracles.

    Its values are Dyadic or Point; value_distance owns their equality.
    evaluate must be pure: constructions evaluate only the points their
    scans read, and recheck builds each function once.  cone_diameter(t)
    upper-bounds the diameter of the image of the cone at t and must be
    monotone along prefixes.  Where a construction probes the values on
    the cone at t, it samples the point PeriodicPoint(t, (0,)), t followed
    by zeros, which stays finitely presented in every trace.
    """

    __slots__ = ("name", "evaluate", "value_distance", "cone_diameter", "spec")

    def __init__(
        self,
        name: str,
        evaluate: Callable[[Point], Any],
        value_distance: Callable[[Any, Any], Dyadic],
        cone_diameter: Callable[[Seq], Dyadic] | None = None,
        spec: dict | None = None,
    ):
        super().__init__(name, evaluate, value_distance, cone_diameter,
                         {"name": name} if spec is None else spec)


def compose_function(phi: SpaceFunction, table: dict[Seq, Seq]) -> SpaceFunction:
    """phi after the continuous extension of the table embedding."""
    pi = MeetEmbedding.from_table(table)
    return SpaceFunction(
        name=f"{phi.name}∘table",
        evaluate=lambda p: phi.evaluate(extend(pi, p)),
        value_distance=phi.value_distance,
        cone_diameter=(None if phi.cone_diameter is None
                       else lambda t: phi.cone_diameter(pi.apply(t))),
        spec={"base": phi.spec, "precompose": table_to_json(table)},
    )


TREE_SETS: dict[str, TreeSetOracle] = {
    "all": TreeSetOracle("all", lambda t: True),
    "even-sum": TreeSetOracle("even-sum", lambda t: sum(t) % 2 == 0),
    "short": TreeSetOracle("short", lambda t: len(t) <= 1),
}


def _levels_all(n: int) -> TreeSetOracle:
    return TREE_SETS["all"]


def _levels_length(n: int) -> TreeSetOracle:
    return TreeSetOracle(
        f"length-at-least:{n}",
        lambda t: len(t) >= n,
        dense_extension=lambda r: r + (0,) * max(0, n - len(r)),
    )


def _levels_ends_in_zero(n: int) -> TreeSetOracle:
    return TreeSetOracle(
        f"ends-in-zero-level:{n}",
        lambda t: len(t) >= max(n, 1) and t[-1] == 0,
        dense_extension=lambda r: r + (0,) * max(1, n - len(r)),
    )


TREE_FAMILIES: dict[str, Callable[[int], TreeSetOracle]] = {
    "all-levels": _levels_all,
    "length-at-least": _levels_length,
    "ends-in-zero-level": _levels_ends_in_zero,
}


def _finite_part(p: Point) -> Seq:
    if isinstance(p, (FinitePoint, AugmentedPoint)):
        return p.seq
    if isinstance(p, PeriodicPoint) and p.period == (0,):
        return p.head
    raise DomainMismatch(f"no finite entry support for {p!r}")


def _check_kind(a, b, kind: type) -> None:
    if not (isinstance(a, kind) and isinstance(b, kind)):
        raise DomainMismatch(f"value distance needs two {kind.__name__} values, "
                             f"got {a!r} and {b!r}")


def _abs_diff(a: Dyadic, b: Dyadic) -> Dyadic:
    if a.__class__ is not Dyadic or b.__class__ is not Dyadic:
        _check_kind(a, b, Dyadic)
    return a.abs_diff(b)


_POINT_CLASSES = {FinitePoint, AugmentedPoint, PeriodicPoint, InfinitePoint}


def _split(a: Point, b: Point) -> tuple[int, int] | None:
    """split_and_weight of two point values, None when they are equal.  The
    points are compared only where the walk leaves them undetermined, and a
    lazy point against itself is not read.  Two other points that agree as
    far as a lazy one may be read have no distance to read."""
    if a.__class__ not in _POINT_CLASSES or b.__class__ not in _POINT_CLASSES:
        _check_kind(a, b, Point)
    if a is b:
        return None
    s = split_and_weight(a, b)
    if s.__class__ is Undetermined:
        if a == b:
            return None
        raise BudgetExceeded(f"value distance undetermined: the points agree to depth {s.depth}")
    return s


def _split_metric(a: Point, b: Point) -> Dyadic:
    """The classical first-difference ultrametric 2^-(meet length)."""
    s = _split(a, b)
    return Dyadic.zero() if s is None else Dyadic.pow2(1 - s[0])


def _module_metric(a: Point, b: Point) -> Dyadic:
    """The ultrametric of the compactified space, as metric.distance reads it."""
    s = _split(a, b)
    return Dyadic.zero() if s is None else Dyadic.pow2(-s[1])


def _rational(name: str, of_seq: Callable[[Seq], Dyadic],
              cone_diameter: Callable[[Seq], Dyadic] | None = None) -> SpaceFunction:
    return SpaceFunction(
        name=name,
        evaluate=lambda p: of_seq(_finite_part(p)),
        value_distance=_abs_diff,
        cone_diameter=cone_diameter,
    )


def _zero_one_split(p: Point) -> Dyadic:
    if isinstance(p, AugmentedPoint):
        return Dyadic.one()
    if isinstance(p, InfinitePoint):
        return Dyadic.zero()
    raise DomainMismatch("zero-one-split is defined on infinite and augmented points")


def _depth_collapse(p: Point) -> Dyadic:
    if isinstance(p, AugmentedPoint):
        return Dyadic.pow2(-len(p.seq))
    if isinstance(p, InfinitePoint):
        return Dyadic.zero()
    raise DomainMismatch("depth-collapse is defined on infinite and augmented points")


_PREFIX0 = MeetEmbedding.prefix((0,))

FUNCTIONS: dict[str, SpaceFunction] = {
    "const-zero": _rational("const-zero", lambda t: Dyadic.zero(),
                            cone_diameter=lambda t: Dyadic.zero()),
    "entry-sum": _rational("entry-sum", lambda t: Dyadic(sum(t))),
    "last-entry": _rational("last-entry", lambda t: Dyadic(t[-1] if t else 0)),
    "length": _rational("length", lambda t: Dyadic(len(t))),
    "two-pow-last": _rational("two-pow-last", lambda t: Dyadic.pow2(-t[-1] if t else 0)),
    "two-pow-weight": _rational("two-pow-weight", lambda t: Dyadic.pow2(-weight(t))),
    "enum-index": _rational("enum-index", lambda t: Dyadic(canonical_index(t))),
    "first-entry": _rational(
        "first-entry", lambda t: Dyadic(t[0] if t else 0),
        cone_diameter=lambda t: Dyadic.one() if not t else Dyadic.zero()),
    # cone_diameter bounds the spread over the infinite part of the cone,
    # which both of these collapse to the single value 0.
    "zero-one-split": SpaceFunction(
        name="zero-one-split",
        evaluate=_zero_one_split,
        value_distance=_abs_diff,
        cone_diameter=lambda t: Dyadic.zero(),
    ),
    "depth-collapse": SpaceFunction(
        name="depth-collapse",
        evaluate=_depth_collapse,
        value_distance=_abs_diff,
        cone_diameter=lambda t: Dyadic.zero(),
    ),
    "baire-identity": SpaceFunction(
        name="baire-identity",
        evaluate=lambda p: p,
        value_distance=_split_metric,
        cone_diameter=lambda t: Dyadic.pow2(-len(t)),
    ),
    "compactify-identity": SpaceFunction(
        name="compactify-identity",
        evaluate=lambda p: p,
        value_distance=_module_metric,
        cone_diameter=lambda t: Dyadic.pow2(-1 - weight(t)),
    ),
    "prefix-embed": SpaceFunction(
        name="prefix-embed",
        evaluate=lambda p: extend(_PREFIX0, p),
        value_distance=_module_metric,
        cone_diameter=lambda t: Dyadic.pow2(-2 - weight(t)),
    ),
    "half-eps-diam": _rational(
        "half-eps-diam", lambda t: Dyadic.zero(),
        cone_diameter=lambda t: Dyadic.pow2(-1 - weight(t))),
}


def _lookup(table: dict, name, what: str):
    if not isinstance(name, str) or name not in table:
        raise ParseError(f"unknown {what} {name!r}; known: {sorted(table)}")
    return table[name]


def tree_set(name: str) -> TreeSetOracle:
    return _lookup(TREE_SETS, name, "tree set")


def tree_family(name: str) -> TreeFamily:
    return TreeFamily(name, _lookup(TREE_FAMILIES, name, "tree family"))


def space_function(name: str) -> SpaceFunction:
    return _lookup(FUNCTIONS, name, "function")


def build_function(spec: dict) -> SpaceFunction:
    """Reconstruct a (possibly table-precomposed) function from a trace spec."""
    if not isinstance(spec, dict):
        raise ParseError("function spec must be an object")
    if "name" in spec:
        return space_function(spec["name"])
    if "base" in spec:
        base = build_function(spec["base"])
        return compose_function(base, table_from_json(spec.get("precompose", {})))
    raise ParseError(f"malformed function spec {spec!r}")


# --- the op contract ------------------------------------------------------

# The shape classify_baire_function reports when every child verdict is of one kind.
SHAPE_OF_VERDICT = {"Convergent": "EmbedsIntoBaireStar", "Discrete": "EmbedsIntoBaire"}


class Op(Record):
    """One construction op.  cli is its command-line name (None where the
    command line does not run it); oracle is the flag naming its registry
    oracle and the lookup of that name; kinds are the certificate kinds its
    traces may carry; run(oracle, args, depth, branch, budget) calls the op
    as the command line does, args holding the parsed flags; flags are the
    flags run reads beyond the oracle's and the budget's; stages are the ops
    of the stages it rests on, in order (None: no stages)."""

    __slots__ = ("cli", "oracle", "kinds", "run", "flags", "stages")

    def __init__(self, cli: str | None, oracle: tuple, kinds: str, run=None, flags="", stages=None):
        super().__init__(cli, oracle, {"valid_table", *kinds.split()}, run, flags.split(), stages)


def _root(args) -> Seq:
    return seq_arg(args.root, "--root")


_SET, _FAMILY, _FN = ("set", tree_set), ("family", tree_family), ("fn", space_function)

# Keyed by the op a trace records, which is also the name of the function in
# seqstar.constructions that runs it; run looks that function up at call time.
OPS = {
    "ramsey_split": Op("ramsey", _SET, "in_set", lambda o, a, *r: con.ramsey_split(o, *r)[1]),
    "category_refine": Op("category", _FAMILY, "in_set",
                          lambda o, a, *r: con.category_refine(o, _root(a), *r), "--root"),
    "continuity_refine": Op("continuity", _FAMILY, "in_set",
                            lambda o, a, *r: con.continuity_refine(o, _root(a), *r), "--root"),
    "diameter_shrink": Op("shrink", _FN, "diam_lt",
                          lambda o, a, *r: con.diameter_shrink(o, None, *r)),
    "children_stabilize": Op("stabilize", _FN, "value_dist_le value_dist_ge", lambda o, a, *r:
                             con.children_stabilize(o, a.selector_budget, *r)[0],
                             "--selector-budget"),
    "disjointify": Op("disjointify", _FN, "dist_gt_sum", lambda o, a, *r: con.disjointify(o, *r)),
    "limit_refine": Op("limit", _FN, "value_dist_lt value_dist_ge",
                       lambda o, a, *r: con.limit_refine(o, None, *r)[1]),
    "epsilon_discrete_or_ball": Op(
        "eps-split", _FN, "value_dist_lt value_dist_ge", lambda o, a, *r:
        con.epsilon_discrete_or_ball(o, dyadic_from_json(a.eps), _root(a), *r)[1], "--eps --root"),
    "shrink_or_discrete": Op(
        "shrink-or-discrete", _FN, "value_dist_ge cone_value_diam_lt meet_table",
        lambda o, a, *r: con.shrink_or_discrete(o, None, *r)[1]),
    "point_avoid": Op("avoid", _FN, "avoid_value",
                      lambda o, a, *r: con.point_avoid(o, dyadic_from_json(a.x), r[2])[1], "--x"),
    "finite_avoid_or_converge": Op(
        "finite-avoid", _FN, "avoid_value", lambda o, a, *r: con.finite_avoid_or_converge(
            o, [dyadic_from_json(s.strip()) for s in a.values.split(";")], _root(a), *r)[1],
        "--values --root"),
    "discrete_refine": Op("discrete-refine", _FN, "value_dist_lt avoid_pair meet_table",
                          lambda o, a, *r: con.discrete_refine(o, None, *r)[1]),
    "classify_baire_function": Op("classify", _FN, "value_dist_le meet_table",
                                  lambda o, a, *r: con.classify_baire_function(o, *r)[1],
                                  stages=["diameter_shrink", "children_stabilize", "disjointify"]),
    "disjoint_refine": Op(None, _FN, "diam_lt value_dist_le value_dist_ge"),
}
