"""Built-in tree-set oracles and space functions, addressable by name.

The command-line layer only accepts oracles from this registry so that
every emitted trace can be re-verified offline: the trace stores the name,
the recheck run looks the same object up again.
"""
from __future__ import annotations

from typing import Callable

from .constructions import SpaceFunction, TreeFamily, TreeSetOracle, compose_function
from .embeddings import MeetEmbedding, extend
from .metric import Dyadic, Exact, distance
from .sequences import (
    AugmentedPoint,
    DomainMismatch,
    FinitePoint,
    InfinitePoint,
    PeriodicPoint,
    Point,
    Seq,
    Undetermined,
    canonical_index,
    split_index,
    weight,
)
from .serialize import ParseError, table_from_json

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
        lambda t, _n=n: len(t) >= _n,
        dense_extension=lambda r, _n=n: r + (0,) * max(0, _n - len(r)),
    )


def _levels_ends_in_zero(n: int) -> TreeSetOracle:
    return TreeSetOracle(
        f"ends-in-zero-level:{n}",
        lambda t, _n=n: len(t) >= max(_n, 1) and t[-1] == 0,
        dense_extension=lambda r, _n=n: r + (0,) * max(1, _n - len(r)),
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


def _dy(n: int) -> Dyadic:
    return Dyadic(n)


def _check_kind(a, b, kind: type) -> None:
    if not (isinstance(a, kind) and isinstance(b, kind)):
        raise DomainMismatch(f"value distance needs two {kind.__name__} values, "
                             f"got {a!r} and {b!r}")


def _abs_diff(a: Dyadic, b: Dyadic) -> Dyadic:
    if a.__class__ is not Dyadic or b.__class__ is not Dyadic:
        _check_kind(a, b, Dyadic)
    return a.abs_diff(b)


def _split_metric(a: Point, b: Point) -> Dyadic:
    """The classical first-difference ultrametric 2^-(meet length)."""
    _check_kind(a, b, Point)
    if a == b:
        return Dyadic.zero()
    i = split_index(a, b)
    if isinstance(i, Undetermined):
        return Dyadic(1, i.depth)
    return Dyadic(1, i - 1)


def _module_metric(a: Point, b: Point) -> Dyadic:
    _check_kind(a, b, Point)
    d = distance(a, b)
    return d.value if isinstance(d, Exact) else d.upper


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
        return Dyadic(1, len(p.seq))
    if isinstance(p, InfinitePoint):
        return Dyadic.zero()
    raise DomainMismatch("depth-collapse is defined on infinite and augmented points")


_PREFIX0 = MeetEmbedding.prefix((0,))

FUNCTIONS: dict[str, SpaceFunction] = {
    "const-zero": _rational("const-zero", lambda t: Dyadic.zero(),
                            cone_diameter=lambda t: Dyadic.zero()),
    "entry-sum": _rational("entry-sum", lambda t: _dy(sum(t))),
    "last-entry": _rational("last-entry", lambda t: _dy(t[-1] if t else 0)),
    "length": _rational("length", lambda t: _dy(len(t))),
    "two-pow-last": _rational("two-pow-last", lambda t: Dyadic(1, t[-1] if t else 0)),
    "two-pow-weight": _rational("two-pow-weight", lambda t: Dyadic(1, weight(t))),
    "enum-index": _rational("enum-index", lambda t: _dy(canonical_index(t))),
    "first-entry": _rational(
        "first-entry", lambda t: _dy(t[0] if t else 0),
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
        cone_diameter=lambda t: Dyadic(1, len(t)),
    ),
    "compactify-identity": SpaceFunction(
        name="compactify-identity",
        evaluate=lambda p: p,
        value_distance=_module_metric,
        cone_diameter=lambda t: Dyadic(1, weight(t) + 1),
    ),
    "prefix-embed": SpaceFunction(
        name="prefix-embed",
        evaluate=lambda p: extend(_PREFIX0, p),
        value_distance=_module_metric,
        cone_diameter=lambda t: Dyadic(1, weight(t) + 2),
    ),
    "half-eps-diam": _rational(
        "half-eps-diam", lambda t: Dyadic.zero(),
        cone_diameter=lambda t: Dyadic(1, weight(t) + 1)),
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
