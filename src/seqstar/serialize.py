"""JSON encoding of points, basic sets, embeddings, and dyadic values.

Every document emitted by the command-line layer round-trips through these
functions; basic sets and embeddings, which it only reads, are only
parsed.  Parse failures raise ParseError with a message naming the field.
"""
from __future__ import annotations

import json
from typing import Any

from .metric import Dyadic
from .sequences import (
    AugmentedPoint,
    FinitePoint,
    PeriodicPoint,
    Point,
    Seq,
)
from . import embeddings as emb, topology as top  # module references: parsing a point loads neither


class ParseError(Exception):
    pass


def _seq(obj: Any, field: str) -> Seq:
    if not isinstance(obj, list) or not all(isinstance(x, int) and x >= 0 for x in obj):
        raise ParseError(f"{field} must be a list of nonnegative integers")
    return tuple(obj)


def json_arg(text: str | None, what: str) -> Any:
    """The JSON document of the command-line value text, given for what."""
    if text is None:
        raise ParseError(f"{what} is required")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON for {what}: {e}") from e


def seq_arg(text: str | None, what: str) -> Seq:
    return _seq(json_arg(text, what), what)


def point_to_json(p: Point) -> dict:
    if isinstance(p, FinitePoint):
        return {"kind": "finite", "seq": list(p.seq)}
    if isinstance(p, AugmentedPoint):
        return {"kind": "augmented", "seq": list(p.seq)}
    if isinstance(p, PeriodicPoint):
        return {"kind": "periodic", "head": list(p.head), "period": list(p.period)}
    raise ParseError(f"point {p!r} has no finite presentation")


def point_from_json(obj: Any) -> Point:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("point must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "finite":
        return FinitePoint(_seq(obj.get("seq"), "seq"))
    if kind == "augmented":
        return AugmentedPoint(_seq(obj.get("seq"), "seq"))
    if kind == "periodic":
        period = _seq(obj.get("period"), "period")
        if not period:
            raise ParseError("period must be nonempty")
        return PeriodicPoint(_seq(obj.get("head", []), "head"), period)
    raise ParseError(f"unknown point kind {kind!r}")


def basic_from_json(obj: Any) -> top.BasicClopen:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("basic set must be an object with a 'kind' field")
    kind = obj["kind"]
    t = _seq(obj.get("t"), "t")
    if kind == "singleton":
        return top.Singleton(t)
    if kind == "cone":
        return top.Cone(t)
    if kind == "cone_minus":
        i = obj.get("i")
        if not isinstance(i, int) or i < 0:
            raise ParseError("cone_minus needs a nonnegative integer 'i'")
        return top.ConeMinus(t, i)
    raise ParseError(f"unknown basic set kind {kind!r}")


def node_key(t: Seq) -> str:
    return ",".join(str(x) for x in t)


def node_from_key(key: str) -> Seq:
    if key == "":
        return ()
    try:
        return tuple(int(x) for x in key.split(","))
    except ValueError as e:
        raise ParseError(f"bad node key {key!r}") from e


def table_to_json(table: dict[Seq, Seq]) -> dict:
    return {node_key(t): list(img) for t, img in sorted(table.items())}


def table_from_json(obj: Any) -> dict[Seq, Seq]:
    if not isinstance(obj, dict):
        raise ParseError("embedding table must be an object")
    return {node_from_key(k): _seq(v, f"table[{k}]") for k, v in obj.items()}


def embedding_from_json(obj: Any) -> emb.MeetEmbedding:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("embedding must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "prefix":
        return emb.MeetEmbedding.prefix(_seq(obj.get("s"), "s"))
    if kind == "identity":
        return emb.MeetEmbedding.identity()
    if kind == "table":
        table: dict[Seq, Seq] = {(): _seq(obj.get("root", []), "root")}
        entries = obj.get("entries", [])
        if not isinstance(entries, list):
            raise ParseError("table entries must be a list")
        for e in entries:
            if not (isinstance(e, list) and len(e) == 3):
                raise ParseError("table entry must be [t, i, image]")
            t, i, img = e
            if not isinstance(i, int) or i < 0:
                raise ParseError("table entry child index must be a nonnegative integer")
            table[_seq(t, "entry node") + (i,)] = _seq(img, "entry image")
        return emb.MeetEmbedding.from_table(table)
    raise ParseError(f"unknown embedding kind {kind!r}")


def dyadic_from_json(obj: Any) -> Dyadic:
    if not isinstance(obj, str):
        raise ParseError("dyadic must be a string")
    try:
        return Dyadic.parse(obj)
    except ValueError as e:
        raise ParseError(str(e)) from e


def value_to_json(v: Any) -> dict:
    if isinstance(v, Dyadic):
        return {"kind": "dyadic", "value": str(v)}
    if isinstance(v, Point):
        out = point_to_json(v)
        return {"kind": "point", "point": out}
    raise ParseError(f"unserializable value {v!r}")


def value_from_json(obj: Any) -> Any:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("value must be an object with a 'kind' field")
    if obj["kind"] == "dyadic":
        return dyadic_from_json(obj.get("value"))
    if obj["kind"] == "point":
        return point_from_json(obj.get("point"))
    raise ParseError(f"unknown value kind {obj['kind']!r}")
