"""The named spaces, the augmented-point projection, and the explicit
24- and 27-element function catalogs.

Catalog functions are structural descriptors (constants, inclusions,
inclusions after the projection, and their unions) that can be evaluated
on points and compared for structural equality.
"""
from __future__ import annotations

import enum
from typing import Sequence

from . import embeddings as emb  # a module reference: only embed_via loads it
from .sequences import (
    AugmentedPoint,
    DepthBudget,
    DomainMismatch,
    FinitePoint,
    Frozen,
    InfinitePoint,
    PeriodicPoint,
    Point,
    Record,
    Seq,
    set_field,
)


class SpaceTag(enum.Enum):
    Baire = "Baire"
    BaireStar = "BaireStar"
    BaireStarMinusBaire = "BaireStarMinusBaire"
    Tree = "Tree"
    TreeOnePoint = "TreeOnePoint"
    SeqStarMinusBaire = "SeqStarMinusBaire"
    Seq_ = "Seq"
    SeqStar = "SeqStar"
    Singleton = "Singleton"


# Point-set content of each tagged space, as atoms: finite sequences,
# infinite sequences, augmented sequences, and the adjoined point.
_FIN, _INF, _AUG, _INFTY = "fin", "inf", "aug", "infty"

_ATOMS: dict[SpaceTag, frozenset] = {
    SpaceTag.Baire: frozenset({_INF}),
    SpaceTag.BaireStar: frozenset({_INF, _AUG}),
    SpaceTag.BaireStarMinusBaire: frozenset({_AUG}),
    SpaceTag.Tree: frozenset({_FIN}),
    SpaceTag.TreeOnePoint: frozenset({_FIN, _INFTY}),
    SpaceTag.SeqStarMinusBaire: frozenset({_FIN, _AUG}),
    SpaceTag.Seq_: frozenset({_FIN, _INF}),
    SpaceTag.SeqStar: frozenset({_FIN, _INF, _AUG}),
    SpaceTag.Singleton: frozenset({_INFTY}),
}

_P_TARGETS = (SpaceTag.Tree, SpaceTag.TreeOnePoint, SpaceTag.SeqStarMinusBaire,
              SpaceTag.Seq_, SpaceTag.SeqStar)


def space_subset(a: SpaceTag, b: SpaceTag) -> bool:
    return _ATOMS[a] <= _ATOMS[b]


def _point_atom(p: Point) -> str:
    if isinstance(p, FinitePoint):
        return _FIN
    if isinstance(p, AugmentedPoint):
        return _AUG
    if isinstance(p, InfinitePoint):
        return _INF
    raise DomainMismatch(f"unrecognized point {p!r}")


def tag_member(tag: SpaceTag, p: Point) -> bool:
    return _point_atom(p) in _ATOMS[tag]


class _Infinity:
    """The adjoined point; which space it belongs to lives in the tag."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "∞"


INFTY = _Infinity()


class TaggedValue(Frozen):
    __slots__ = ("space", "payload")


class Left(Frozen):
    __slots__ = ("payload",)


class Right(Frozen):
    __slots__ = ("payload",)


class Const(Frozen):
    """Collapse a domain to the adjoined point."""

    __slots__ = ("domain",)


class Inclusion(Frozen):
    __slots__ = ("frm", "into")

    def __init__(self, frm: SpaceTag, into: SpaceTag):
        if not space_subset(frm, into):
            raise ValueError(f"{frm} is not a subset of {into}")
        set_field(self, "frm", frm)
        set_field(self, "into", into)


class InclusionAfterP(Frozen):
    """Project an augmented point to its node, then include into a space
    of sequences."""

    __slots__ = ("into",)

    def __init__(self, into: SpaceTag):
        if into not in _P_TARGETS:
            raise ValueError(f"projection target must be one of {_P_TARGETS}")
        set_field(self, "into", into)


class UnionWithP(Frozen):
    """A function on infinite points glued with the projection on
    augmented points."""

    __slots__ = ("baire_part",)


class DisjointUnion(Frozen):
    __slots__ = ("baire_part", "rest_part")

    def __init__(self, baire_part: "CatalogFunction", rest_part: "CatalogFunction"):
        if domain_of(baire_part) is not SpaceTag.Baire:
            raise ValueError("baire part must have domain Baire")
        if domain_of(rest_part) is not SpaceTag.BaireStarMinusBaire:
            raise ValueError("rest part must have domain BaireStarMinusBaire")
        set_field(self, "baire_part", baire_part)
        set_field(self, "rest_part", rest_part)


CatalogFunction = Const | Inclusion | InclusionAfterP | UnionWithP | DisjointUnion


def domain_of(f: CatalogFunction) -> SpaceTag:
    if isinstance(f, Const):
        return f.domain
    if isinstance(f, Inclusion):
        return f.frm
    if isinstance(f, InclusionAfterP):
        return SpaceTag.BaireStarMinusBaire
    return SpaceTag.BaireStar


def project_p(p: Point) -> Seq:
    """Map an augmented point to its underlying node."""
    if isinstance(p, AugmentedPoint):
        return p.seq
    raise DomainMismatch(f"projection is only defined on augmented points, got {p!r}")


def _baire_parts() -> list[CatalogFunction]:
    return [
        Const(SpaceTag.Baire),
        Inclusion(SpaceTag.Baire, SpaceTag.Baire),
        Inclusion(SpaceTag.Baire, SpaceTag.BaireStar),
    ]


def _rest_parts() -> list[CatalogFunction]:
    X = SpaceTag.BaireStarMinusBaire
    return [Const(X), Inclusion(X, X), Inclusion(X, SpaceTag.BaireStar)] \
        + [InclusionAfterP(Z) for Z in _P_TARGETS]


def catalog_a() -> list[CatalogFunction]:
    """The twenty-four disjoint-union descriptors."""
    return [DisjointUnion(b, r) for b in _baire_parts() for r in _rest_parts()]


def catalog_b() -> list[CatalogFunction]:
    """catalog_a plus the three projection-glued descriptors."""
    return catalog_a() + [UnionWithP(b) for b in _baire_parts()]


def evaluate(f: CatalogFunction, p: Point) -> TaggedValue:
    if isinstance(f, Const):
        if not tag_member(f.domain, p):
            raise DomainMismatch(f"{p!r} not in {f.domain}")
        return TaggedValue(SpaceTag.Singleton, INFTY)
    if isinstance(f, Inclusion):
        if not tag_member(f.frm, p):
            raise DomainMismatch(f"{p!r} not in {f.frm}")
        return TaggedValue(f.into, p)
    if isinstance(f, InclusionAfterP):
        return TaggedValue(f.into, project_p(p))
    if isinstance(f, UnionWithP):
        if isinstance(p, AugmentedPoint):
            return TaggedValue(SpaceTag.Tree, project_p(p))
        if isinstance(p, InfinitePoint):
            return evaluate(f.baire_part, p)
        raise DomainMismatch(f"{p!r} not in BaireStar")
    if isinstance(f, DisjointUnion):
        if isinstance(p, InfinitePoint):
            inner = evaluate(f.baire_part, p)
            return TaggedValue(inner.space, Left(inner.payload))
        if isinstance(p, AugmentedPoint):
            inner = evaluate(f.rest_part, p)
            return TaggedValue(inner.space, Right(inner.payload))
        raise DomainMismatch(f"{p!r} not in BaireStar")
    raise DomainMismatch(f"not a catalog function: {f!r}")


class CertifiedPairing(Record):
    """The finite induced table of the second embedding component: catalog
    output -> observed value, consistent on every sample."""

    __slots__ = ("psi",)


class Mismatch(Frozen):
    __slots__ = ("witness",)


def _value_key(v: TaggedValue):
    def freeze(x):
        if isinstance(x, (Left, Right)):
            return (type(x).__name__, freeze(x.payload))
        if isinstance(x, InfinitePoint) and not isinstance(x, PeriodicPoint):
            raise DomainMismatch("catalog outputs must be finitely presented for pairing")
        return x

    return (v.space, freeze(v.payload))


def embed_via(
    pi: emb.MeetEmbedding,
    f: CatalogFunction,
    phi,
    sample_pairs: Sequence[Point],
    budget: DepthBudget | None = None,
) -> CertifiedPairing | Mismatch:
    """Check the commuting condition phi(extend(pi, p)) = psi(f(p)) on the
    samples, with psi induced from the observations; report the first
    sample where psi fails to be well defined.  budget is not read: a lazy
    extension is read no further than LAZY_DEPTH."""
    psi: dict = {}
    for p in sample_pairs:
        key = _value_key(evaluate(f, p))
        val = phi.evaluate(emb.extend(pi, p))
        if key in psi:
            if not phi.value_distance(psi[key], val).is_zero():
                return Mismatch(p)
        else:
            psi[key] = val
    return CertifiedPairing(psi)


def descriptor_to_json(f: CatalogFunction) -> dict:
    if isinstance(f, Const):
        return {"kind": "const", "domain": f.domain.value}
    if isinstance(f, Inclusion):
        return {"kind": "inclusion", "from": f.frm.value, "into": f.into.value}
    if isinstance(f, InclusionAfterP):
        return {"kind": "inclusion_after_p", "into": f.into.value}
    if isinstance(f, UnionWithP):
        return {"kind": "union_with_p", "baire_part": descriptor_to_json(f.baire_part)}
    return {"kind": "disjoint_union",
            "baire_part": descriptor_to_json(f.baire_part),
            "rest_part": descriptor_to_json(f.rest_part)}
