"""The value types: field equality, hashing, frozenness, copy, pickle and
repr, and the modules that importing the command line loads."""
import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import seqstar
from seqstar import catalog, constructions, embeddings, metric, registry, sequences, topology, trace
from seqstar.catalog import (
    CertifiedPairing,
    Const,
    DisjointUnion,
    Inclusion,
    InclusionAfterP,
    Left,
    Mismatch,
    Right,
    SpaceTag,
    TaggedValue,
    UnionWithP,
)
from seqstar.constructions import (
    ClosureAvoidsF,
    Constant,
    ContinuousAtBaire,
    Convergent,
    ConvergesToMember,
    DiameterToZero,
    Discrete,
    DiscreteInjection,
    EmbedsIntoBaire,
    EmbedsIntoBaireStar,
    GlobalConvergence,
    InComplement,
    InsideBall,
    InT,
    PairwiseAvoidance,
    PartialEmbedding,
    SeparatedClosure,
    SpaceFunction,
    TreeFamily,
    TreeSetOracle,
)
from seqstar.embeddings import Agrees, Disagrees, Empty, Valid, Violation
from seqstar.metric import Bounded, Dyadic, EpsilonSchedule, Exact
from seqstar.sequences import (
    AugmentedPoint,
    DepthBudget,
    FinitePoint,
    Frozen,
    FrozenInstanceError,
    Prefix,
    Record,
    Undetermined,
)
from seqstar.registry import Op
from seqstar.topology import Cone, ConeMinus, Counterexample, Covers, Singleton
from seqstar.trace import RecheckReport


def _rule(t):
    return Dyadic(1, len(t))


def _member(t):
    return True


def _dist(a, b):
    return Dyadic.zero()


_X = SpaceTag.BaireStarMinusBaire
_TABLE = {(): (), (0,): (0,), (1,): (1,)}

# class -> (field values, the same values with one field changed, or None
# for a class without fields)
FROZEN = {
    DepthBudget: ((5,), (6,)),
    Prefix: (((0, 1), True), ((0, 1), False)),
    Undetermined: ((5,), (6,)),
    FinitePoint: (((1, 2),), ((1,),)),
    AugmentedPoint: (((1, 2),), ((1,),)),
    EpsilonSchedule: (("w", _rule), ("v", _rule)),
    Exact: ((Dyadic(1, 2),), (Dyadic(1, 3),)),
    Bounded: ((Dyadic(1, 2),), (Dyadic(1, 3),)),
    Singleton: (((0,),), ((1,),)),
    Cone: (((0,),), ((1,),)),
    ConeMinus: (((0,), 2), ((0,), 3)),
    Covers: ((), None),
    Counterexample: ((FinitePoint((0,)),), (AugmentedPoint((0,)),)),
    Valid: ((), None),
    Violation: (((0,), 1, None), ((0,), 1, 2)),
    Agrees: ((), None),
    Disagrees: (((0,), (1,)), ((0,), (2,))),
    Empty: ((True,), (False,)),
    TreeFamily: (("f", _member), ("g", _member)),
    InT: ((), None),
    InComplement: ((), None),
    Convergent: ((), None),
    Discrete: ((Dyadic(1),), (Dyadic(1, 1),)),
    DiscreteInjection: ((Dyadic(1),), (Dyadic(1, 1),)),
    InsideBall: ((Dyadic(1),), (Dyadic(3),)),
    DiameterToZero: ((), None),
    SeparatedClosure: (((0,), Dyadic(1, 1)), ((1,), Dyadic(1, 1))),
    ContinuousAtBaire: ((), None),
    ConvergesToMember: ((Dyadic(1),), (FinitePoint(()),)),
    ClosureAvoidsF: ((Dyadic(1, 1), (0,)), (Dyadic(1, 1), (1,))),
    GlobalConvergence: ((), None),
    PairwiseAvoidance: ((), None),
    Constant: ((), None),
    EmbedsIntoBaire: ((), None),
    EmbedsIntoBaireStar: ((), None),
    TaggedValue: ((SpaceTag.Tree, (0,)), (SpaceTag.Seq_, (0,))),
    Left: (((0,),), ((1,),)),
    Right: (((0,),), ((1,),)),
    Const: ((SpaceTag.Baire,), (SpaceTag.BaireStar,)),
    Inclusion: ((SpaceTag.Baire, SpaceTag.Baire), (SpaceTag.Baire, SpaceTag.BaireStar)),
    InclusionAfterP: ((SpaceTag.Tree,), (SpaceTag.SeqStar,)),
    UnionWithP: ((Const(SpaceTag.Baire),), (Inclusion(SpaceTag.Baire, SpaceTag.Baire),)),
    DisjointUnion: ((Const(SpaceTag.Baire), Const(_X)), (Const(SpaceTag.Baire), Inclusion(_X, _X))),
    Mismatch: ((FinitePoint(()),), (FinitePoint((0,)),)),
}
MUTABLE = {
    TreeSetOracle: (("s", _member), ("t", _member)),
    SpaceFunction: (("f", _rule, _dist), ("f", _rule, _dist, _rule)),
    PartialEmbedding: ((_TABLE, 1, 2, {}), (_TABLE, 1, 2, {"kind": "x"})),
    RecheckReport: ((True, 1), (False, 1)),
    CertifiedPairing: (({},), ({1: 2},)),
    Op: (("x", ("fn", _member), "in_set"), ("x", ("fn", _member), "diam_lt")),
}


def test_every_value_type_is_sampled():
    found = {v for m in (sequences, metric, topology, embeddings, constructions, catalog, trace,
                         registry)
             for v in vars(m).values()
             if isinstance(v, type) and issubclass(v, Record) and v not in (Record, Frozen)}
    assert found == set(FROZEN) | set(MUTABLE)
    assert all(issubclass(c, Frozen) for c in FROZEN)
    assert not any(issubclass(c, Frozen) for c in MUTABLE)


@pytest.mark.parametrize("cls", list(FROZEN) + list(MUTABLE), ids=lambda c: c.__name__)
def test_equal_iff_same_class_and_fields(cls):
    args, other = {**FROZEN, **MUTABLE}[cls]
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a != object() and a != args
    if other is not None:
        c = cls(*other)
        assert a != c and not a == c
    if cls in FROZEN:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


def _arity(cls):
    """(fewest, most) positional values the class takes: one per field for
    the generic initialiser, or what the class's own __init__ declares."""
    init = cls.__dict__.get("__init__")
    if init is None:
        return len(cls.__slots__), len(cls.__slots__)
    most = init.__code__.co_argcount - 1
    return most - len(init.__defaults__ or ()), most


@pytest.mark.parametrize("cls", list(FROZEN) + list(MUTABLE), ids=lambda c: c.__name__)
def test_a_wrong_number_of_values_is_a_type_error(cls):
    args, _ = {**FROZEN, **MUTABLE}[cls]
    fewest, most = _arity(cls)
    full = args + (None,) * (most - len(args))
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*full, None)
    if fewest:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*full[:fewest - 1])


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda c: c.__name__)
def test_frozen_values_reject_assignment(cls):
    args, _ = FROZEN[cls]
    v = cls(*args)
    for name in cls.__slots__ + ("extra",):
        with pytest.raises(FrozenInstanceError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v == cls(*args)
    assert not hasattr(v, "__dict__")


@pytest.mark.parametrize("cls", list(MUTABLE), ids=lambda c: c.__name__)
def test_mutable_values_accept_assignment(cls):
    args, other = MUTABLE[cls]
    v = cls(*args)
    changed = cls(*other)
    for name in cls.__slots__:
        setattr(v, name, getattr(changed, name))
    assert v == changed


@pytest.mark.parametrize("cls", list(FROZEN) + list(MUTABLE), ids=lambda c: c.__name__)
def test_values_survive_copy_and_pickle(cls):
    args, _ = {**FROZEN, **MUTABLE}[cls]
    v = cls(*args)
    for c in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(c) is cls and c == v
        if cls in FROZEN:
            assert hash(c) == hash(v)


def test_same_fields_in_another_class_are_unequal():
    x = Dyadic(1, 2)
    assert Exact(x) != Bounded(x)
    assert Discrete(x) != DiscreteInjection(x)
    assert Left((0,)) != Right((0,))
    assert Singleton((0,)) != Cone((0,))
    assert FinitePoint((0,)) != AugmentedPoint((0,))
    assert Valid() != Agrees() and InT() != InComplement()


def test_repr_keeps_the_field_text():
    assert repr(Violation((0,), 1)) == "Violation(t=(0,), i=1, j=None)"
    assert repr(Disagrees((0,), (1, 2))) == "Disagrees(s=(0,), t=(1, 2))"
    assert repr(Cone((0, 1))) == "Cone(t=(0, 1))"
    assert repr(Exact(Dyadic(1, 2))) == "Exact(value=Dyadic(2^-2))"
    assert repr(Valid()) == "Valid()"
    assert repr(FinitePoint((0, 1))) == "FinitePoint([0, 1])"


def test_importing_the_cli_loads_every_module_but_not_dataclasses():
    src = str(Path(seqstar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys; import seqstar.cli; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert "dataclasses" not in loaded and "inspect" not in loaded
    for name in ("metric", "topology", "embeddings", "trace", "catalog", "constructions"):
        assert f"seqstar.{name}" in loaded
