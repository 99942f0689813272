import pytest

from seqstar.metric import Dyadic
from seqstar.sequences import AugmentedPoint, FinitePoint, PeriodicPoint
from seqstar.serialize import (
    ParseError,
    basic_from_json,
    dyadic_from_json,
    embedding_from_json,
    node_from_key,
    node_key,
    point_from_json,
    point_to_json,
    table_from_json,
    table_to_json,
)
from seqstar.embeddings import MeetEmbedding
from seqstar.sequences import nodes_in_range
from seqstar.topology import Cone, ConeMinus, Singleton


def test_point_round_trip():
    for p in (FinitePoint((0, 2)), AugmentedPoint(()), PeriodicPoint((1,), (0, 2))):
        assert point_from_json(point_to_json(p)) == p


def test_basic_round_trip():
    for doc, B in (({"kind": "singleton", "t": [1]}, Singleton((1,))),
                   ({"kind": "cone", "t": []}, Cone(())),
                   ({"kind": "cone_minus", "t": [0], "i": 3}, ConeMinus((0,), 3))):
        assert basic_from_json(doc) == B


def test_node_key_round_trip():
    for t in ((), (0,), (3, 1, 4)):
        assert node_from_key(node_key(t)) == t


def test_table_round_trip():
    table = {t: (0,) + t for t in nodes_in_range(2, 2)}
    assert table_from_json(table_to_json(table)) == table


def test_dyadic_round_trip():
    for doc, x in (("0", Dyadic.zero()), ("1", Dyadic(1, 0)), ("3·2^-5", Dyadic(3, 5)),
                   ("2^-7", Dyadic(1, 7))):
        assert dyadic_from_json(doc) == x and str(x) == doc


def test_embedding_round_trip_symbolic_and_table():
    pi = MeetEmbedding.prefix((2,))
    again = embedding_from_json({"kind": "prefix", "s": [2]})
    for t in nodes_in_range(3, 2):
        assert again.apply(t) == pi.apply(t)


def test_composed_embedding_round_trips_as_a_table():
    table = MeetEmbedding.from_table({(0,): (1,), (1,): (0,)})
    pi = MeetEmbedding.prefix((0,)).compose(table)
    again = embedding_from_json({"kind": "table", "root": [0],
                                 "entries": [[[], 0, [0, 1]], [[], 1, [0, 0]]]})
    for t in nodes_in_range(3, 2):
        assert again.apply(t) == pi.apply(t)


def test_parse_errors():
    with pytest.raises(ParseError):
        point_from_json({"kind": "wat"})
    with pytest.raises(ParseError):
        dyadic_from_json(7)
    with pytest.raises(ParseError):
        basic_from_json({"kind": "cone", "t": "x"})
