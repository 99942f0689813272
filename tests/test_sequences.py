import itertools

import pytest
from hypothesis import given, strategies as st

from seqstar import sequences
from seqstar.constructions import _word_pool
from seqstar.sequences import (
    AugmentedPoint,
    BudgetExceeded,
    FinitePoint,
    InfinitePoint,
    PeriodicPoint,
    canonical_enumeration,
    canonical_index,
    is_prefix,
    meet,
    nodes_in_range,
    restrict,
    split_index,
    weight,
)
from seqstar.serialize import point_to_json

seqs = st.lists(st.integers(0, 3), max_size=4).map(tuple)
periods = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)


@given(seqs, periods, st.integers(0, 6), st.integers(1, 3), seqs, periods)
def test_periodic_equality_and_hash(head, period, unroll, reps, head2, period2):
    p = PeriodicPoint(head, period)
    # The same sequence with `unroll` more coordinates in the head and the
    # rotated period written `reps` times.
    k = unroll % len(period)
    q = PeriodicPoint(p.restrict(len(head) + unroll).seq, (period[k:] + period[:k]) * reps)
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    # Equal points are stored in one normal form, so they serialise alike.
    assert (p.head, p.period) == (q.head, q.period)
    assert point_to_json(p) == point_to_json(q)
    # 24 coordinates cover both heads and a common period, so they decide equality.
    r = PeriodicPoint(head2, period2)
    assert (p == r) == (p.restrict(24).seq == r.restrict(24).seq)
    if p == r:
        assert hash(p) == hash(r) and (p.head, p.period) == (r.head, r.period)


def small_nodes(max_len=4, max_entry=3):
    for L in range(max_len + 1):
        yield from itertools.product(range(max_entry + 1), repeat=L)


def test_meet_worked_examples():
    assert meet((0, 1, 2), (0, 1, 5)) == (0, 1)
    assert meet((), (3, 1)) == ()
    assert meet((2,), (2,)) == (2,)


@given(seqs, seqs)
def test_meet_commutative_and_bounded(s, t):
    r = meet(s, t)
    assert r == meet(t, s)
    assert is_prefix(r, s) and is_prefix(r, t)


@given(seqs, seqs, seqs)
def test_meet_universal_property(r, s, t):
    if is_prefix(r, s) and is_prefix(r, t):
        assert is_prefix(r, meet(s, t))


@given(seqs)
def test_meet_idempotent(s):
    assert meet(s, s) == s


def test_weight_is_length_plus_sum():
    assert weight(()) == 0
    assert weight((0, 2)) == 4
    assert weight((3,)) == 4


def test_restrict_finite_beyond_length_is_identity():
    p = FinitePoint((0,))
    assert restrict(p, 3).seq == (0,)
    assert not restrict(p, 3).marked


def test_restrict_augmented_marks_infinity_coordinate():
    p = AugmentedPoint((1, 2))
    assert restrict(p, 2).seq == (1, 2)
    assert not restrict(p, 2).marked
    assert restrict(p, 3).marked


def test_split_index_examples():
    # the split is the least restriction length at which the points differ
    a = FinitePoint((0, 1))
    b = FinitePoint((0, 5))
    assert split_index(a, b) == 2
    assert split_index(FinitePoint(()), AugmentedPoint(())) == 1


def test_infinite_point_respects_budget(monkeypatch):
    # A lazy point is read to LAZY_DEPTH, 64.
    zeros = InfinitePoint(lambda i: (0,) * i)
    assert restrict(zeros, 64).seq == (0,) * 64
    with pytest.raises(BudgetExceeded, match="prefix query 65 exceeds depth 64"):
        restrict(zeros, 65)
    monkeypatch.setattr(sequences, "LAZY_DEPTH", 10)
    assert restrict(zeros, 10).seq == (0,) * 10
    with pytest.raises(BudgetExceeded, match="prefix query 11 exceeds depth 10"):
        restrict(zeros, 11)


def test_periodic_point_equality_is_decidable():
    a = PeriodicPoint((), (1,))
    b = PeriodicPoint((1,), (1, 1))
    c = PeriodicPoint((), (1, 2))
    assert a == b
    assert a != c


def test_enumeration_first_values():
    assert canonical_enumeration(0) == ()
    assert canonical_enumeration(1) == (0,)
    got = [canonical_enumeration(n) for n in range(8)]
    assert got == [(), (0,), (1,), (0, 0), (2,), (0, 1), (1, 0), (0, 0, 0)]


def test_enumeration_orders_by_weight_then_length_then_lex():
    prev = None
    for n in range(300):
        t = canonical_enumeration(n)
        key = (weight(t), len(t), t)
        if prev is not None:
            assert prev < key
        prev = key


def test_enumeration_weight_block_sizes():
    # exactly 2^(w-1) nodes of each positive weight w
    from collections import Counter

    counts = Counter(weight(canonical_enumeration(n)) for n in range(1 + 1 + 2 + 4 + 8 + 16))
    assert counts[1] == 1 and counts[2] == 2 and counts[3] == 4 and counts[4] == 8


def test_index_inverts_enumeration():
    for n in range(500):
        assert canonical_index(canonical_enumeration(n)) == n


def test_enumeration_respects_prefix_order():
    # t_m a strict prefix of t_n forces m < n
    for n in range(120):
        t = canonical_enumeration(n)
        for k in range(len(t)):
            assert canonical_index(t[:k]) < n


def test_nodes_in_range_counts():
    assert nodes_in_range(0, 5) == [()]
    got = nodes_in_range(2, 3)
    assert len(got) == 1 + 3 + 9
    assert got[0] == ()
    # sorted the same way as the canonical enumeration
    keys = [(weight(t), len(t), t) for t in got]
    assert keys == sorted(keys)
    # the range is sorted once; each call still hands out its own list
    got.append((9,))
    got[0] = (9, 9)
    assert nodes_in_range(2, 3) == [t for _, _, t in keys]
    for b in range(2, 8):
        words = set(nodes_in_range(4, min(max(b, 4), 6))) | {(0,) * k for k in range(5, 20)}
        assert list(_word_pool(b)) == sorted(words, key=lambda w: (weight(w), len(w), w))


@given(st.integers(0, 2 ** 60))
def test_index_and_enumeration_round_trip_at_large_indices(n):
    t = canonical_enumeration(n)
    assert canonical_index(t) == n
    assert canonical_enumeration(canonical_index(t + (n % 7,))) == t + (n % 7,)


def test_enumeration_rejects_negative_indices():
    with pytest.raises(ValueError):
        canonical_enumeration(-1)
