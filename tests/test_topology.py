import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from seqstar import sequences
from seqstar.metric import Dyadic
from seqstar.sequences import (
    AugmentedPoint,
    BudgetExceeded,
    FinitePoint,
    InfinitePoint,
    PeriodicPoint,
)
from seqstar.topology import (
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

ZEROS = PeriodicPoint((), (0,))


def test_basic_member_examples():
    assert basic_member(Singleton((1,)), FinitePoint((1,)))
    assert not basic_member(Singleton((1,)), AugmentedPoint((1,)))
    assert basic_member(Cone(()), AugmentedPoint((5,)))
    assert not basic_member(Cone((2,)), FinitePoint(()))
    assert basic_member(ConeMinus((), 2), AugmentedPoint(()))
    assert basic_member(ConeMinus((), 2), FinitePoint((7,)))
    assert not basic_member(ConeMinus((), 2), ZEROS)


def test_neighborhood_examples():
    n = neighborhood_of(FinitePoint((0,)), Dyadic(1, 5))
    assert n == Singleton((0,))
    n = neighborhood_of(ZEROS, Dyadic(1, 2))
    assert n == Cone((0, 0, 0))
    n = neighborhood_of(AugmentedPoint(()), Dyadic(1, 2))
    assert n == ConeMinus((), 2)


def test_neighborhood_of_a_presented_point_takes_no_budget():
    # A diameter below 2^-80 needs a prefix, or a child index, past the default depth 64.
    assert neighborhood_of(ZEROS, Dyadic(1, 80)) == Cone((0,) * 81)
    assert neighborhood_of(AugmentedPoint(()), Dyadic(1, 80)) == ConeMinus((), 80)
    with pytest.raises(ValueError, match="diameter below 0"):
        neighborhood_of(ZEROS, Dyadic.zero())


@pytest.mark.parametrize("p", [
    InfinitePoint(lambda i: (0,) * i),  # prefixes to depth 5 weigh at most 5
], ids=["lazy"])
def test_neighborhood_beyond_the_budget_raises(monkeypatch, p):
    # A diameter below 2^-5 needs the prefix of length 6, past LAZY_DEPTH 5.
    monkeypatch.setattr(sequences, "LAZY_DEPTH", 5)
    with pytest.raises(BudgetExceeded, match="prefix query 6 exceeds depth 5"):
        neighborhood_of(p, Dyadic(1, 5))
    assert neighborhood_of(p, Dyadic(1, 4)) == Cone((0,) * 5)


def test_cone_partition_law():
    # Cone(t) = {t} ∪ Cone(t+(j,)) for j<i ∪ ConeMinus(t,i), pairwise disjoint
    t, i = (1,), 2
    parts = [Singleton(t)] + [Cone(t + (j,)) for j in range(i)] + [ConeMinus(t, i)]
    for p in representatives(parts + [Cone(t)]):
        inside = basic_member(Cone(t), p)
        hits = sum(basic_member(B, p) for B in parts)
        assert hits == (1 if inside else 0)


FULL_COVER = [Singleton(()), ConeMinus((), 3), Cone((0,)), Cone((1,)), Cone((2,))]
BROKEN_COVER = [Singleton(()), ConeMinus((), 3), Cone((0,)), Cone((2,))]


def test_cover_decide_worked_families():
    assert isinstance(cover_decide([Cone(())]), Covers)
    assert isinstance(cover_decide(FULL_COVER), Covers)
    r = cover_decide(BROKEN_COVER)
    assert isinstance(r, Counterexample)
    assert r.point == FinitePoint((1,))


def random_points(rng, n):
    for _ in range(n):
        t = tuple(rng.randrange(5) for _ in range(rng.randrange(5)))
        k = rng.randrange(3)
        if k == 0:
            yield FinitePoint(t)
        elif k == 1:
            yield AugmentedPoint(t)
        else:
            yield PeriodicPoint(t, (rng.randrange(3),))


def test_cover_decide_soundness_by_sampling():
    rng = random.Random(11)
    for family in ([Cone(())], FULL_COVER, BROKEN_COVER, [], [Singleton(())]):
        decided = cover_decide(family)
        if isinstance(decided, Covers):
            for p in random_points(rng, 2000):
                assert any(basic_member(B, p) for B in family)
        else:
            assert not any(basic_member(B, decided.point) for B in family)


def test_uncovered_descent_examples():
    assert uncovered_descent([]) == FinitePoint(())
    p = uncovered_descent([Singleton(())])
    assert p != FinitePoint(())
    p = uncovered_descent([ConeMinus((), 1), Singleton(())])
    assert basic_member(Cone((0,)), p)


def test_uncovered_descent_agrees_with_decision():
    for family in (BROKEN_COVER, [Singleton(())], [Cone((0,)), Cone((1,))]):
        p = uncovered_descent(family)
        assert not any(basic_member(B, p) for B in family)


def test_descent_requires_non_cover():
    with pytest.raises(ValueError):
        uncovered_descent([Cone(())])


def test_covers_cone_restricted():
    assert covers_cone([Cone((1,))], (1,))
    assert not covers_cone([Singleton((1,))], (1,))


# --- the compactness recursion against the exhaustive reference -------------


def first_uncovered(family, base=()):
    """The first representative of the cone at base that no member contains."""
    return next((p for p in representatives(family, base)
                 if not any(basic_member(B, p) for B in family)), None)


def reference_descent(family):
    """The descent walk tested on representatives: at each node, the children
    below the largest ConeMinus index at that node, first uncovered one."""
    if first_uncovered(family) is None:
        raise ValueError("family covers the space; descent has no start")
    D = 1 + max((len(B.t) + isinstance(B, ConeMinus) for B in family), default=0)
    t = ()
    while len(t) <= D + 1:
        for p in (FinitePoint(t), AugmentedPoint(t)):
            if not any(basic_member(B, p) for B in family):
                return p
        bound = max(B.i for B in family
                    if isinstance(B, ConeMinus) and B.t == t and basic_member(B, AugmentedPoint(t)))
        t = next(t + (j,) for j in range(bound) if first_uncovered(family, t + (j,)) is not None)
    return PeriodicPoint(t, (0,))


nodes = st.lists(st.integers(0, 2), max_size=3).map(tuple)
basics = st.one_of(nodes.map(Singleton), nodes.map(Cone),
                   st.builds(ConeMinus, nodes, st.integers(0, 3)))


@settings(deadline=None)
@given(st.lists(basics, max_size=8), nodes)
# (0, 0) and (2,) are the uncovered finite points: the lighter one comes first
@example([Cone((1,)), Singleton(()), ConeMinus((), 3), Singleton((0,)), ConeMinus((0,), 1),
          ConeMinus((0, 0), 0), ConeMinus((2,), 0)], ())
def test_cover_recursion_matches_the_exhaustive_reference(family, base):
    want = first_uncovered(family)
    assert cover_decide(family) == (Covers() if want is None else Counterexample(want))
    assert covers_cone(family, base) == (first_uncovered(family, base) is None)
    if want is not None:
        assert uncovered_descent(family) == reference_descent(family)


def zero_path_partition(depth):
    """{t}, the cone at t minus its child cone at 0, and so on down the zero
    path, closed by the cone at 0^depth."""
    out = []
    for k in range(depth):
        out += [Singleton((0,) * k), ConeMinus((0,) * k, 1)]
    return out + [Cone((0,) * depth)]


def test_deep_partition_is_decided():
    # depth 400 is past the interpreter's recursion limit for a recursive descent
    for depth in (40, 400):
        family = zero_path_partition(depth)
        assert len(family) == 2 * depth + 1
        assert cover_decide(family) == Covers()
        assert covers_cone(family, ())
        missing = family[:-1]
        assert cover_decide(missing) == Counterexample(FinitePoint((0,) * depth))
        assert uncovered_descent(missing) == FinitePoint((0,) * depth)
        assert not covers_cone(missing, (0,) * depth)
