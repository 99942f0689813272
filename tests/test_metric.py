import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from seqstar import sequences
from seqstar.metric import Bounded, Dyadic, Exact, ball_member, distance, radius, weight_schedule
from seqstar.registry import FUNCTIONS, SpaceFunction, ValueIndex, diameter_pairs, least_distance
from seqstar.sequences import (
    AugmentedPoint,
    BudgetExceeded,
    FinitePoint,
    InfinitePoint,
    PeriodicPoint,
    Undetermined,
    split_index,
)

SCHED = weight_schedule()


def d(a, b):
    r = distance(a, b)
    assert isinstance(r, Exact)
    return r.value


def small_points(max_len=3, max_entry=2):
    pts = []
    for L in range(max_len + 1):
        for t in itertools.product(range(max_entry + 1), repeat=L):
            pts.append(FinitePoint(t))
            pts.append(AugmentedPoint(t))
    return pts


# --- dyadic arithmetic ----------------------------------------------------

def test_dyadic_canonical_form():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(6, 3) == Dyadic(3, 2)
    assert Dyadic(0, 7) == Dyadic.zero()


def test_dyadic_parse_round_trip():
    for text in ["0", "1", "5", "1/2", "2^-7", "3·2^-5"]:
        assert str(Dyadic.parse(text)) == text


@given(st.integers(0, 200), st.integers(0, 12), st.integers(0, 200), st.integers(0, 12))
def test_dyadic_ordering_matches_rationals(n1, e1, n2, e2):
    a, b = Dyadic(n1, e1), Dyadic(n2, e2)
    assert (a < b) == (n1 * 2 ** e2 < n2 * 2 ** e1)
    assert (a == b) == (n1 * 2 ** e2 == n2 * 2 ** e1)


def test_dyadic_normalises_a_long_run_of_zero_bits():
    assert Dyadic(2 ** 20000, 20000) == Dyadic(1)
    assert Dyadic(2 ** 20000, 30000) == Dyadic(1, 10000)


def value(x):
    # canonical form: an odd numerator, or an integer with exponent 0
    assert x.num % 2 == 1 or x.exp == 0
    return Fraction(x.num, 2 ** x.exp)


dyadic_args = st.tuples(st.integers(0, 2 ** 80), st.integers(-8, 90))


@given(dyadic_args, dyadic_args)
@example((0, 70), (0, 3))  # zero, whatever its exponent
@example((0, 0), (5, 66))
@example((3, 2), (6, 3))  # equal values
@example((2 ** 70, 70), (1, 0))
@example((5, 66), (3, 65))  # exponents above 64
@example((2 ** 80, 90), (2 ** 79 + 1, 89))
def test_dyadic_agrees_with_fractions(a, b):
    x, y = Dyadic(*a), Dyadic(*b)
    fx, fy = Fraction(a[0]) / Fraction(2) ** a[1], Fraction(b[0]) / Fraction(2) ** b[1]
    assert value(x) == fx and value(y) == fy
    assert value(x + y) == fx + fy
    assert value(x * y) == fx * fy
    assert value(x.half()) == fx / 2
    if fx >= fy:
        assert value(x - y) == fx - fy
    assert (x < y) == (fx < fy) and (x == y) == (fx == fy)
    assert (x <= y) == (fx <= fy) and (x > y) == (fx > fy) and (x >= y) == (fx >= fy)
    assert value(x.abs_diff(y)) == abs(fx - fy) == value(y.abs_diff(x))


@given(dyadic_args, st.integers(0, 70))
def test_dyadic_compares_equal_values_written_two_ways(a, k):
    x = Dyadic(*a)
    y = Dyadic(x.num << k, x.exp + k)  # the same value, renormalised
    assert x == y and x <= y and x >= y and not x < y and not x > y
    assert x.abs_diff(y).is_zero() and y.abs_diff(x).is_zero()


def test_powers_of_two_are_the_dyadics_they_name():
    # Small powers come from a shared table, larger ones are built.
    for k in range(301):
        assert Dyadic.pow2(-k) == Dyadic(1, k) == radius((0,) * k) == radius((k - 1,) if k else ())
        assert (Dyadic.pow2(-k).num, Dyadic.pow2(-k).exp) == (1, k)
        assert Dyadic.pow2(k) == Dyadic(1 << k)


def test_schedule_values():
    assert SCHED(()) == Dyadic(1, 0)
    assert SCHED((0,)) == Dyadic(1, 1)
    assert SCHED((0, 2)) == Dyadic(1, 4)


# --- distances ------------------------------------------------------------

def test_distance_worked_examples():
    assert d(FinitePoint(()), FinitePoint((0,))) == Dyadic(1, 0)
    # split at index 1; the larger restriction inside the tree is (0,5)
    assert d(AugmentedPoint((0,)), FinitePoint((0, 5))) == Dyadic(1, 7)
    assert d(FinitePoint((2,)), FinitePoint((2,))) == Dyadic.zero()


def test_distance_excludes_marked_restrictions():
    # Augmented(()) vs Finite(()): the augmented side's split restriction is
    # the infinity marker, which lies outside the tree, leaving eps at ().
    assert d(AugmentedPoint(()), FinitePoint(())) == Dyadic(1, 0)


def test_distance_infinite_points_equal_periodic():
    a = PeriodicPoint((), (1,))
    b = PeriodicPoint((1, 1), (1,))
    assert d(a, b) == Dyadic.zero()


def test_distance_infinite_budget_gives_bound(monkeypatch):
    monkeypatch.setattr(sequences, "LAZY_DEPTH", 6)
    ones = InfinitePoint(lambda i: (1,) * i)
    also_ones = InfinitePoint(lambda i: (1,) * i)
    assert distance(ones, also_ones) == Bounded(Dyadic(1, 12))


def test_a_lazy_pair_is_read_to_the_lazy_depth(monkeypatch):
    monkeypatch.setattr(sequences, "LAZY_DEPTH", 5)
    a = InfinitePoint(lambda i: (1,) * i)
    b = InfinitePoint(lambda i: (1,) * i)
    assert split_index(a, b) == split_index(b, a) == Undetermined(5)
    assert split_index(b, PeriodicPoint((), (1,))) == Undetermined(5)
    assert distance(b, a) == Bounded(Dyadic(1, 10))
    assert ball_member(b, Dyadic(1, 10), a) == Undetermined(5)


def test_equal_presented_points_are_undetermined_to_the_coordinates_compared():
    assert split_index(FinitePoint((1, 2)), FinitePoint((1, 2))) == Undetermined(2)
    assert split_index(AugmentedPoint(()), AugmentedPoint(())) == Undetermined(0)
    # one head coordinate, then 2 + 2 - gcd(2, 2) of the period (0 1)
    a, b = PeriodicPoint((3,), (0, 1)), PeriodicPoint((3, 0, 1), (0, 1))
    assert split_index(a, b) == Undetermined(3)


def test_singleton_equals_small_ball():
    # {t} = B(t, eps_t) for finite t: any distinct point is at distance >= eps_t
    for p in small_points(2, 2):
        if not isinstance(p, FinitePoint):
            continue
        eps = SCHED(p.seq)
        for q in small_points(2, 2):
            if q != p:
                assert d(p, q) >= eps
        assert ball_member(p, eps, p)


def test_ball_member_on_a_bounded_distance(monkeypatch):
    # Two lazy points agreeing to depth 6: the distance is at most 2^-12.
    monkeypatch.setattr(sequences, "LAZY_DEPTH", 6)
    ones = InfinitePoint(lambda i: (1,) * i)
    also_ones = InfinitePoint(lambda i: (1,) * i)
    assert ball_member(ones, Dyadic(1, 11), also_ones) is True
    assert ball_member(ones, Dyadic(1, 12), also_ones) == Undetermined(6)


def test_exhaustive_ultrametric_small():
    pts = small_points(2, 2)
    table = {}
    for a, b in itertools.combinations(pts, 2):
        v = d(a, b)
        assert v == d(b, a)
        assert v > Dyadic.zero()
        table[(a, b)] = table[(b, a)] = v
    for a in pts:
        assert d(a, a) == Dyadic.zero()
    for a, b, c in itertools.permutations(pts[:12], 3):
        assert table[(a, c)] <= max(table[(a, b)], table[(b, c)])


def test_randomized_ultrametric_mixed():
    rng = random.Random(7)

    def pt():
        t = tuple(rng.randrange(4) for _ in range(rng.randrange(5)))
        k = rng.randrange(3)
        if k == 0:
            return FinitePoint(t)
        if k == 1:
            return AugmentedPoint(t)
        return PeriodicPoint(t, (rng.randrange(3),))

    for _ in range(400):
        a, b, c = pt(), pt(), pt()
        ab, bc, ac = d(a, b), d(b, c), d(a, c)
        assert ac <= max(ab, bc)
        assert ab == d(b, a)


# --- split index and distance against the restriction loop ---------------

WIDE = 200  # coordinates past every split of two presented points that point_pairs draws


def is_lazy(p):
    return type(p) is InfinitePoint


def split_by_restrict(a, b):
    """The least i with a|i != b|i, found by comparing restrictions as far
    as a lazy point may be read; Undetermined of LAZY_DEPTH where they agree
    that far, None where two presented points agree to WIDE."""
    lazy = is_lazy(a) or is_lazy(b)
    for i in range(1, (sequences.LAZY_DEPTH if lazy else WIDE) + 1):
        if a.restrict(i) != b.restrict(i):
            return i
    return Undetermined(sequences.LAZY_DEPTH) if lazy else None


def distance_by_restrict(a, b):
    if a == b:
        return Exact(Dyadic.zero())
    i = split_by_restrict(a, b)
    if isinstance(i, Undetermined):
        return Bounded(SCHED(a.restrict(i.depth).seq))
    rs = [p.restrict(i) for p in (a, b)]
    return Exact(max(SCHED(r.seq) for r in rs if not r.marked))


def written_again(p, unroll, reps):
    """p written another way: a periodic point with `unroll` more head
    coordinates and its rotated period `reps` times, a lazy point behind
    another oracle, a finite or augmented point as a fresh copy."""
    if isinstance(p, PeriodicPoint):
        k = unroll % len(p.period)
        head = p.restrict(len(p.head) + unroll).seq
        return PeriodicPoint(head, (p.period[k:] + p.period[:k]) * reps)
    if isinstance(p, InfinitePoint):
        return InfinitePoint(lambda i: p.restrict(i).seq)
    return type(p)(tuple(list(p.seq)))


@st.composite
def point_pairs(draw):
    """Two points sharing a long run of coordinates (heads up to 70+,
    periods up to 9 long)."""
    base = draw(st.lists(st.integers(0, 2), max_size=70))
    entries = st.lists(st.integers(0, 2), max_size=3)

    def point():
        seq = tuple(base[:draw(st.integers(0, len(base)))]) + tuple(draw(entries))
        kind = draw(st.sampled_from(["finite", "augmented", "periodic", "lazy"]))
        if kind == "finite":
            return FinitePoint(seq)
        if kind == "augmented":
            return AugmentedPoint(seq)
        p = PeriodicPoint(seq, tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=9))))
        if kind == "lazy":
            return InfinitePoint(lambda i: p.restrict(i).seq)
        return p

    a = point()
    if draw(st.booleans()):
        return a, point()
    return a, written_again(a, draw(st.integers(0, 6)), draw(st.integers(1, 3)))


def value_distance_by_restrict(name, x, y):
    """FUNCTIONS[name].value_distance of two point values, from the
    restriction loop; None where the values agree as far as a lazy one may
    be read, and no distance can be read."""
    d = distance_by_restrict(x, y)
    if isinstance(d, Bounded):
        return None
    if name != "baire-identity" or d.value.is_zero():
        return d.value
    return Dyadic(1, split_by_restrict(x, y) - 1)


POINT_VALUED = ("baire-identity", "compactify-identity", "prefix-embed")


@settings(max_examples=400)
@given(point_pairs(), st.integers(1, 10))
def test_split_index_and_distance_match_the_restriction_loop(pair, depth):
    # Lazy points are read to the drawn depth, then to the default 64.
    for lazy_depth in (depth, sequences.LAZY_DEPTH):
        with mock.patch.object(sequences, "LAZY_DEPTH", lazy_depth):
            for p, q in (pair, pair[::-1]):
                want, got = split_by_restrict(p, q), split_index(p, q)
                assert got == want or (want is None and got.__class__ is Undetermined)
                assert distance(p, q) == distance_by_restrict(p, q)
    a, b = pair
    for name in POINT_VALUED:
        phi = FUNCTIONS[name]
        x, y = phi.evaluate(a), phi.evaluate(b)
        want = value_distance_by_restrict(name, x, y)
        if want is None:
            with pytest.raises(BudgetExceeded, match="agree to depth 64"):
                phi.value_distance(x, y)
        else:
            assert phi.value_distance(x, y) == want == phi.value_distance(y, x)


def test_periodic_points_split_within_the_fine_wilf_bound():
    # (0 1 0 0 1)^ω and (0 1 0 0 1 0 1 0)^ω agree on 11 = 5 + 8 - gcd(5, 8) - 1
    # coordinates, the most that distinct periods 5 and 8 allow.
    a = PeriodicPoint((2,), (0, 1, 0, 0, 1))
    b = PeriodicPoint((2,), (0, 1, 0, 0, 1, 0, 1, 0))
    assert split_index(a, b) == 13 == split_by_restrict(a, b)


def test_a_lazy_point_is_at_distance_zero_from_itself_without_being_read():
    reads = []
    p = InfinitePoint(lambda i: reads.append(i) or (0,) * i)
    assert distance(p, p) == Exact(Dyadic.zero())
    for name in POINT_VALUED:
        assert FUNCTIONS[name].value_distance(p, p) == Dyadic.zero()
    assert reads == []
    # Another oracle for the same point is read to LAZY_DEPTH, and no
    # further, and has no distance to tell.
    q = InfinitePoint(lambda i: (0,) * i)
    for name in POINT_VALUED:
        with pytest.raises(BudgetExceeded, match="agree to depth 64"):
            FUNCTIONS[name].value_distance(p, q)
    assert max(reads) == sequences.LAZY_DEPTH


@pytest.mark.parametrize("name", ["baire-identity", "compactify-identity"])
def test_a_value_distance_to_the_budget_depth_is_not_a_distance(name):
    # Two oracles for one point agree to every depth; their distance is 0,
    # which no finite depth can tell from a small positive one.
    a, b = InfinitePoint(lambda i: (0,) * i), InfinitePoint(lambda i: (0,) * i)
    with pytest.raises(BudgetExceeded, match="agree to depth 64"):
        FUNCTIONS[name].value_distance(a, b)


def test_distance_reads_presented_points_without_restricting_them(monkeypatch):
    calls = []

    def counted(restrict):
        def call(p, *args):
            calls.append(p)
            return restrict(p, *args)
        return call

    for cls in (FinitePoint, AugmentedPoint, InfinitePoint, PeriodicPoint):
        monkeypatch.setattr(cls, "restrict", counted(cls.restrict))
    head = (1, 0, 2) * 10
    points = [FinitePoint(()), AugmentedPoint(()), PeriodicPoint((), (0,)), FinitePoint(head),
              AugmentedPoint(head), PeriodicPoint(head, (2, 1)), PeriodicPoint(head + (1,), (0,))]
    for p, q in itertools.product(points, repeat=2):
        assert isinstance(distance(p, q), Exact)
        FUNCTIONS["compactify-identity"].value_distance(p, q)
        FUNCTIONS["baire-identity"].value_distance(p, q)
    assert calls == []


# --- least distances and diameters from a sorted order ---------------------

# One registry function for each metric that declares an order.
ORDERED = {"line": "entry-sum", "split": "baire-identity", "module": "compactify-identity"}

dyadics = st.builds(Dyadic, st.integers(0, 40), st.integers(0, 5))
# Short sequences over a small alphabet: prefixes, duplicates and () come often.
augmented = st.builds(AugmentedPoint, st.lists(st.integers(0, 3), max_size=4).map(tuple))


def counting(phi, order):
    """phi with the given order, counting its value distances."""
    calls = []

    def value_distance(a, b):
        calls.append((a, b))
        return phi.value_distance(a, b)

    return SpaceFunction(phi.name, phi.evaluate, value_distance, phi.cone_diameter,
                         phi.spec, order), calls


def values_for(metric):
    return dyadics if metric == "line" else augmented


@settings(max_examples=300)
@given(st.data(), st.sampled_from(sorted(ORDERED)))
def test_the_sorted_order_reads_the_least_distance_and_diameter_of_a_scan(data, metric):
    phi = FUNCTIONS[ORDERED[metric]]
    xs = data.draw(st.lists(values_for(metric), max_size=6))
    ys = data.draw(st.lists(values_for(metric), min_size=1, max_size=12))
    pairs = [phi.value_distance(x, y) for x in xs for y in ys]
    least = least_distance(phi, xs, ValueIndex(phi, ys))
    assert least == (min(pairs) if pairs else None)
    index = ValueIndex(phi)  # the same set, added one value at a time
    for y in ys:
        index.add(y)
    assert least_distance(phi, xs, index) == least
    assert len(index.near(ys[0])) <= 2
    spread = [phi.value_distance(a, b) for a, b in itertools.combinations(ys, 2)]
    got = [phi.value_distance(a, b) for a, b in diameter_pairs(phi, ys)]
    assert max(got, default=None) == max(spread, default=None)
    assert len(got) == min(len(spread), 1)


UNKEYED = [FinitePoint((1,)), FinitePoint(()), PeriodicPoint((), (2,)), PeriodicPoint((1,), (0,))]


@given(st.data(), st.sampled_from(["line-no-order", "split-no-order", "module-no-order",
                                   "split-unkeyed", "module-unkeyed"]))
def test_an_unordered_function_or_a_value_without_a_key_takes_the_scan(data, case):
    metric, _, how = case.partition("-")
    phi = FUNCTIONS[ORDERED[metric]]
    ys = data.draw(st.lists(values_for(metric), min_size=1, max_size=8))
    x = data.draw(values_for(metric))
    if how == "unkeyed":
        # One finite or periodic value, which the tree order does not key,
        # in the set or asked about.
        odd = data.draw(st.sampled_from(UNKEYED))
        if data.draw(st.booleans()):
            ys.insert(data.draw(st.integers(0, len(ys))), odd)
        else:
            x = odd
    scanned, calls = counting(phi, None if how == "no-order" else phi.order)
    index = ValueIndex(scanned, ys)
    assert index.near(x) == ys
    dists = [phi.value_distance(x, y) for y in ys]
    zero = next((i for i, d in enumerate(dists) if d.is_zero()), len(ys) - 1)
    assert least_distance(scanned, [x], index) == min(dists)
    assert calls == [(x, y) for y in ys[:zero + 1]]  # in the order added, to the first zero
    assert list(diameter_pairs(scanned, ys + [x])) == list(itertools.combinations(ys + [x], 2))
