"""Finite sequences, points of the compactified sequence space, and their order structure.

Sequences over the naturals are plain tuples of ints.  Points come in three
variants: finite, infinity-augmented (a finite sequence followed by the
marker coordinate), and genuinely infinite, the last presented only through
a prefix oracle.  All values are immutable; prefix oracles must be pure.
"""
from __future__ import annotations

import functools
import math
from typing import Callable

Seq = tuple[int, ...]

EMPTY: Seq = ()


class BudgetExceeded(Exception):
    """Raised when an operation runs out of its depth or step allowance."""

    def __init__(self, message: str, stage: str | None = None, partial=None):
        super().__init__(message)
        self.stage = stage
        self.partial = partial


class DomainMismatch(Exception):
    """Raised when a point lies outside the domain of the requested map."""


class FrozenInstanceError(AttributeError):
    """Raised on assignment to a field of a Frozen value."""


set_field = object.__setattr__  # how a Frozen value's __init__ sets its fields


class Record:
    """Base of the value types.  A subclass names its fields in ``__slots__``.
    The generic ``__init__`` takes one positional value per field, in slot
    order, and stores each with set_field; any other count is a TypeError.
    A subclass writes its own ``__init__`` only to check values or supply
    defaults.  Two records are equal iff they have the same class and equal
    fields; the repr is ``Name(field=value, ...)``.  Records are mutable and
    therefore unhashable."""

    __slots__ = ()
    __hash__ = None

    def __init__(self, *values):
        slots = self.__slots__
        if len(values) != len(slots):
            raise TypeError(f"{type(self).__qualname__}() takes {len(slots)} "
                            f"positional arguments but {len(values)} were given")
        for f, v in zip(slots, values):
            set_field(self, f, v)

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A record whose fields are fixed by ``__init__`` (through set_field)
    and hashed together.  copy and pickle restore the fields through
    ``__setstate__``, which runs the generic ``Record.__init__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __getstate__(self):
        return self._fields()

    def __setstate__(self, state):
        Record.__init__(self, *state)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class DepthBudget(Frozen):
    """The step allowance of a construction's searches.  How far a lazy
    point may be read is LAZY_DEPTH (see InfinitePoint)."""

    __slots__ = ("steps",)

    def __init__(self, steps: int = 100_000):
        if steps <= 0:
            raise ValueError("steps must be positive")
        set_field(self, "steps", steps)


DEFAULT_BUDGET = DepthBudget()


def is_prefix(s: Seq, t: Seq) -> bool:
    return len(s) <= len(t) and t[: len(s)] == s


def meet(s: Seq, t: Seq) -> Seq:
    """Longest common initial segment of s and t."""
    n = min(len(s), len(t))
    i = 0
    while i < n and s[i] == t[i]:
        i += 1
    return s[:i]


class Prefix(Frozen):
    """A restriction p|i; ``marked`` records that the last coordinate is the
    infinity marker and the prefix therefore lies outside the tree."""

    __slots__ = ("seq", "marked")

    def __init__(self, seq: Seq, marked: bool = False):
        set_field(self, "seq", seq)
        set_field(self, "marked", marked)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.seq == other.seq and self.marked == other.marked

    def __hash__(self):
        return hash((self.seq, self.marked))


class Undetermined(Frozen):
    """Agreement of two points up to the inspected depth."""

    __slots__ = ("depth",)

    def __init__(self, depth: int):
        set_field(self, "depth", depth)


class Point:
    """Base class for elements of the compactified space."""

    __slots__ = ()

    def restrict(self, i: int) -> Prefix:
        raise NotImplementedError


class FinitePoint(Point, Frozen):
    __slots__ = ("seq",)

    def __init__(self, seq: Seq):
        set_field(self, "seq", seq)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.seq == other.seq

    def __hash__(self):
        return hash((self.seq,))

    def restrict(self, i: int) -> Prefix:
        return Prefix(self.seq[:i])

    def __repr__(self):
        return f"FinitePoint({list(self.seq)})"


class AugmentedPoint(Point, Frozen):
    """The point t followed by the infinity coordinate."""

    __slots__ = ("seq",)

    def __init__(self, seq: Seq):
        set_field(self, "seq", seq)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.seq == other.seq

    def __hash__(self):
        return hash((self.seq,))

    def restrict(self, i: int) -> Prefix:
        if i <= len(self.seq):
            return Prefix(self.seq[:i])
        return Prefix(self.seq, marked=True)

    def __repr__(self):
        return f"AugmentedPoint({list(self.seq)})"


LAZY_DEPTH = 64  # the most coordinates a lazy point's oracle is asked for


class InfinitePoint(Point):
    """An infinite sequence presented by a pure prefix oracle i -> b|i, which
    is asked for at most LAZY_DEPTH coordinates: restrict raises
    BudgetExceeded past them."""

    def __init__(self, prefix_fn: Callable[[int], Seq], label: str = ""):
        self._prefix_fn = prefix_fn
        self.label = label

    def restrict(self, i: int) -> Prefix:
        if i > LAZY_DEPTH:
            raise BudgetExceeded(f"prefix query {i} exceeds depth {LAZY_DEPTH}")
        p = self._prefix_fn(i)
        if len(p) != i:
            raise ValueError(f"prefix oracle returned length {len(p)} for query {i}")
        return Prefix(p)

    def __repr__(self):
        return f"InfinitePoint({self.label or self._prefix_fn})"


class PeriodicPoint(InfinitePoint):
    """Eventually periodic infinite point head + period^omega.

    Stored in normal form: the minimal period, then the shortest head, with
    the period rotated to match.  Equal points therefore have the same head
    and period, so equality is decidable and every consumer sees one
    presentation.
    """

    def __init__(self, head: Seq, period: Seq):
        head, period = tuple(head), tuple(period)
        if not period:
            raise ValueError("period must be nonempty")
        n = len(period)
        m = next(k for k in range(1, n + 1) if n % k == 0 and period == period[:k] * (n // k))
        j = len(head)
        while j and head[j - 1] == period[(j - 1 - len(head)) % m]:
            j -= 1
        r = (j - len(head)) % m
        self.head = head[:j]
        self.period = period[r:m] + period[:r]

    def restrict(self, i: int) -> Prefix:
        """p|i, read off the presentation, at any depth."""
        return Prefix(self._prefix(i))

    def _prefix(self, i: int) -> Seq:
        if i <= len(self.head):
            return self.head[:i]
        k = i - len(self.head)
        reps = k // len(self.period) + 1
        return self.head + (self.period * reps)[:k]

    def __eq__(self, other):
        if not isinstance(other, PeriodicPoint):
            return NotImplemented
        return self.head == other.head and self.period == other.period

    def __hash__(self):
        return hash((self.head, self.period))

    def __repr__(self):
        return f"InfinitePoint({list(self.head)}+{list(self.period)}*)"


def restrict(p: Point, i: int) -> Prefix:
    return p.restrict(i)


# How a finitely presented point goes on past its coordinates: a finite
# point's restrictions stop there, in the tree; an augmented point's gain
# the marker; a periodic point's coordinates never run out.  Points of other
# classes are read through restrict.
_FINITE, _MARKED, _PERIODIC = "finite", "marked", "periodic"
_GOES_ON = {FinitePoint: _FINITE, AugmentedPoint: _MARKED, PeriodicPoint: _PERIODIC}


def split_and_weight(a: Point, b: Point) -> tuple[int, int] | Undetermined:
    """The split index i of a and b, the least i with a|i != b|i, and the
    split weight w, the least weight of a|i and b|i over those that lie in
    the tree.  Undetermined, of the number of coordinates compared, on equal
    points, and where a lazy point agrees with the other to LAZY_DEPTH.

    Finitely presented points are read off their coordinates in one walk.
    With k = i - 1 common coordinates of sum S, w is the least over the two
    sides of i + S + x[k] where that side has a coordinate x[k], and of
    k + S where a finite point ends; an augmented point that ends there
    adds nothing, as its restriction carries the marker."""
    ea, eb = _GOES_ON.get(a.__class__), _GOES_ON.get(b.__class__)
    if ea is None or eb is None:
        for i in range(1, LAZY_DEPTH + 1):
            ra, rb = a.restrict(i), b.restrict(i)
            if ra != rb:
                return i, min(weight(r.seq) for r in (ra, rb) if not r.marked)
        return Undetermined(LAZY_DEPTH)
    if ea is _PERIODIC or eb is _PERIODIC:
        # A periodic point shows only the coordinates that can split it from
        # the other point: one past a finite or augmented point's end, or,
        # against another periodic point, the longer head and p + q - gcd(p, q)
        # more, p and q the period lengths; by Fine and Wilf, two eventually
        # periodic sequences that agree that far are equal.
        if ea is eb:
            p, q = len(a.period), len(b.period)
            n = max(len(a.head), len(b.head)) + p + q - math.gcd(p, q)
        else:
            n = len(b.seq if ea is _PERIODIC else a.seq) + 1
        sa = a._prefix(n) if ea is _PERIODIC else a.seq
        sb = b._prefix(n) if eb is _PERIODIC else b.seq
    else:
        sa, sb = a.seq, b.seq
    n = min(len(sa), len(sb))
    k = 0
    while k < n and sa[k] == sb[k]:
        k += 1
    if k < n:
        x, y = sa[k], sb[k]
        return k + 1, k + 1 + (sum(sa[:k]) if k else 0) + (x if x < y else y)
    # Agreement on n coordinates: one point has ended, and the other has a
    # coordinate there or ends another way, unless both end alike, and then
    # the points are equal.
    if len(sa) == len(sb) and ea is eb:
        return Undetermined(n)
    if (len(sa) == n and ea is _FINITE) or (len(sb) == n and eb is _FINITE):
        return n + 1, n + sum(sa[:n])  # a finite point ends here
    return n + 1, n + 1 + sum(sa[:n]) + (sa[n] if len(sa) > n else sb[n])


def split_index(a: Point, b: Point) -> int | Undetermined:
    """Least i with a|i != b|i, or Undetermined as split_and_weight gives it."""
    s = split_and_weight(a, b)
    return s if s.__class__ is Undetermined else s[0]


def cone_member(t: Seq, p: Point) -> bool:
    """True iff t is an initial segment of p."""
    r = p.restrict(len(t))
    return not r.marked and r.seq == t if len(r.seq) == len(t) else False


def weight(t: Seq) -> int:
    """len(t) + sum of entries; strictly monotone along the prefix order."""
    return len(t) + sum(t)


def canonical_enumeration(n: int) -> Seq:
    """The fixed prefix-monotone bijection index -> node, inverting
    canonical_index in closed form by the same block counts.

    Nodes are ordered by weight, breaking ties by length (shorter first) and
    then lexicographically, so prefixes always precede their extensions.
    """
    if n < 0:
        raise ValueError("canonical indices are nonnegative")
    if n == 0:
        return EMPTY
    w = n.bit_length()
    r = n - (1 << (w - 1))  # rank within the block of weight w
    L = 1
    while r >= (c := math.comb(w - 1, L - 1)):
        r -= c
        L += 1
    rem = w - L  # entry sum still to distribute
    t: list[int] = []
    for pos in range(L - 1):
        slots = L - pos - 2  # free coordinates after this one (last is forced)
        f = 0
        while r >= (c := math.comb(rem - f + slots, slots)):
            r -= c
            f += 1
        t.append(f)
        rem -= f
    return tuple(t) + (rem,)


def canonical_index(t: Seq) -> int:
    """Position of t in the canonical enumeration, in closed form.

    There are 2^(w-1) nodes of each positive weight w, so the block below
    weight w has size 2^(w-1); within the block, lengths come first
    (C(w-1, l-1) nodes of length l), then lexicographic rank.
    """
    w = weight(t)
    if w == 0:
        return 0
    L = len(t)
    idx = 1 << (w - 1)
    for l in range(1, L):
        idx += math.comb(w - 1, l - 1)
    rem = w - L  # entry sum still to distribute
    for pos in range(L - 1):
        slots = L - pos - 2  # free coordinates after this one (last is forced)
        for f in range(t[pos]):
            idx += math.comb(rem - f + slots, slots)
        rem -= t[pos]
    return idx


def nodes_in_range(depth: int, branch: int) -> list[Seq]:
    """All nodes with length <= depth and entries < branch, canonical order.

    A fresh list each call, copied from the range sorted once."""
    return list(_sorted_range(depth, branch))


@functools.lru_cache(maxsize=16)
def _sorted_range(depth: int, branch: int) -> tuple[Seq, ...]:
    out: list[Seq] = [EMPTY]
    frontier: list[Seq] = [EMPTY]
    for _ in range(depth):
        frontier = [t + (e,) for t in frontier for e in range(branch)]
        out.extend(frontier)
    out.sort(key=lambda t: (weight(t), len(t), t))
    return tuple(out)
