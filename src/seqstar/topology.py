"""Basic clopen sets of the compactified space and the finite-cover decision.

A basic set is a singleton tree node, a full cone, or a cone with the apex
and finitely many child cones removed.  Finitely presented families of
basic sets are decided for covering by the compactness recursion over the
nodes they mention: a cone is covered by a member containing it whole, or
by covering its apex, its augmented apex and each of its child cones.
"""
from __future__ import annotations

import heapq
import itertools
from typing import Iterator

from .sequences import (
    AugmentedPoint,
    FinitePoint,
    Frozen,
    PeriodicPoint,
    Point,
    Seq,
    cone_member,
    is_prefix,
    nodes_in_range,
    weight,
)
from .metric import Dyadic, radius


class Singleton(Frozen):
    __slots__ = ("t",)


class Cone(Frozen):
    __slots__ = ("t",)


class ConeMinus(Frozen):
    """The cone at t minus the apex and the child cones j < i."""

    __slots__ = ("t", "i")


BasicClopen = Singleton | Cone | ConeMinus


def basic_member(B: BasicClopen, p: Point) -> bool:
    """Membership of p in B, exact on every point; a lazy point is read no
    further than the longest node B mentions, and raises BudgetExceeded
    where that is past LAZY_DEPTH."""
    if isinstance(B, Singleton):
        return isinstance(p, FinitePoint) and p.seq == B.t
    if isinstance(B, Cone):
        return cone_member(B.t, p)
    if not cone_member(B.t, p):
        return False
    if isinstance(p, FinitePoint) and p.seq == B.t:
        return False
    for j in range(B.i):
        if cone_member(B.t + (j,), p):
            return False
    return True


def _mentioned_bounds(family: list[BasicClopen]) -> tuple[int, int]:
    """1 + the longest mentioned node, 2 + the largest entry; ConeMinus(t, i) mentions t+(i,)."""
    words = [B.t + (B.i,) if isinstance(B, ConeMinus) else B.t for B in family]
    return 1 + max(map(len, words), default=0), 2 + max((e for w in words for e in w), default=-1)


def representatives(family: list[BasicClopen], base: Seq = ()) -> Iterator[Point]:
    """Profile-complete finite set of test points for the family within the
    cone at ``base``: membership of any point of that cone in any member is
    determined by its short, entry-clamped profile.  An exhaustive
    reference: no decision below uses it."""
    D, letters = _mentioned_bounds(family)
    words = nodes_in_range(D + 1, letters)
    for w in words:
        yield from (FinitePoint(base + w), AugmentedPoint(base + w))
    yield from (PeriodicPoint(base + w, (0,)) for w in words if len(w) == D + 1)


class Covers(Frozen):
    __slots__ = ()


class Counterexample(Frozen):
    __slots__ = ("point",)


def _covered(family: list[BasicClopen], p: Point) -> bool:
    return any(basic_member(B, p) for B in family)


def _contains_cone(B: BasicClopen, t: Seq) -> bool:
    if isinstance(B, Cone):
        return is_prefix(B.t, t)
    s = B.t
    return isinstance(B, ConeMinus) and len(s) < len(t) and is_prefix(s, t) and t[len(s)] >= B.i


def _cone_covered(family: list[BasicClopen], t: Seq, letters: int, memo: dict[Seq, bool]) -> bool:
    """Whether the family covers the cone at t (memoised per node in memo).

    A member containing the whole cone covers it; else, if no member mentions
    t or a node below it, the finite point t is uncovered; else the finite
    and augmented points t and each child cone t+(j,), j < letters, must be
    covered, the last child standing for every unmentioned one.  Children
    are decided in order on an explicit stack, stopping at the first
    uncovered one, so deep families need no recursion."""
    path: list[tuple[Seq, int]] = []  # undecided ancestors and the child being decided
    while True:
        if t in memo:
            covered = memo[t]
        elif any(_contains_cone(B, t) for B in family):
            covered = memo[t] = True
        elif (not any(is_prefix(t, B.t) for B in family)
              or not _covered(family, FinitePoint(t)) or not _covered(family, AugmentedPoint(t))):
            covered = memo[t] = False
        else:
            path.append((t, 0))
            t += (0,)
            continue
        while path:  # pass the verdict up until an ancestor has a child left to decide
            parent, j = path.pop()
            if covered and j + 1 < letters:
                path.append((parent, j + 1))
                t = parent + (j + 1,)
                break
            memo[parent] = covered
        else:
            return covered


def cover_decide(family: list[BasicClopen]) -> Covers | Counterexample:
    """Decide whether the family covers the whole space; the witness point is
    the first uncovered point in canonical order, finite before augmented at
    each node.  Nodes are popped best-first by (weight, length, lex), and
    child cones the family covers are never entered."""
    letters = _mentioned_bounds(family)[1]
    memo: dict[Seq, bool] = {}
    heap = [] if _cone_covered(family, (), letters, memo) else [(0, 0, ())]
    while heap:
        _, _, t = heapq.heappop(heap)
        for p in (FinitePoint(t), AugmentedPoint(t)):
            if not _covered(family, p):
                return Counterexample(p)
        for c in (t + (j,) for j in range(letters)):
            if not _cone_covered(family, c, letters, memo):
                heapq.heappush(heap, (weight(c), len(c), c))
    return Covers()


def covers_cone(family: list[BasicClopen], t: Seq) -> bool:
    return _cone_covered(family, t, _mentioned_bounds(family)[1], {})


def uncovered_descent(family: list[BasicClopen]) -> Point:
    """Replay the compactness recursion: starting at the root, walk into the
    first child cone that the family fails to cover, emitting the first
    concretely uncovered point met along the way."""
    letters = _mentioned_bounds(family)[1]
    memo: dict[Seq, bool] = {}
    if _cone_covered(family, (), letters, memo):
        raise ValueError("family covers the space; descent has no start")
    t: Seq = ()
    while True:
        for p in (FinitePoint(t), AugmentedPoint(t)):
            if not _covered(family, p):
                return p
        # The cone at t is uncovered but its apex points are not.
        t = next(t + (j,) for j in range(letters)
                 if not _cone_covered(family, t + (j,), letters, memo))


def neighborhood_of(p: Point, eps: Dyadic) -> BasicClopen:
    """A basic set containing p of metric diameter below eps > 0; each step
    at least halves the radius.  A lazy point raises BudgetExceeded where
    the set needs a prefix past LAZY_DEPTH."""
    if eps.is_zero():
        raise ValueError("no basic set has diameter below 0")
    if isinstance(p, FinitePoint):
        return Singleton(p.seq)
    if isinstance(p, AugmentedPoint):
        i = 0
        while not radius(p.seq + (i,)) < eps:
            i += 1
        return ConeMinus(p.seq, i)
    for i in itertools.count():
        prefix = p.restrict(i).seq
        if radius(prefix) < eps:
            return Cone(prefix)
