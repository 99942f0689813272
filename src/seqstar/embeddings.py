"""Meet-preserving tree self-embeddings: validation, amalgamation, extension.

An embedding is presented by its root image and a successor rule and is
evaluated lazily with an internal memo.  Two local conditions are enforced
as values are computed: each child image strictly extends the parent image,
and sibling images diverge at the parent image's length.  Together these
are equivalent to meet preservation plus injectivity, which the
meet-preservation oracle below checks independently, judging every pair of
nodes at its meet.
"""
from __future__ import annotations

import functools
from typing import Callable, Mapping

from .sequences import (
    AugmentedPoint,
    FinitePoint,
    Frozen,
    InfinitePoint,
    PeriodicPoint,
    Point,
    Seq,
    is_prefix,
    nodes_in_range,
    set_field,
)


class InvalidEmbedding(Exception):
    """An image breaks a local condition; ``violation`` is what validate reports."""

    def __init__(self, message: str, node: Seq | None = None, violation: "Violation | None" = None):
        super().__init__(message)
        self.node = node
        self.violation = violation


class ContainmentError(Exception):
    """An amalgamation factor left its assigned cone."""

    def __init__(self, node: Seq, factor: Seq, image: Seq):
        super().__init__(f"factor at {factor} produced {image} outside its cone (node {node})")
        self.node = node
        self.factor = factor
        self.image = image


class MeetEmbedding:
    """A meet embedding given by root image and successor rule.

    ``rule(t, i)`` must return the image of ``t + (i,)``; it may consult the
    already-computed image of ``t`` through ``apply``.  Rules must be pure;
    the memo then behaves as a transparent cache.
    """

    def __init__(self, root: Seq, rule: Callable[[Seq, int], Seq]):
        self.root = tuple(root)
        self._rule = rule
        self._memo: dict[Seq, Seq] = {(): self.root}
        self._fork: dict[Seq, dict[int, int]] = {}
        # Depth from which every child image is the parent image followed by
        # the child coordinate, or None when the rule gives no such depth.
        self.stable: int | None = None

    def apply(self, t: Seq) -> Seq:
        s = self.stable
        if s is not None and len(t) > s:
            return self.apply(t[:s]) + t[s:]  # past the stable depth the rule copies
        got = self._memo.get(t)
        if got is not None:
            return got
        parent_img = self.apply(t[:-1])
        img = tuple(self._rule(t[:-1], t[-1]))
        if not (is_prefix(parent_img, img) and len(img) > len(parent_img)):
            raise InvalidEmbedding(
                f"image {img} of {t} does not strictly extend parent image {parent_img}",
                node=t, violation=Violation(t[:-1], t[-1]),
            )
        forks = self._fork.setdefault(t[:-1], {})
        coord = img[len(parent_img)]
        other = forks.get(coord)
        if other is not None and other != t[-1]:
            raise InvalidEmbedding(
                f"siblings {other} and {t[-1]} of {t[:-1]} share divergence coordinate {coord}",
                node=t[:-1], violation=Violation(t[:-1], other, t[-1]),
            )
        forks[coord] = t[-1]
        self._memo[t] = img
        return img

    def __call__(self, t: Seq) -> Seq:
        return self.apply(t)

    def compose(self, other: "MeetEmbedding") -> "MeetEmbedding":
        """self after other (apply other first)."""
        outer, inner = self, other

        def rule(t: Seq, i: int) -> Seq:
            return outer.apply(inner.apply(t + (i,)))

        e = MeetEmbedding(outer.apply(inner.apply(())), rule)
        # Images are at least as long as their nodes, so past both depths
        # the inner copy lands where the outer one copies too.
        if outer.stable is not None and inner.stable is not None:
            e.stable = max(outer.stable, inner.stable)
        return e

    @classmethod
    def prefix(cls, s: Seq) -> "MeetEmbedding":
        s = tuple(s)
        e = cls(s, lambda t, i: s + t + (i,))
        e.stable = 0
        return e

    @classmethod
    def identity(cls) -> "MeetEmbedding":
        e = cls((), lambda t, i: t + (i,))
        e.stable = 0
        return e

    @classmethod
    def from_node_map(cls, node_map: Callable[[Seq], Seq]) -> "MeetEmbedding":
        return cls(node_map(()), lambda t, i: node_map(t + (i,)))

    @classmethod
    def from_table(cls, table: Mapping[Seq, Seq]) -> "MeetEmbedding":
        """Finite node table; children outside the table extend by the
        identity successor step on top of the computed parent image."""
        tbl = {tuple(k): tuple(v) for k, v in table.items()}

        def rule(t: Seq, i: int) -> Seq:
            child = t + (i,)
            if child in tbl:
                return tbl[child]
            return e.apply(t) + (i,)

        e = cls(tbl.get((), ()), rule)
        e.stable = max(map(len, tbl), default=0)
        return e


class Valid(Frozen):
    __slots__ = ()


class Violation(Frozen):
    __slots__ = ("t", "i", "j")

    def __init__(self, t: Seq, i: int, j: int | None = None):
        set_field(self, "t", t)
        set_field(self, "i", i)
        set_field(self, "j", j)


def validate(
    candidate: Mapping[Seq, Seq] | Callable[[Seq], Seq], depth: int, branch: int
) -> Valid | Violation:
    """Check the two local embedding conditions exhaustively in range."""
    get = candidate.__getitem__ if isinstance(candidate, Mapping) else candidate
    for t in nodes_in_range(depth - 1, branch):
        pi_t = tuple(get(t))
        n = len(pi_t)
        coords: dict[int, int] = {}
        for i in range(branch):
            img = tuple(get(t + (i,)))
            if not (is_prefix(pi_t, img) and len(img) > n):
                return Violation(t, i)
            c = img[n]
            if c in coords:
                return Violation(t, coords[c], i)
            coords[c] = i
    return Valid()


class Agrees(Frozen):
    __slots__ = ()


class Disagrees(Frozen):
    __slots__ = ("s", "t")


_ANY = object()  # the oracle's key for images of every kind


def meet_preservation_oracle(
    candidate: Mapping[Seq, Seq] | Callable[[Seq], Seq], depth: int, branch: int
) -> Agrees | Disagrees:
    """Independent check that meets are preserved and the map is injective
    over every pair of nodes in range.

    Each pair s < t has exactly one meet r, so the pairs are judged at their
    meet.  Below r they fall in groups: r itself and one group per child
    coordinate of r.  A pair from two groups is good iff both images extend
    pi(r) and differ at index |pi(r)|, a missing coordinate counting as a
    value of its own.  So one backward pass over r's members, keeping per
    coordinate the two earliest entries of distinct groups, finds r's first
    bad pair in canonical order.  The witness is the least such pair over
    all r, ordered by the canonical positions of its first node and then its
    second: the first bad pair of the all-pairs scan.
    """
    get = candidate.__getitem__ if isinstance(candidate, Mapping) else candidate
    nodes = nodes_in_range(depth, branch)
    imgs = [tuple(get(t)) for t in nodes]
    witness: tuple[int, int] | None = None
    for r, members in _meet_groups(depth, branch):
        if witness is not None and r > witness[0]:
            break  # every pair met at r starts at r or later
        pr = imgs[r]
        n = len(pr)
        # An image inside pi(r)'s cone is keyed by its coordinate at n, ()
        # when it ends there; key None gathers the images that leave the
        # cone, and _ANY all images.  Per key, kept holds the earliest
        # entry's position and group, then the earliest position of any
        # other group: the earliest partner for every group.
        kept: dict = {}
        first = None
        for a, g in reversed(members):
            img = imgs[a]
            key = img[n:n + 1] if img[:n] == pr else None
            for k in ((_ANY,) if key is None else (key, None)):
                e = kept.get(k)
                if e is not None:
                    b = e[0] if e[1] != g else e[2]
                    if b is not None and (first is None or first[0] != a or b < first[1]):
                        first = (a, b)  # a precedes every hit found so far at r
            for k in (key, _ANY):
                e = kept.get(k)
                if e is None:
                    kept[k] = [a, g, None]
                elif e[1] == g:
                    e[0] = a
                else:
                    e[:] = [a, g, e[0]]
        if first is not None and (witness is None or first < witness):
            witness = first
    if witness is None:
        return Agrees()
    return Disagrees(nodes[witness[0]], nodes[witness[1]])


@functools.lru_cache(maxsize=8)
def _meet_groups(depth: int, branch: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """For each node r with children in range, in the canonical order of
    nodes_in_range: r's position, and the nodes at or below r as (position,
    group) in that order; the group is the child coordinate under r, or -1
    for r itself.  Leaves meet no pair."""
    nodes = nodes_in_range(depth, branch)
    pos = {t: k for k, t in enumerate(nodes)}
    below: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for k, t in enumerate(nodes):
        for n in range(len(t) + 1):
            below[pos[t[:n]]].append((k, t[n] if n < len(t) else -1))
    return tuple((r, tuple(m)) for r, m in enumerate(below) if len(m) > 1)


class EmbeddingFamily:
    """Node-indexed family of embeddings, each mapping into the cone at its
    index node."""

    def __init__(self, assign: Callable[[Seq], MeetEmbedding]):
        self._assign = assign
        self._memo: dict[Seq, MeetEmbedding] = {}

    def __call__(self, t: Seq) -> MeetEmbedding:
        if t not in self._memo:
            self._memo[t] = self._assign(t)
        return self._memo[t]


def amalgamate(family: EmbeddingFamily, depth: int, branch: int) -> MeetEmbedding:
    """Product of the family: the factor at the node itself applies first,
    then successively shorter prefixes, the root factor last."""

    def node_map(t: Seq) -> Seq:
        result = t
        for n in range(len(t), -1, -1):
            factor = family(t[:n])
            if not is_prefix(t[:n], factor.root):
                raise ContainmentError(t, t[:n], factor.root)
            result = factor.apply(result)
            if not is_prefix(t[:n], result):
                raise ContainmentError(t, t[:n], result)
        return result

    amalgam = MeetEmbedding.from_node_map(node_map)
    # Touch the whole range so containment violations surface eagerly.
    for t in nodes_in_range(depth, branch):
        amalgam.apply(t)
    return amalgam


def extend(pi: MeetEmbedding, p: Point) -> Point:
    """The unique continuous extension of pi to the compactified space.

    A periodic point has an exact periodic image when pi copies coordinates
    past a finite depth.  Other infinite points are extended lazily, to an
    InfinitePoint.  A node of length i has an image at least i long, so
    reading the image to k reads at most k coordinates of p.
    """
    if isinstance(p, FinitePoint):
        return FinitePoint(pi.apply(p.seq))
    if isinstance(p, AugmentedPoint):
        return AugmentedPoint(pi.apply(p.seq))
    if isinstance(p, PeriodicPoint) and pi.stable is not None:
        n = max(pi.stable, len(p.head))
        k = (n - len(p.head)) % len(p.period)
        return PeriodicPoint(pi.apply(p._prefix(n)), p.period[k:] + p.period[:k])

    # The deepest i walked so far and pi's image of p|i.  Images grow along
    # prefixes, so any image at least k long gives the same first k
    # coordinates, and each query resumes where the last one stopped.
    deepest: tuple[int, Seq] | None = None

    def prefix_fn(k: int) -> Seq:
        nonlocal deepest
        i, img = deepest or (0, pi.apply(p.restrict(0).seq))
        while len(img) < k:
            i += 1
            img = pi.apply(p.restrict(i).seq)
            deepest = i, img
        return img[:k]

    return InfinitePoint(prefix_fn, label=f"pi^({p!r})")


class Empty(Frozen):
    """No preimage found; range_limited marks that the search was bounded."""

    __slots__ = ("range_limited",)

    def __init__(self, range_limited: bool = True):
        set_field(self, "range_limited", range_limited)


def preimage_cone(
    pi: MeetEmbedding, t: Seq, depth: int, branch: int
) -> "ConeResult":
    """Minimal-length s with t below the image of s, searched within range."""
    from .topology import Cone

    t = tuple(t)
    frontier: list[Seq] = [()]
    while frontier:
        next_frontier: list[Seq] = []
        for s in frontier:
            img = pi.apply(s)
            if is_prefix(t, img):
                return Cone(s)
            if not is_prefix(img, t):
                continue  # incomparable; no extension of s can reach t
            if len(s) < depth:
                next_frontier.extend(s + (i,) for i in range(branch))
        frontier = next_frontier
    return Empty()


ConeResult = "Cone | Empty"
