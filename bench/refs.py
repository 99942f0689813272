"""Reference answers computed without seqstar.

Every check the benchmark makes on an answer of the library compares it
with what is computed here from the plain inputs, so that a wrong answer
cannot be confirmed by the code that produced it.

Plain inputs:
  point   ("f", seq) finite, ("a", seq) augmented, ("p", head, period) periodic
  basic   ("singleton", t), ("cone", t), ("cone_minus", t, i)
  table   dict node -> image, rooted at ()
"""
from __future__ import annotations

from fractions import Fraction

MARK = "inf"  # the infinity marker of an augmented point
LONG = 400  # periodic points are expanded this far; every generated split is shorter


def symbols(p) -> list:
    """The point as an explicit list of coordinates (periodic ones cut at LONG)."""
    if p[0] == "f":
        return list(p[1])
    if p[0] == "a":
        return list(p[1]) + [MARK]
    head, period = p[1], p[2]
    out = list(head)
    while len(out) < LONG:
        out.extend(period)
    return out[:LONG]


def weight(t) -> int:
    return len(t) + sum(t)


def canonical(t) -> tuple:
    """Sort key of the canonical node order: weight, then length, then lexicographic."""
    return weight(t), len(t), t


def distance(a, b) -> Fraction:
    """The ultrametric from explicit prefixes: 2^-w, where w is the least
    weight of the two restrictions at the split index that stay in the tree."""
    sa, sb = symbols(a), symbols(b)
    finite_a, finite_b = a[0] != "p", b[0] != "p"
    n = min(len(sa), len(sb))
    k = 0
    while k < n and sa[k] == sb[k]:
        k += 1
    if k == len(sa) == len(sb) and (finite_a and finite_b or not (finite_a or finite_b)):
        return Fraction(0)
    # Restrictions at the split index k+1 are the first k+1 coordinates
    # (fewer when a finite point ends first).
    weights = [weight(s[:k + 1]) for s in (sa, sb) if MARK not in s[:k + 1]]
    return Fraction(1, 2 ** min(weights))


def in_cone(t, p) -> bool:
    s = symbols(p)
    return len(s) >= len(t) and MARK not in s[:len(t)] and tuple(s[:len(t)]) == tuple(t)


def member(B, p) -> bool:
    kind, t = B[0], tuple(B[1])
    if kind == "singleton":
        return p[0] == "f" and tuple(p[1]) == t
    if kind == "cone":
        return in_cone(t, p)
    if not in_cone(t, p) or (p[0] == "f" and tuple(p[1]) == t):
        return False
    return not any(in_cone(t + (j,), p) for j in range(B[2]))


def meets_cone(B, t) -> bool:
    """Whether the basic set B has a point in the cone at t."""
    kind, s = B[0], tuple(B[1])
    t = tuple(t)
    if s[:len(t)] == t:
        return True
    if kind == "singleton" or t[:len(s)] != s:
        return False
    return kind == "cone" or t[len(s)] >= B[2]


def nodes(depth: int, branch: int) -> list:
    """Every node of length up to depth with entries below branch, shortest first."""
    out = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [t + (e,) for t in frontier for e in range(branch)]
        out.extend(frontier)
    return out


def node_index(max_weight: int) -> dict:
    """Canonical positions of every node up to max_weight, by listing the
    nodes in order: weight, then length, then lexicographic."""
    found = [()]
    frontier = [()]
    while frontier:
        frontier = [t + (e,) for t in frontier for e in range(max_weight)
                    if weight(t) + 1 + e <= max_weight]
        found.extend(frontier)
    found.sort(key=canonical)
    return {t: i for i, t in enumerate(found)}


def table_image(table: dict, t) -> tuple:
    """Image of t under a finite table, extended beyond it by the identity
    successor step on top of the parent image."""
    t = tuple(t)
    if t in table:
        return tuple(table[t])
    if not t:
        return ()
    return table_image(table, t[:-1]) + (t[-1],)


def table_violation(table: dict, depth: int, branch: int):
    """The first node (canonical order) whose children break strict extension
    or sibling divergence, or None when the table is a meet embedding."""
    for t in sorted(nodes(depth - 1, branch), key=canonical):
        img = table_image(table, t)
        seen = set()
        for i in range(branch):
            child = table_image(table, t + (i,))
            if len(child) <= len(img) or child[:len(img)] != img or child[len(img)] in seen:
                return t
            seen.add(child[len(img)])
    return None


def meet_broken(table: dict, s, t) -> bool:
    """Whether the pair (s, t) witnesses a failure of meet preservation."""
    ps, pt = table_image(table, s), table_image(table, t)
    if ps == pt:
        return True
    k = 0
    while k < min(len(s), len(t)) and s[k] == t[k]:
        k += 1
    n = 0
    while n < min(len(ps), len(pt)) and ps[n] == pt[n]:
        n += 1
    return ps[:n] != table_image(table, s[:k])


def image_of_point(image, p, n: int) -> tuple:
    """First n coordinates of the extension of a node map to an infinite
    point: the limit of the images of its prefixes."""
    s = symbols(p)
    for k in range(len(s) + 1):
        img = image(tuple(s[:k]))
        if len(img) >= n:
            return tuple(img[:n])
    raise ValueError("image prefix not reached")


def preimage(image, t, depth: int, branch: int):
    """Shortest, then lexicographically first, node in range whose image
    extends t; None when there is none."""
    t = tuple(t)
    level = [()]
    for _ in range(depth + 1):
        for s in level:
            if image(s)[:len(t)] == t:
                return s
        level = [s + (i,) for s in level for i in range(branch)]
    return None
