"""Ops of the library workload: distances, balls, basic sets, canonical indices and covers.

Each cycle of 200 ops holds 180 point queries and 20 cover ops: for every
family depth 1-5, one cover_decide on a covering family, one on a family
with a member removed, one covers_cone and one uncovered_descent.  Cover
families are partitions of the space built by splitting cones, so whether
one covers, and which points it misses, is known from its construction.
"""
from __future__ import annotations

import random
from fractions import Fraction

import refs
from spec import DISTANCE_PAIRS as PAIRS

CYCLE = 200
TRACE_OPS = 400
MAX_WEIGHT = 14  # canonical_index queries stay below this weight
POINT_KINDS = [("distance", p) for p in PAIRS * 7] + [("ball_member", None)] * 35 \
    + [("basic_member", None)] * 35 + [("canonical", None)] * 40
COVER_KINDS = ["cover_decide", "cover_decide_miss", "covers_cone", "uncovered_descent"]


def _seq(rng, n, top=3):
    return tuple(rng.randrange(top + 1) for _ in range(n))


def _point(rng, kind, s):
    if kind == "f":
        return ("f", s)
    if kind == "a":
        return ("a", s)
    return ("p", s, _seq(rng, rng.randint(1, 2), 2))


def _pair(rng, label):
    if label == "near":
        head = _seq(rng, rng.randint(16, 40))
        ka, kb = rng.choice("fap"), rng.choice("fap")
        return (_point(rng, ka, head + _seq(rng, rng.randint(0, 3))),
                _point(rng, kb, head + _seq(rng, rng.randint(0, 3))))
    a = _point(rng, label[0], _seq(rng, rng.randint(0, 8)))
    if label == "pp" and rng.random() < 0.2:
        # the same sequence under another presentation
        return a, ("p", a[1] + a[2], a[2])
    return a, _point(rng, label[1], _seq(rng, rng.randint(0, 8)))


def _partition(depth):
    """Basic sets partitioning the space and mentioning nodes of length up to
    depth: {t}, the cone at t minus its child cone at 0, and so on down the
    zero path.  The enumeration in cover_decide is exponential in the depth
    over the two letters mentioned; with a third letter a covering family of
    depth 5 takes about a second to decide.
    """
    out = []
    for k in range(depth):
        out += [("singleton", (0,) * k), ("cone_minus", (0,) * k, 1)]
    return out + [("cone", (0,) * depth)]


def _family(rng, depth, covering):
    fam = _partition(depth)
    removed = None if covering else fam.pop(rng.randrange(len(fam)))
    rng.shuffle(fam)
    return fam, removed


def _node(rng):
    while True:
        t = _seq(rng, rng.randint(1, 8), 4)
        if refs.weight(t) <= MAX_WEIGHT:
            return t


def _basic(rng):
    t = _seq(rng, rng.randint(0, 3))
    kind = rng.choice(("singleton", "cone", "cone_minus"))
    return (kind, t, rng.randint(1, 3)) if kind == "cone_minus" else (kind, t)


def ops(seed: int):
    """The endless op stream: (index, kind, label, args) with plain-data args."""
    rng = random.Random(f"exact-queries:{seed}")
    index = 0
    while True:
        cycle = index // CYCLE
        kinds = POINT_KINDS + [(k, d) for k in COVER_KINDS for d in range(1, 6)]
        rng.shuffle(kinds)
        for kind, param in kinds:
            if kind == "distance":
                label, args = param, _pair(rng, param)
            elif kind == "ball_member":
                label = rng.choice(PAIRS)
                a, b = _pair(rng, label)
                d = refs.distance(a, b)
                exp = (d.denominator.bit_length() - 1 if d else 8) + rng.choice((-1, 0, 1))
                args = (a, max(exp, 0), b)
            elif kind == "basic_member":
                B = _basic(rng)
                if rng.random() < 0.5:
                    p = _point(rng, rng.choice("fap"), B[1] + _seq(rng, rng.randint(0, 3)))
                else:
                    p = _point(rng, rng.choice("fap"), _seq(rng, rng.randint(0, 4)))
                label, args = B[0], (B, p)
            elif kind == "canonical":
                label, args = None, _node(rng)
            else:
                label = f"d{param}"
                covering = kind == "cover_decide" or (kind == "covers_cone" and cycle % 2 == 0)
                fam, removed = _family(rng, param, covering)
                base = rng.choice(fam)[1][:rng.randint(0, param)]
                args = (fam, removed, base, rng.randrange(2 ** 32))
            yield index, kind, label, args
            index += 1


def warmup_ops(seed: int):
    """One small op of each kind; the canonical one fills the enumeration
    cache up to the largest weight the stream uses."""
    rng = random.Random(f"exact-queries-warmup:{seed}")
    fam, removed = _family(rng, 1, False)
    cover = (_family(rng, 1, True)[0], None, (), 0)
    return [
        (0, "distance", "ff", (("f", (0,)), ("f", (1,)))),
        (1, "ball_member", "ff", (("f", (0,)), 1, ("f", (1,)))),
        (2, "basic_member", "cone", (("cone", (0,)), ("f", (0, 1)))),
        (3, "canonical", None, (MAX_WEIGHT - 1,)),
        (4, "cover_decide", "d1", cover),
        (5, "cover_decide_miss", "d1", (fam, removed, (), 0)),
        (6, "covers_cone", "d1", cover),
        (7, "uncovered_descent", "d1", (fam, removed, (), 0)),
    ]


class Workload:
    def __init__(self):
        from seqstar import metric, sequences, topology

        self.m, self.s, self.t = metric, sequences, topology
        self._index = None

    def point(self, p):
        s = self.s
        if p[0] == "f":
            return s.FinitePoint(p[1])
        if p[0] == "a":
            return s.AugmentedPoint(p[1])
        return s.PeriodicPoint(p[1], p[2])

    def basic(self, B):
        t = self.t
        if B[0] == "singleton":
            return t.Singleton(B[1])
        if B[0] == "cone":
            return t.Cone(B[1])
        return t.ConeMinus(B[1], B[2])

    def prepare(self, kind, args):
        """Library objects for the op, built outside the timed call."""
        if kind == "distance":
            return self.point(args[0]), self.point(args[1])
        if kind == "ball_member":
            return self.point(args[0]), self.m.Dyadic(1, args[1]), self.point(args[2])
        if kind == "basic_member":
            return self.basic(args[0]), self.point(args[1])
        if kind == "canonical":
            return args
        return [self.basic(B) for B in args[0]], args[2]

    def call(self, kind, obj):
        if kind == "distance":
            return self.m.distance(*obj)
        if kind == "ball_member":
            return self.m.ball_member(*obj)
        if kind == "basic_member":
            return self.t.basic_member(*obj)
        if kind == "canonical":
            i = self.s.canonical_index(obj)
            return i, self.s.canonical_enumeration(i)
        fam, base = obj
        if kind in ("cover_decide", "cover_decide_miss"):
            return self.t.cover_decide(fam)
        if kind == "covers_cone":
            return self.t.covers_cone(fam, base)
        return self.t.uncovered_descent(fam)

    def plain(self, p):
        s = self.s
        if isinstance(p, s.FinitePoint):
            return ("f", p.seq)
        if isinstance(p, s.AugmentedPoint):
            return ("a", p.seq)
        if isinstance(p, s.PeriodicPoint):
            return ("p", p.head, p.period)
        raise TypeError(f"not a finitely presented point: {p!r}")

    def check(self, kind, args, got) -> str | None:
        """None when the answer agrees with the reference, else what differs."""
        m = self.m
        if kind == "distance":
            want = refs.distance(*args)
            if not isinstance(got, m.Exact):
                return f"{got!r} is not exact; want {want}"
            value = Fraction(got.value.num, 2 ** got.value.exp)
            return None if value == want else f"distance {value}, want {want}"
        if kind == "ball_member":
            want = refs.distance(args[0], args[2]) < Fraction(1, 2 ** args[1])
            return None if got is want else f"ball_member {got!r}, want {want}"
        if kind == "basic_member":
            want = refs.member(*args)
            return None if got is want else f"basic_member {got!r}, want {want}"
        if kind == "canonical":
            if self._index is None:
                self._index = refs.node_index(MAX_WEIGHT)
            want = self._index[args]
            return None if got == (want, args) else f"canonical {got!r}, want {(want, args)}"
        fam, removed, base, sample_seed = args
        if kind == "covers_cone":
            want = removed is None or not refs.meets_cone(removed, base)
            return None if got is want else f"covers_cone {got!r}, want {want}"
        if kind == "uncovered_descent":
            return self._uncovered(fam, removed, self.plain(got))
        if removed is None:
            if not isinstance(got, self.t.Covers):
                return f"{got!r} on a covering family"
            return self._sampled_cover(fam, sample_seed)
        if not isinstance(got, self.t.Counterexample):
            return f"{got!r} on a family missing {removed}"
        return self._uncovered(fam, removed, self.plain(got.point))

    def _uncovered(self, fam, removed, p) -> str | None:
        obj = self.point(p)
        if any(self.t.basic_member(self.basic(B), obj) for B in fam):
            return f"{p} is covered by basic_member"
        if not refs.member(removed, p):
            return f"{p} is not in the removed member {removed}"
        return None

    def _sampled_cover(self, fam, sample_seed, n=64) -> str | None:
        """Sample points, half of them over the family's own letters 0 and 1."""
        rng = random.Random(sample_seed)
        for _ in range(n):
            p = _point(rng, rng.choice("fap"), _seq(rng, rng.randint(0, 7), rng.choice((1, 3))))
            if not any(refs.member(B, p) for B in fam):
                return f"Covers, but {p} is in no member"
        return None
