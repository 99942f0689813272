"""The exact dyadic ultrametric on the compactified sequence space.

Distances and radii are dyadic rationals m * 2^-k, compared exactly; no
floating point is used anywhere.
"""
from __future__ import annotations

import re

from . import sequences
from .sequences import (
    Frozen,
    Point,
    Seq,
    Undetermined,
    set_field,
    split_and_weight,
    weight,
)


_SHARED = 128  # 2^-k for k below this is one Dyadic, built once


class Dyadic:
    """A nonnegative rational m * 2^-k with m odd or zero (canonical form).
    Only __init__ sets num and exp, so one value may be shared."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if num < 0:
            raise ValueError("dyadics are nonnegative")
        if exp > 0 and num and not num & 1:
            k = (num & -num).bit_length() - 1  # trailing zero bits
            if k > exp:
                k = exp
            num >>= k
            exp -= k
        if num == 0:
            exp = 0
        if exp < 0:
            num <<= -exp
            exp = 0
        self.num = num
        self.exp = exp

    @classmethod
    def zero(cls) -> "Dyadic":
        return cls(0)

    @classmethod
    def one(cls) -> "Dyadic":
        return cls(1)

    @classmethod
    def pow2(cls, k: int) -> "Dyadic":
        """2^k for k <= 0, or the integer 2^k for k > 0.  2^-k for k below
        _SHARED is the one value a table holds, not a new Dyadic."""
        if k > 0:
            return cls(1 << k)
        if k > -_SHARED:
            return _NEGATIVE_POWERS[-k]
        return cls(1, -k)

    def __eq__(self, other):
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self):
        return hash((self.num, self.exp))

    # Compare m * 2^-k with n * 2^-l as m * 2^l with n * 2^k.
    def __lt__(self, other):
        return self.num << other.exp < other.num << self.exp

    def __le__(self, other):
        return self.num << other.exp <= other.num << self.exp

    def __gt__(self, other):
        return self.num << other.exp > other.num << self.exp

    def __ge__(self, other):
        return self.num << other.exp >= other.num << self.exp

    def __add__(self, other):
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    def __sub__(self, other):
        e = max(self.exp, other.exp)
        n = (self.num << (e - self.exp)) - (other.num << (e - other.exp))
        return Dyadic(n, e)

    def __mul__(self, other):
        if isinstance(other, int):
            return Dyadic(self.num * other, self.exp)
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def half(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    def is_zero(self) -> bool:
        return self.num == 0

    def abs_diff(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self.num, other.num, self.exp
        if e > other.exp:
            b <<= e - other.exp
        elif e < other.exp:
            a <<= other.exp - e
            e = other.exp
        return Dyadic(a - b if a >= b else b - a, e)

    def __str__(self):
        if self.exp == 0:
            return str(self.num)
        if self.num == 1 and self.exp == 1:
            return "1/2"
        if self.num == 1:
            return f"2^-{self.exp}"
        return f"{self.num}·2^-{self.exp}"

    def __repr__(self):
        return f"Dyadic({self})"

    @classmethod
    def parse(cls, s: str) -> "Dyadic":
        s = s.strip().replace("*", "·")
        if re.fullmatch(r"\d+", s):
            return cls(int(s))
        m = re.fullmatch(r"(\d+)/(\d+)", s)
        if m:
            num, den = int(m.group(1)), int(m.group(2))
            if den & (den - 1) or den == 0:
                raise ValueError(f"denominator of {s!r} is not a power of two")
            return cls(num, den.bit_length() - 1)
        m = re.fullmatch(r"(?:(\d+)·)?2\^-(\d+)", s)
        if m:
            return cls(int(m.group(1) or 1), int(m.group(2)))
        raise ValueError(f"cannot parse dyadic {s!r}")


_NEGATIVE_POWERS = tuple(Dyadic(1, k) for k in range(_SHARED))  # 2^-k at index k


def radius(t: Seq) -> Dyadic:
    """The radius 2^-(len + sum of entries) at node t."""
    return Dyadic.pow2(-weight(t))


class EpsilonSchedule(Frozen):
    """A node-indexed family of positive dyadic radii, decreasing along the
    prefix order and vanishing per weight level."""

    __slots__ = ("name", "rule")

    def __call__(self, t: Seq) -> Dyadic:
        return self.rule(t)


_WEIGHT_SCHEDULE = EpsilonSchedule("weight", radius)


def weight_schedule() -> EpsilonSchedule:
    """radius as a schedule, one shared instance."""
    return _WEIGHT_SCHEDULE


class Exact(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: Dyadic):
        set_field(self, "value", value)


class Bounded(Frozen):
    """The true distance is at most ``upper`` (zero if the points are equal)."""

    __slots__ = ("upper",)

    def __init__(self, upper: Dyadic):
        set_field(self, "upper", upper)


DistanceResult = Exact | Bounded


def distance(a: Point, b: Point) -> DistanceResult:
    """The ultrametric distance 2^-w, w the split weight of a and b (see
    split_and_weight); zero on equal points.  Exact on finitely presented
    points; Bounded where a lazy point agrees with the other to LAZY_DEPTH."""
    if a == b:
        return Exact(Dyadic.zero())
    s = split_and_weight(a, b)
    if s.__class__ is Undetermined:
        return Bounded(radius(a.restrict(s.depth).seq))
    return Exact(Dyadic.pow2(-s[1]))


def ball_member(center: Point, radius: Dyadic, p: Point) -> bool | Undetermined:
    """Membership of p in the open ball around center; Undetermined where a
    bounded distance, of points that agree to LAZY_DEPTH, does not settle it."""
    d = distance(center, p)
    if isinstance(d, Exact):
        return d.value < radius
    if d.upper < radius:
        return True
    return Undetermined(sequences.LAZY_DEPTH)
