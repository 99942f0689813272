"""Recursive embedding-building procedures driven by caller-supplied oracles.

Each operation builds a finite embedding table by bounded search, records
every oracle answer it relied on as an exact-dyadic certificate, and
returns the table together with a JSON-ready trace.  Traces can be
re-verified offline (see trace.recheck): re-running the named oracle on the
recorded queries must reproduce the certifying inequalities exactly.

Density is never decided, only witnessed: every "pick an extension inside
the dense set" step is a bounded search through canonically ordered words,
failing with BudgetExceeded when the allowance runs out.
"""
from __future__ import annotations

import functools
from itertools import combinations, islice
from typing import Any, Callable, Iterable, Sequence

from . import sequences
from .metric import Dyadic, EpsilonSchedule, weight_schedule
from .sequences import (
    DEFAULT_BUDGET,
    AugmentedPoint,
    BudgetExceeded,
    DepthBudget,
    DomainMismatch,
    Frozen,
    PeriodicPoint,
    Point,
    Record,
    Seq,
    is_prefix,
    nodes_in_range,
    weight,
)
from .embeddings import MeetEmbedding, Valid, validate
from .registry import SpaceFunction, TreeFamily, TreeSetOracle, compose_function
from .serialize import node_key, point_to_json, table_to_json, value_to_json

Value = Any  # Dyadic or Point; equality/distance owned by the SpaceFunction


# --- result modes ---------------------------------------------------------


class InT(Frozen):
    __slots__ = ()


class InComplement(Frozen):
    __slots__ = ()


class Convergent(Frozen):
    __slots__ = ()


class Discrete(Frozen):
    __slots__ = ("eps",)


class DiscreteInjection(Frozen):
    __slots__ = ("eps",)


class InsideBall(Frozen):
    __slots__ = ("center",)


class DiameterToZero(Frozen):
    __slots__ = ()


class SeparatedClosure(Frozen):
    __slots__ = ("s", "delta")


class ContinuousAtBaire(Frozen):
    __slots__ = ()


class ConvergesToMember(Frozen):
    __slots__ = ("x",)


class ClosureAvoidsF(Frozen):
    __slots__ = ("eps", "u")


class GlobalConvergence(Frozen):
    __slots__ = ()


class PairwiseAvoidance(Frozen):
    __slots__ = ()


class Constant(Frozen):
    __slots__ = ()


class EmbedsIntoBaire(Frozen):
    __slots__ = ()


class EmbedsIntoBaireStar(Frozen):
    __slots__ = ()


class PartialEmbedding(Record):
    """A finite realization of a constructed embedding: the full table on
    its (depth, branch) range plus the trace that certifies it."""

    __slots__ = ("table", "depth", "branch", "trace")

    def __init__(self, table: dict[Seq, Seq], depth: int, branch: int, trace: dict):
        super().__init__(table, depth, branch, trace)
        v = validate(table, depth, branch)
        if not isinstance(v, Valid):
            raise AssertionError(f"constructed table fails validation: {v}")

    def embedding(self) -> MeetEmbedding:
        return MeetEmbedding.from_table(self.table)


# --- search plumbing ------------------------------------------------------


class _Steps:
    def __init__(self, total: int, stage: str):
        self.left = total
        self.stage = stage

    def tick(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise self.exhausted()

    def exhausted(self) -> BudgetExceeded:
        return BudgetExceeded(f"step budget exhausted in {self.stage}", stage=self.stage)


class _SearchFailed(Exception):
    """A single bounded node search came up empty (not a hard budget stop)."""


_LOCAL_CAP = 600  # candidates examined per single node search


@functools.lru_cache(maxsize=8)
def _word_pool(branch: int) -> tuple[Seq, ...]:
    """Candidate extension words in canonical order (weight, length, lex).

    All short words over a small alphabet, plus deep all-zero padding words
    so that length-sensitive searches can keep extending.
    """
    b = min(max(branch, 4), 6)
    words = set(nodes_in_range(4, b))
    words.update((0,) * k for k in range(5, 20))
    return tuple(sorted(words, key=lambda w: (weight(w), len(w), w)))


def _find(pred: Callable[[Seq], bool], start: Seq, pool: Sequence[Seq], steps: _Steps) -> Seq:
    """The first candidate start + w, w in pool, with pred(candidate).

    Each candidate costs one step; at most _LOCAL_CAP are tried."""
    left = steps.left
    try:
        for w in islice(pool, _LOCAL_CAP):
            left -= 1
            if left < 0:
                raise steps.exhausted()
            c = start + w
            if pred(c):
                return c
        raise _SearchFailed
    finally:
        steps.left = left


def _build_table(
    children: Callable[[Seq, Seq], list[Seq]],
    out_depth: int,
    out_branch: int,
) -> dict[Seq, Seq]:
    """The table rooted at () in which children(t, image of t) lists the
    images of t's children, asked once per parent in canonical order."""
    nodes = nodes_in_range(out_depth, out_branch)
    table: dict[Seq, Seq] = {(): ()}
    for t in nodes:
        if len(t) < out_depth:
            for i, image in enumerate(children(t, table[t])):
                table[t + (i,)] = image
    return {t: table[t] for t in nodes}


def _refine(
    pred_at: Callable[[Seq], Callable[[Seq], bool]],
    roots: Iterable[Seq],
    pool: Sequence[Seq],
    steps: _Steps,
    out_depth: int,
    out_branch: int,
    hint: Callable[[Seq, Seq], Seq | None] | None = None,
    failure: str | None = None,
) -> dict[Seq, Seq]:
    """The table of the first root that admits one, node by node in
    canonical order.

    The image of node u is the first candidate c that pred_at(u) accepts,
    asked once per node so that a per-node bound is worked out once: the
    root followed by a pool word for the empty node, otherwise the parent's
    image, u's last coordinate and a pool word.  hint(start, u), when
    given, proposes an extension of that start to try before the pool.
    When no root admits a table, this raises BudgetExceeded(failure) at the
    steps' stage, or _SearchFailed if no failure message is given.
    """
    for root in roots:
        table: dict[Seq, Seq] = {}
        try:
            for u in nodes_in_range(out_depth, out_branch):
                start = table[u[:-1]] + u[-1:] if u else root
                pred = pred_at(u)
                c = hint(start, u) if hint else None
                if c is not None and is_prefix(start, c) and pred(c):
                    steps.tick()
                else:
                    c = _find(pred, start, pool, steps)
                table[u] = c
        except _SearchFailed:
            continue
        return table
    if failure is None:
        raise _SearchFailed
    raise BudgetExceeded(failure, stage=steps.stage)


_TAIL = 16  # child whose augmented value stands in for the limit of a node's values


def _converging_table(phi: SpaceFunction, schedule: EpsilonSchedule, pool: Sequence[Seq],
                      steps: _Steps, out_depth: int, out_branch: int) -> tuple[dict, Point]:
    """Table whose augmented values lie within half the schedule of one
    limit, the value at the root image's child _TAIL; also that point."""

    def close(c: Seq, limit: Value, eps: Dyadic) -> bool:
        return phi.value_distance(phi.evaluate(AugmentedPoint(c)), limit) < eps

    def near_limit(u: Seq) -> Callable[[Seq], bool]:
        eps = schedule(u).half()
        return lambda c: close(c, limit, eps)

    eps = schedule(()).half()
    root = _find(lambda c: close(c, phi.evaluate(AugmentedPoint(c + (_TAIL,))), eps), (), pool, steps)
    tail = AugmentedPoint(root + (_TAIL,))
    limit = phi.evaluate(tail)
    # The root passes close() again at once: its limit is this one.
    return _refine(near_limit, [root], pool, steps, out_depth, out_branch), tail


def _separation(phi: SpaceFunction, xs: Iterable[Value], ys: Sequence[Value]) -> Dyadic | None:
    """The least distance between a value in xs and one in ys, or None if
    there is no pair or some pair is at distance zero."""
    least = None
    for x in xs:
        for y in ys:
            d = phi.value_distance(x, y)
            if d.is_zero():
                return None
            if least is None or d < least:
                least = d
    return least


def _cmp(kind: str, a: Point | list[Point], b: Point | list[Point], bound: Dyadic) -> dict:
    """A certificate comparing with bound the distance between the values
    at a and b; a side that is a list stands for each of its points."""
    return {"kind": kind, "a": a, "b": b, "bound": str(bound)}


def _prefix_table(s: Seq, out_depth: int, out_branch: int) -> dict[Seq, Seq]:
    """The table of the prefix embedding t -> s + t."""
    return {t: s + t for t in nodes_in_range(out_depth, out_branch)}


def _made(op: str, params: dict, table: dict[Seq, Seq], certs: list[dict],
          depth: int, branch: int, **extra) -> PartialEmbedding:
    """The table on its (depth, branch) range with the trace of op: params,
    the table, the points, a valid_table certificate before certs, then
    extra fields.  Each Point a certificate holds under a or b, alone or in
    a list, is written once into the points list and named by its index."""
    index: dict[Point, int] = {}
    for cert in certs:
        for key in ("a", "b"):
            p = cert.get(key)
            if p.__class__ is list:
                cert[key] = [index.setdefault(q, len(index)) for q in p]
            elif p is not None:
                cert[key] = index.setdefault(p, len(index))
    trace = {"op": op, "params": params, "table": table_to_json(table),
             "points": [point_to_json(p) for p in index],
             "certificates": [{"kind": "valid_table"}] + certs, **extra}
    return PartialEmbedding(table, depth, branch, trace)


# --- operations -----------------------------------------------------------


def ramsey_split(
    T: TreeSetOracle,
    out_depth: int,
    out_branch: int,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> tuple[InT | InComplement, PartialEmbedding]:
    """Build a full table landing entirely inside T or entirely outside it.

    Both sides are attempted, T first; within a side, candidate roots are
    tried in canonical order, each with per-node word searches.
    """
    pool = _word_pool(out_branch)
    roots = nodes_in_range(3, max(out_branch, 3))

    def attempt(inside: bool) -> dict[Seq, Seq]:
        steps = _Steps(budget.steps, "ramsey_split")
        member = T.member if inside else (lambda t: not T.member(t))
        return _refine(lambda u: member, roots, pool, steps, out_depth, out_branch,
                       failure="no root admits a full table on this side")

    try:
        table, side, inside = attempt(True), InT(), True
    except BudgetExceeded:
        table, side, inside = attempt(False), InComplement(), False

    certs = [{"kind": "in_set", "oracle": T.name, "node": list(img), "member": inside}
             for img in table.values()]
    return side, _made("ramsey_split", {"depth": out_depth, "branch": out_branch},
                       table, certs, out_depth, out_branch, oracle=T.name,
                       side="InT" if inside else "InComplement")


def category_refine(
    family: TreeFamily,
    s: Seq,
    out_depth: int,
    out_branch: int,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> PartialEmbedding:
    """Table rooted in the cone at s with every length-n image in T_n."""
    return _level_refine("category_refine", family, s, out_depth, out_branch, budget)


def continuity_refine(
    family: TreeFamily,
    s: Seq = (),
    out_depth: int = 3,
    out_branch: int = 3,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> PartialEmbedding:
    """Refine along a dense-open presentation of a continuity set.

    The presentation is the same data category_refine consumes, and the
    work is delegated wholesale.
    """
    return _level_refine("continuity_refine", family, s, out_depth, out_branch, budget)


def _level_refine(op: str, family: TreeFamily, s: Seq, out_depth: int, out_branch: int,
                  budget: DepthBudget) -> PartialEmbedding:
    """category_refine's search, traced under op."""
    levels = [family(n) for n in range(out_depth + 1)]

    def hint(start: Seq, u: Seq) -> Seq | None:
        dense = levels[len(u)].dense_extension
        return None if dense is None else tuple(dense(start))

    table = _refine(lambda u: levels[len(u)].member, [tuple(s)], _word_pool(out_branch),
                    _Steps(budget.steps, op), out_depth, out_branch, hint,
                    failure="level constraint not reachable by search")
    certs = [{"kind": "in_set", "family_level": len(t), "node": list(img), "member": True}
             for t, img in table.items()]
    return _made(op, {"depth": out_depth, "branch": out_branch, "root": list(s)},
                 table, certs, out_depth, out_branch, family=family.name)


def diameter_shrink(
    phi: SpaceFunction,
    schedule: EpsilonSchedule | None = None,
    out_depth: int = 3,
    out_branch: int = 3,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> PartialEmbedding:
    """Table with cone_diameter(image of t) < epsilon_t for every node."""
    schedule = schedule or weight_schedule()
    if phi.cone_diameter is None:
        raise DomainMismatch("diameter_shrink needs a cone_diameter oracle")

    def small(u: Seq) -> Callable[[Seq], bool]:
        eps = schedule(u)
        return lambda c: phi.cone_diameter(c) < eps

    table = _refine(small, [()], _word_pool(out_branch),
                    _Steps(budget.steps, "diameter_shrink"), out_depth, out_branch,
                    failure="no image with small enough cone diameter")
    certs = [{"kind": "diam_lt", "node": list(img), "eps": str(schedule(t))}
             for t, img in table.items()]
    return _made("diameter_shrink",
                 {"depth": out_depth, "branch": out_branch, "schedule": schedule.name},
                 table, certs, out_depth, out_branch, function=phi.spec)


def children_stabilize(
    phi: SpaceFunction,
    selector_budget: int = 48,
    out_depth: int = 2,
    out_branch: int = 3,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> tuple[PartialEmbedding, dict[Seq, Convergent | Discrete]]:
    """Re-index children so the values at each node's augmented children
    form a certified convergent chain or a certified discrete family.

    Convergence is tested against the deepest probed child as candidate
    limit, with tolerances halving per step starting from 1; discreteness
    by the largest power-of-two separation a greedy pick sustains.  A
    node's values are evaluated as the scans read them, the limit first,
    so a convergent chain reads only its prefix.  budget is not read; it
    stays for the signature the ops share.
    """
    chain_len = max(out_branch, 8)
    if chain_len > selector_budget:
        raise BudgetExceeded("selector budget below required chain length",
                             stage="children_stabilize")
    verdicts: dict[Seq, Convergent | Discrete] = {}
    certs: list[dict] = []

    def stabilize(node: Seq, r: Seq) -> list[int]:
        tail = selector_budget - 1
        limit = phi.evaluate(AugmentedPoint(r + (tail,)))
        values = {tail: limit}

        def value(k: int) -> Value:
            if k not in values:
                values[k] = phi.evaluate(AugmentedPoint(r + (k,)))
            return values[k]

        picks: list[int] = []
        k = 0
        while len(picks) < chain_len and k < tail:
            if phi.value_distance(value(k), limit) <= Dyadic.pow2(-len(picks)):
                picks.append(k)
            k += 1
        if len(picks) == chain_len:
            verdicts[node] = Convergent()
            for i, kk in enumerate(picks[:out_branch]):
                certs.append(_cmp("value_dist_le", AugmentedPoint(r + (kk,)),
                                  AugmentedPoint(r + (tail,)), Dyadic.pow2(-i)))
            return picks[:out_branch]
        for e in range(13):
            eps = Dyadic.pow2(-e)
            picks = []
            for k in range(selector_budget):
                v = value(k)
                if all(phi.value_distance(v, values[p]) >= eps for p in picks):
                    picks.append(k)
                if len(picks) == out_branch:
                    break
            if len(picks) == out_branch:
                verdicts[node] = Discrete(eps)
                for a, b in combinations(picks, 2):
                    certs.append(_cmp("value_dist_ge", AugmentedPoint(r + (a,)),
                                      AugmentedPoint(r + (b,)), eps))
                return picks
        raise BudgetExceeded(f"neither verdict certified at {node}",
                             stage="children_stabilize")

    table = _build_table(lambda t, r: [r + (k,) for k in stabilize(t, r)], out_depth, out_branch)
    return _made("children_stabilize",
                 {"depth": out_depth, "branch": out_branch, "selector_budget": selector_budget},
                 table, certs, out_depth, out_branch, function=phi.spec,
                 verdicts={node_key(t): ("Convergent" if isinstance(v, Convergent)
                                         else f"Discrete:{v.eps}")
                           for t, v in sorted(verdicts.items())}), verdicts


def disjointify(
    phi: SpaceFunction,
    out_depth: int = 2,
    out_branch: int = 3,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> PartialEmbedding:
    """Table whose sibling child cones carry values certified apart:
    dist(sample_i, sample_j) > diam_i + diam_j for all sibling pairs.  The
    samples are periodic points, which no budget bounds; budget stays for
    the signature the ops share."""
    if phi.cone_diameter is None:
        raise DomainMismatch("disjointify needs a cone_diameter oracle")
    certs: list[dict] = []
    pairs = list(combinations(range(out_branch), 2))

    def children(t: Seq, r: Seq) -> list[Seq]:
        samples = [PeriodicPoint(r + (i,), (0,)) for i in range(out_branch)]
        values = [phi.evaluate(p) for p in samples]
        for a, b in pairs:
            if phi.value_distance(values[a], values[b]).is_zero():
                raise BudgetExceeded(
                    f"samples below {r} do not separate (constant region?)",
                    stage="disjointify")
        for m in range(24):
            imgs = [p.restrict(len(r) + 1 + m).seq for p in samples]
            ok = all(
                phi.value_distance(values[a], values[b])
                > phi.cone_diameter(imgs[a]) + phi.cone_diameter(imgs[b])
                for a, b in pairs
            )
            if ok:
                for a, b in pairs:
                    certs.append({"kind": "dist_gt_sum", "a": samples[a], "b": samples[b],
                                  "na": list(imgs[a]), "nb": list(imgs[b])})
                return imgs
        raise BudgetExceeded(f"separation never dominates diameters below {r}",
                             stage="disjointify")

    table = _build_table(children, out_depth, out_branch)
    return _made("disjointify", {"depth": out_depth, "branch": out_branch},
                 table, certs, out_depth, out_branch, function=phi.spec)


def limit_refine(
    phi: SpaceFunction,
    schedule: EpsilonSchedule | None = None,
    out_depth: int = 2,
    out_branch: int = 3,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> tuple[SeparatedClosure | ContinuousAtBaire, PartialEmbedding]:
    """Certify continuity at infinite points, or fall back to a uniform
    separation between infinite-part and augmented-part values."""
    schedule = schedule or weight_schedule()
    steps = _Steps(budget.steps, "limit_refine")
    pool = _word_pool(out_branch)
    params = {"depth": out_depth, "branch": out_branch, "schedule": schedule.name}

    def near(node: Seq) -> Callable[[Seq], bool]:
        eps = schedule(node)

        def at(img: Seq) -> bool:
            b = PeriodicPoint(img, (0,))
            return phi.value_distance(phi.evaluate(b), phi.evaluate(AugmentedPoint(img))) < eps

        return at

    try:
        table = _refine(near, [()], pool, steps, out_depth, out_branch)
        certs = [_cmp("value_dist_lt", PeriodicPoint(img, (0,)), AugmentedPoint(img), schedule(t))
                 for t, img in table.items()]
        return ContinuousAtBaire(), _made("limit_refine", params, table, certs, out_depth,
                                          out_branch, function=phi.spec, mode="ContinuousAtBaire")
    except (_SearchFailed, BudgetExceeded):
        pass

    aug_words = [w for w in pool if len(w) <= 2][:12]
    for s in nodes_in_range(2, max(out_branch, 3)):
        steps.tick()
        baire = [PeriodicPoint(s + w, (0,)) for w in aug_words[:6]]
        augs = [AugmentedPoint(s + w) for w in aug_words]
        delta = _separation(phi, (phi.evaluate(b) for b in baire), [phi.evaluate(a) for a in augs])
        if delta is not None:
            table = _prefix_table(s, out_depth, out_branch)
            return SeparatedClosure(s, delta), _made(
                "limit_refine", params, table, [_cmp("value_dist_ge", baire, augs, delta)],
                out_depth, out_branch,
                function=phi.spec, mode="SeparatedClosure", s=list(s), delta=str(delta))
    raise BudgetExceeded("neither continuity nor separation certified", stage="limit_refine")


def epsilon_discrete_or_ball(
    phi: SpaceFunction,
    eps: Dyadic,
    t: Seq = (),
    out_depth: int = 2,
    out_branch: int = 3,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> tuple[DiscreteInjection | InsideBall, PartialEmbedding]:
    """Inject the range into an eps-discrete value set, or certify all
    values inside the eps-ball around one attained value.

    The discrete branch walks nodes in canonical enumeration order; the
    image of the n-th node extends its parent's image by the child
    coordinate n, so sibling divergence is automatic.  A zero eps is a
    DomainMismatch: every distance is >= 0, so it would certify nothing.
    """
    if eps.is_zero():
        raise DomainMismatch("eps must be positive, got 0")
    t = tuple(t)
    steps = _Steps(budget.steps, "epsilon_discrete_or_ball")
    pool = _word_pool(out_branch)
    params = {"depth": out_depth, "branch": out_branch, "eps": str(eps), "root": list(t)}

    try:
        table: dict[Seq, Seq] = {}
        chosen_values: list[Value] = []

        def fresh(c: Seq) -> bool:
            v = phi.evaluate(AugmentedPoint(c))
            for old in chosen_values:
                if not phi.value_distance(v, old) >= eps:
                    return False
            chosen_values.append(v)  # _find takes the first candidate accepted
            return True

        for n, u in enumerate(nodes_in_range(out_depth, out_branch)):
            table[u] = _find(fresh, table[u[:-1]] + (n,) if u else t, pool, steps)
        imgs = [AugmentedPoint(img) for img in table.values()]
        certs = [_cmp("value_dist_ge", a, imgs[i + 1:], eps) for i, a in enumerate(imgs[:-1])]
        return DiscreteInjection(eps), _made("epsilon_discrete_or_ball", params, table, certs,
                                             out_depth, out_branch, function=phi.spec,
                                             mode="DiscreteInjection")
    except (_SearchFailed, BudgetExceeded):
        pass

    steps = _Steps(budget.steps, "epsilon_discrete_or_ball")
    for u in pool[:16]:
        center_point = AugmentedPoint(t + u)
        center = phi.evaluate(center_point)

        def inside(c: Seq) -> bool:
            return phi.value_distance(phi.evaluate(AugmentedPoint(c)), center) < eps

        try:
            table = _refine(lambda _u: inside, [t], pool, steps, out_depth, out_branch)
        except _SearchFailed:
            continue
        certs = [_cmp("value_dist_lt", AugmentedPoint(img), center_point, eps)
                 for img in table.values()]
        return InsideBall(center), _made("epsilon_discrete_or_ball", params, table, certs,
                                         out_depth, out_branch, function=phi.spec,
                                         mode="InsideBall", center=value_to_json(center))
    raise BudgetExceeded("neither discrete injection nor ball certified",
                         stage="epsilon_discrete_or_ball")


def shrink_or_discrete(
    phi: SpaceFunction,
    schedule: EpsilonSchedule | None = None,
    out_depth: int = 2,
    out_branch: int = 3,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> tuple[DiscreteInjection | DiameterToZero, PartialEmbedding]:
    """Discrete injection at unit scale, or a table whose per-cone value
    sets have diameter below the schedule, certified pairwise."""
    schedule = schedule or weight_schedule()
    try:
        mode, pe = epsilon_discrete_or_ball(phi, Dyadic.one(), (), out_depth, out_branch, budget)
        if isinstance(mode, DiscreteInjection):
            pe.trace["op"] = "shrink_or_discrete"
            return mode, pe
    except BudgetExceeded:
        pass

    try:
        table, _ = _converging_table(phi, schedule, _word_pool(out_branch),
                                     _Steps(budget.steps, "shrink_or_discrete"),
                                     out_depth, out_branch)
    except _SearchFailed:
        raise BudgetExceeded("diameter-to-zero table not reachable", stage="shrink_or_discrete")

    certs = []
    values = {u: phi.evaluate(AugmentedPoint(img)) for u, img in table.items()}
    for t in table:
        cone = [u for u in table if is_prefix(t, u)]
        members = [table[u] for u in cone]
        eps_t = schedule(t)
        for a, b in combinations(cone, 2):
            d = phi.value_distance(values[a], values[b])
            if not d < eps_t:
                raise BudgetExceeded(f"cone value diameter not below {eps_t} at {t}",
                                     stage="shrink_or_discrete")
        certs.append({"kind": "cone_value_diam_lt",
                      "members": [list(m) for m in members], "eps": str(eps_t)})
    certs.append({"kind": "meet_table"})
    return DiameterToZero(), _made(
        "shrink_or_discrete", {"depth": out_depth, "branch": out_branch, "schedule": schedule.name},
        table, certs, out_depth, out_branch, function=phi.spec, mode="DiameterToZero")


def point_avoid(
    phi: SpaceFunction,
    x: Value,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> tuple[Seq, PartialEmbedding]:
    """A node below which every sampled augmented value differs from x."""
    steps = _Steps(budget.steps, "point_avoid")
    words = nodes_in_range(2, 4)
    for s in nodes_in_range(3, 4):
        steps.tick()
        dists = [phi.value_distance(phi.evaluate(AugmentedPoint(s + u)), x) for u in words]
        if all(not d.is_zero() for d in dists):
            certs = [{"kind": "avoid_value", "a": AugmentedPoint(s + u),
                      "x": value_to_json(x), "bound": str(d)}
                     for u, d in zip(words, dists)]
            table = _prefix_table(s, 2, 3)
            return s, _made("point_avoid", {"x": value_to_json(x)}, table, certs, 2, 3,
                            function=phi.spec, s=list(s))
    raise BudgetExceeded("no avoiding node certified within budget", stage="point_avoid")


def finite_avoid_or_converge(
    phi: SpaceFunction,
    F: Sequence[Value],
    t: Seq = (),
    out_depth: int = 2,
    out_branch: int = 3,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> tuple[ConvergesToMember | ClosureAvoidsF, PartialEmbedding]:
    """Converge to a member of the finite value set F, or certify a uniform
    positive separation from all of F below some extension of t."""
    schedule = weight_schedule()
    t = tuple(t)
    pool = _word_pool(out_branch)
    params = {"depth": out_depth, "branch": out_branch, "root": list(t)}

    def near(x: Value, u: Seq) -> Callable[[Seq], bool]:
        eps = schedule(u)
        return lambda c: phi.value_distance(phi.evaluate(AugmentedPoint(c)), x) < eps

    for x in F:
        steps = _Steps(budget.steps, "finite_avoid_or_converge")
        try:
            table = _refine(functools.partial(near, x), [t], pool, steps, out_depth, out_branch)
        except (_SearchFailed, BudgetExceeded):
            continue
        certs = [{"kind": "avoid_value", "op": "lt", "a": AugmentedPoint(img),
                  "x": value_to_json(x), "bound": str(schedule(u))}
                 for u, img in table.items()]
        return ConvergesToMember(x), _made("finite_avoid_or_converge", params, table, certs,
                                           out_depth, out_branch, function=phi.spec,
                                           mode="ConvergesToMember", x=value_to_json(x))

    steps = _Steps(budget.steps, "finite_avoid_or_converge")
    words = [w for w in pool if len(w) <= 2][:12]
    for u0 in pool[:24]:
        steps.tick()
        u = t + u0
        delta = _separation(phi, (phi.evaluate(AugmentedPoint(u + w)) for w in words), F)
        if delta is not None:
            table = _prefix_table(u, out_depth, out_branch)
            certs = [{"kind": "avoid_value", "a": AugmentedPoint(u + w),
                      "x": value_to_json(x), "bound": str(delta)}
                     for w in words for x in F]
            return ClosureAvoidsF(delta, u), _made(
                "finite_avoid_or_converge", params, table, certs, out_depth, out_branch,
                function=phi.spec, mode="ClosureAvoidsF", eps=str(delta), u=list(u))
    raise BudgetExceeded("neither convergence nor avoidance certified",
                         stage="finite_avoid_or_converge")


def discrete_refine(
    phi: SpaceFunction,
    schedule: EpsilonSchedule | None = None,
    out_depth: int = 2,
    out_branch: int = 3,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> tuple[GlobalConvergence | PairwiseAvoidance, PartialEmbedding]:
    """All values converge to one limit, or earlier nodes' augmented values
    stay positively separated from everything sampled below later nodes."""
    schedule = schedule or weight_schedule()
    pool = _word_pool(out_branch)
    steps = _Steps(budget.steps, "discrete_refine")
    params = {"depth": out_depth, "branch": out_branch, "schedule": schedule.name}

    try:
        table, tail_point = _converging_table(phi, schedule, pool, steps, out_depth, out_branch)
        certs = [_cmp("value_dist_lt", AugmentedPoint(img), tail_point, schedule(u).half())
                 for u, img in table.items()]
        certs.append({"kind": "meet_table"})
        return GlobalConvergence(), _made("discrete_refine", params, table, certs, out_depth,
                                          out_branch, function=phi.spec, mode="GlobalConvergence")
    except (_SearchFailed, BudgetExceeded):
        pass

    steps = _Steps(budget.steps, "discrete_refine")
    below_words = [w for w in pool if len(w) <= 1][:4]  # (), (0,), (1,), (2,)
    table = {}
    limits: list[Value] = []  # the value at each image so far
    limit_points: list[Point] = []  # AugmentedPoint(image), likewise
    certs = []

    bound = None  # the least distance avoiding() found for the candidate it accepted

    def avoiding(c: Seq) -> bool:
        """Whether every value below c keeps a positive distance from the limits."""
        nonlocal bound
        worst = v0 = None
        for w in below_words:
            v = phi.evaluate(AugmentedPoint(c + w))
            if not w:
                v0 = v
            for x in limits:
                d = phi.value_distance(x, v)
                if d.is_zero():
                    return False
                worst = d if worst is None or d < worst else worst
        bound = worst if worst is not None else Dyadic.one()
        limits.append(v0)  # _find takes the first candidate accepted
        return True

    try:
        for u in nodes_in_range(out_depth, out_branch):
            img = _find(avoiding, table[u[:-1]] + u[-1:] if u else (), pool, steps)
            if limit_points:
                certs.append(_cmp("avoid_pair", limit_points[:],
                                  [AugmentedPoint(img + w) for w in below_words], bound))
            table[u] = img
            limit_points.append(AugmentedPoint(img))
    except _SearchFailed:
        raise BudgetExceeded("pairwise avoidance not certified", stage="discrete_refine")
    certs.append({"kind": "meet_table"})
    return PairwiseAvoidance(), _made("discrete_refine", params, table, certs, out_depth,
                                      out_branch, function=phi.spec, mode="PairwiseAvoidance")


def disjoint_refine(phi: SpaceFunction, witness: Point, delta: Dyadic) -> PartialEmbedding:
    """Prefix embedding at an initial segment of the witness, at most
    LAZY_DEPTH long, whose cone has image diameter below delta/3,
    separating the infinite-part values from the augmented-part samples."""
    if phi.cone_diameter is None:
        raise DomainMismatch("disjoint_refine needs a cone_diameter oracle")
    third = Dyadic(delta.num, delta.exp + 2)  # delta/4 <= delta/3, still positive
    wb = phi.evaluate(witness)
    aug_words = nodes_in_range(2, 3)
    for u in aug_words:
        d = phi.value_distance(wb, phi.evaluate(AugmentedPoint(u)))
        if d < delta:
            raise BudgetExceeded(
                f"witness separation fails: augmented sample at {u} is at distance {d} < {delta}",
                stage="disjoint_refine")
    s = None
    for i in range(sequences.LAZY_DEPTH + 1):
        pre = witness.restrict(i)
        if pre.marked:
            break
        if phi.cone_diameter(pre.seq) < third:
            s = pre.seq
            break
    if s is None:
        raise BudgetExceeded("no witness prefix with small enough image diameter",
                             stage="disjoint_refine")
    certs = [{"kind": "diam_lt", "node": list(s), "eps": str(third)},
             _cmp("value_dist_le", PeriodicPoint(s, (0,)), witness, third)]
    certs += [_cmp("value_dist_ge", witness, AugmentedPoint(u), delta) for u in aug_words]
    table = _prefix_table(s, 2, 3)
    return _made("disjoint_refine", {"delta": str(delta)}, table, certs, 2, 3,
                 function=phi.spec, witness=point_to_json(witness), s=list(s))


# The shape classify_baire_function reports when every child verdict is of one
# class; registry.SHAPE_OF_VERDICT holds the same pairs by name, for recheck.
_SHAPE_OF_VERDICT = {Convergent: EmbedsIntoBaireStar, Discrete: EmbedsIntoBaire}


def classify_baire_function(
    phi: SpaceFunction,
    out_depth: int = 2,
    out_branch: int = 3,
    budget: DepthBudget = DEFAULT_BUDGET,
) -> tuple[Constant | EmbedsIntoBaire | EmbedsIntoBaireStar, PartialEmbedding]:
    """Trichotomy pipeline: constant-region probe, then diameter shrinking,
    child stabilization (uniform verdict required), and disjointification,
    with the composite table and all stage traces as evidence."""
    params = {"depth": out_depth, "branch": out_branch}
    probes = [PeriodicPoint(t, (0,)) for t in nodes_in_range(2, 3)[:9]]
    values = [phi.evaluate(p) for p in probes]
    if all(phi.value_distance(values[0], v).is_zero() for v in values[1:]):
        certs = [_cmp("value_dist_le", probes[0], p, Dyadic.zero()) for p in probes[1:]]
        table = _prefix_table((), out_depth, out_branch)
        return Constant(), _made("classify_baire_function", params, table, certs, out_depth,
                                 out_branch, function=phi.spec, shape="Constant", stages=[])

    st1 = diameter_shrink(phi, None, out_depth, out_branch, budget)
    phi1 = compose_function(phi, st1.table)
    st2, verdicts = children_stabilize(phi1, 48, out_depth, out_branch, budget)
    kinds = {v.__class__ for v in verdicts.values()}
    if len(kinds) != 1:
        raise BudgetExceeded("mixed child verdicts; no uniform shape certified",
                             stage="classify_baire_function")
    shape = _SHAPE_OF_VERDICT[kinds.pop()]()
    phi2 = compose_function(phi1, st2.table)
    st3 = disjointify(phi2, out_depth, out_branch, budget)

    pi1, pi2, pi3 = (st.embedding() for st in (st1, st2, st3))
    table = {t: pi1.apply(pi2.apply(pi3.apply(t))) for t in st3.table}
    return shape, _made("classify_baire_function", params, table, [{"kind": "meet_table"}],
                        out_depth, out_branch, function=phi.spec, shape=type(shape).__name__,
                        stages=[st1.trace, st2.trace, st3.trace])
