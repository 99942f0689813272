"""The ten acceptance checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
checks complete.  Each check enforces its own wall-clock bound.
"""
import functools
import itertools
import json
import random
import sys
import time

import numpy as np

from seqstar.catalog import catalog_a, catalog_b, descriptor_to_json
from seqstar.constructions import (
    Constant,
    EmbedsIntoBaire,
    EmbedsIntoBaireStar,
    InT,
    category_refine,
    children_stabilize,
    classify_baire_function,
    diameter_shrink,
    discrete_refine,
    disjointify,
    epsilon_discrete_or_ball,
    limit_refine,
    ramsey_split,
    shrink_or_discrete,
)
from seqstar.embeddings import (
    Agrees,
    EmbeddingFamily,
    MeetEmbedding,
    Valid,
    amalgamate,
    extend,
    meet_preservation_oracle,
    validate,
)
from seqstar.metric import Dyadic, Exact, distance, weight_schedule
from seqstar.registry import space_function, tree_family, tree_set
from seqstar.sequences import (
    AugmentedPoint,
    DepthBudget,
    FinitePoint,
    PeriodicPoint,
    nodes_in_range,
)
from seqstar.topology import Cone, ConeMinus, Counterexample, Covers, Singleton, basic_member, cover_decide
from seqstar.trace import recheck

SCHED = weight_schedule()
BUDGET = DepthBudget(steps=5_000_000)


def criterion(num, title, limit_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"FAIL  criterion {num:2d}: {title}", file=sys.stderr)
                raise
            elapsed = time.monotonic() - start
            verdict = "PASS" if elapsed < limit_s else "FAIL"
            print(f"{verdict}  criterion {num:2d}: {title} ({elapsed:.2f}s, limit {limit_s}s)",
                  file=sys.stderr)
            assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s"
        return wrapper
    return deco


@criterion(1, "catalog counts 24 and 27", 1)
def test_criterion_01_catalog_counts():
    a, b = catalog_a(), catalog_b()
    assert len(a) == 24 and len(b) == 27
    assert len({json.dumps(descriptor_to_json(f), sort_keys=True) for f in a}) == 24
    assert len({json.dumps(descriptor_to_json(f), sort_keys=True) for f in b}) == 27


@criterion(2, "ultrametric axioms, exhaustive small + 10^4 random triples", 10)
def test_criterion_02_ultrametric():
    pts = []
    for L in range(5):
        for t in itertools.product(range(4), repeat=L):
            pts.append(FinitePoint(t))
            pts.append(AugmentedPoint(t))
    n = len(pts)

    def expo(a, b):
        r = distance(a, b)
        assert isinstance(r, Exact)
        if r.value == Dyadic.zero():
            return 10 ** 9
        assert r.value.num == 1  # every distance is a pure power of two
        return r.value.exp

    E = np.full((n, n), 10 ** 9, dtype=np.int64)
    for i, a in enumerate(pts):
        for j in range(i + 1, n):
            e = expo(a, pts[j])
            assert e < 10 ** 9  # distinct points have positive distance
            assert e == expo(pts[j], a)  # symmetry
            E[i, j] = E[j, i] = e
        assert distance(a, a).value == Dyadic.zero()

    # d(a,c) <= max(d(a,b), d(b,c))  <=>  E[a,c] >= min(E[a,b], E[b,c]);
    # one matrix comparison per middle point covers all (a, c) exhaustively
    for b in range(n):
        assert np.all(E >= np.minimum(E[:, b][:, None], E[b, :][None, :]))

    rng = random.Random(2026)

    def pt():
        t = tuple(rng.randrange(4) for _ in range(rng.randrange(12)))
        kind = rng.randrange(3)
        if kind == 0:
            return FinitePoint(t)
        if kind == 1:
            return AugmentedPoint(t)
        return PeriodicPoint(t, (rng.randrange(3),))

    def dval(a, b):
        r = distance(a, b)
        assert isinstance(r, Exact)
        return r.value

    for _ in range(10_000):
        a, b, c = pt(), pt(), pt()
        assert dval(a, c) <= max(dval(a, b), dval(b, c))


@criterion(3, "validate agrees with the meet-preservation oracle on 200 candidates", 10)
def test_criterion_03_validate_equivalence():
    rng = random.Random(3)

    def genuine():
        root = tuple(rng.randrange(3) for _ in range(rng.randrange(2)))
        memo = {(): root}

        def img(t):
            if t not in memo:
                tail = tuple(rng.randrange(3) for _ in range(rng.randrange(2)))
                memo[t] = img(t[:-1]) + (t[-1],) + tail
            return memo[t]

        return {t: img(t) for t in nodes_in_range(4, 4)}

    for k in range(200):
        table = genuine()
        if k % 2:
            t = rng.choice([u for u in table if u])
            if rng.randrange(2) or t[-1] == 0:
                table[t] = table[t[:-1]]  # strict extension broken
            else:
                # sibling divergence broken: reuse a sibling's image
                table[t] = table[t[:-1] + (t[-1] - 1,)]
        v = validate(table.__getitem__, 4, 4)
        o = meet_preservation_oracle(table.__getitem__, 4, 4)
        assert isinstance(v, Valid) == isinstance(o, Agrees), (k, v, o)


@criterion(4, "amalgamation products preserve meets; worked prefix family", 10)
def test_criterion_04_amalgamation():
    rng = random.Random(4)
    for _ in range(50):
        pad = tuple(rng.randrange(2) for _ in range(rng.randrange(2)))
        fam = EmbeddingFamily(lambda t, p=pad: MeetEmbedding.prefix(t + p))
        pi = amalgamate(fam, 4, 3)
        assert isinstance(meet_preservation_oracle(pi.apply, 4, 3), Agrees)
    pi = amalgamate(EmbeddingFamily(MeetEmbedding.prefix), 3, 3)
    a, b = 1, 2
    assert pi.apply((a, b)) == (a, a, b, a, b)


@criterion(5, "extension laws: marker images, injectivity, composition", 5)
def test_criterion_05_extension_laws():
    rng = random.Random(5)
    root = (1,)
    memo = {(): root}

    def img(t):
        if t not in memo:
            memo[t] = img(t[:-1]) + (t[-1],) + ((0,) if rng.randrange(2) else ())
        return memo[t]

    table = {t: img(t) for t in nodes_in_range(4, 3)}
    pi = MeetEmbedding.from_table(table)
    for t in nodes_in_range(3, 3):
        q = extend(pi, AugmentedPoint(t))
        assert isinstance(q, AugmentedPoint) and q.seq == pi.apply(t)
    pts = [FinitePoint(t) for t in nodes_in_range(3, 3)]
    pts += [AugmentedPoint(t) for t in nodes_in_range(3, 3)]
    imgs = [extend(pi, p) for p in pts]
    assert len(set(imgs)) == len(pts)
    outer = MeetEmbedding.prefix((2,))
    c = outer.compose(pi)
    for t in nodes_in_range(3, 3):
        assert c.apply(t) == outer.apply(pi.apply(t))
    for p in pts[:20]:
        assert extend(c, p) == extend(outer, extend(pi, p))


@criterion(6, "Ramsey split certified on even-sum and all-node trees", 1)
def test_criterion_06_ramsey():
    side, pe = ramsey_split(tree_set("even-sum"), 3, 3, BUDGET)
    assert isinstance(side, InT)
    assert all(sum(img) % 2 == 0 for img in pe.table.values())
    assert recheck(pe.trace).ok
    side, _ = ramsey_split(tree_set("all"), 3, 3, BUDGET)
    assert isinstance(side, InT)


@criterion(7, "category refinement meets every level constraint", 1)
def test_criterion_07_category():
    fam = tree_family("ends-in-zero-level")
    pe = category_refine(fam, (), 3, 3, BUDGET)
    for t, img in pe.table.items():
        assert fam(len(t)).member(img)
    assert recheck(pe.trace).ok


@criterion(8, "cover decision on worked families + sampled soundness", 10)
def test_criterion_08_covers():
    full = [Singleton(()), ConeMinus((), 3), Cone((0,)), Cone((1,)), Cone((2,))]
    broken = [Singleton(()), ConeMinus((), 3), Cone((0,)), Cone((2,))]
    assert isinstance(cover_decide(full), Covers)
    r = cover_decide(broken)
    assert isinstance(r, Counterexample) and r.point == FinitePoint((1,))
    rng = random.Random(8)

    def pt():
        t = tuple(rng.randrange(5) for _ in range(rng.randrange(5)))
        k = rng.randrange(3)
        if k == 0:
            return FinitePoint(t)
        if k == 1:
            return AugmentedPoint(t)
        return PeriodicPoint(t, (rng.randrange(3),))

    for _ in range(10_000):
        p = pt()
        assert any(basic_member(B, p) for B in full)
    assert not any(basic_member(B, r.point) for B in broken)


@criterion(9, "construction traces all recheck cleanly", 60)
def test_criterion_09_recheck():
    runs = [
        diameter_shrink(space_function("prefix-embed"), SCHED, 3, 3, BUDGET),
        diameter_shrink(space_function("const-zero"), SCHED, 2, 2, BUDGET),
        epsilon_discrete_or_ball(space_function("entry-sum"), Dyadic(1, 0), (), 2, 3, BUDGET)[1],
        epsilon_discrete_or_ball(space_function("const-zero"), Dyadic(1, 1), (), 2, 3, BUDGET)[1],
        epsilon_discrete_or_ball(space_function("two-pow-weight"), Dyadic(1, 0), (), 2, 3, BUDGET)[1],
        shrink_or_discrete(space_function("length"), SCHED, 2, 3, BUDGET)[1],
        shrink_or_discrete(space_function("two-pow-weight"), SCHED, 2, 3, BUDGET)[1],
        discrete_refine(space_function("two-pow-weight"), SCHED, 2, 3, BUDGET)[1],
        discrete_refine(space_function("enum-index"), SCHED, 2, 3, BUDGET)[1],
        limit_refine(space_function("zero-one-split"), SCHED, 2, 3, BUDGET)[1],
        limit_refine(space_function("depth-collapse"), SCHED, 2, 3, BUDGET)[1],
        disjointify(space_function("compactify-identity"), 2, 3, BUDGET),
        children_stabilize(space_function("last-entry"), budget=BUDGET)[0],
        classify_baire_function(space_function("compactify-identity"), budget=BUDGET)[1],
    ]
    for pe in runs:
        report = recheck(pe.trace)
        assert report.ok, (pe.trace["op"], report.failures)


@criterion(10, "classifier trichotomy with valid stage certificates", 30)
def test_criterion_10_classifier():
    shape, pe = classify_baire_function(space_function("const-zero"), budget=BUDGET)
    assert isinstance(shape, Constant) and recheck(pe.trace).ok
    shape, pe = classify_baire_function(space_function("baire-identity"), budget=BUDGET)
    assert isinstance(shape, EmbedsIntoBaire) and recheck(pe.trace).ok
    shape, pe = classify_baire_function(space_function("compactify-identity"), budget=BUDGET)
    assert isinstance(shape, EmbedsIntoBaireStar) and recheck(pe.trace).ok
