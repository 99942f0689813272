import random

import pytest
from hypothesis import given, settings, strategies as st

from seqstar import sequences
from seqstar.embeddings import (
    Agrees,
    ContainmentError,
    Disagrees,
    EmbeddingFamily,
    Empty,
    InvalidEmbedding,
    MeetEmbedding,
    Valid,
    Violation,
    amalgamate,
    extend,
    meet_preservation_oracle,
    preimage_cone,
    validate,
)
from seqstar.sequences import (
    AugmentedPoint,
    BudgetExceeded,
    FinitePoint,
    InfinitePoint,
    PeriodicPoint,
    Undetermined,
    is_prefix,
    meet,
    nodes_in_range,
    restrict,
    split_index,
)
from seqstar.topology import Cone


def random_child_map(rng, depth, branch, width=3):
    """Build a genuine embedding by choosing a root and per-child words."""
    root = tuple(rng.randrange(width) for _ in range(rng.randrange(2)))

    memo = {(): root}

    def img(t):
        if t not in memo:
            parent = img(t[:-1])
            # distinct fork coordinate per sibling, then a random tail
            tail = tuple(rng.randrange(width) for _ in range(rng.randrange(2)))
            memo[t] = parent + (t[-1],) + tail
        return memo[t]

    return {t: img(t) for t in nodes_in_range(depth, branch)}


def mutate(table, rng):
    t = rng.choice([k for k in table if k])
    bad = dict(table)
    bad[t] = table[t[:-1]]  # break strict extension at t
    return bad


def test_validate_accepts_prefix_and_identity():
    assert isinstance(validate(MeetEmbedding.prefix((0,)).apply, 4, 3), Valid)
    assert isinstance(validate(MeetEmbedding.identity().apply, 4, 3), Valid)


def test_validate_rejects_constant_map():
    v = validate(lambda t: (), 3, 2)
    assert isinstance(v, Violation)


def test_validate_matches_meet_oracle_on_generated_candidates():
    rng = random.Random(3)
    for k in range(40):
        table = random_child_map(rng, 3, 3)
        if k % 2:
            table = mutate(table, rng)
        v = validate(table, 3, 3)
        o = meet_preservation_oracle(table.__getitem__, 3, 3)
        assert isinstance(v, Valid) == isinstance(o, Agrees)


def reference_meet_oracle(table, depth, branch):
    """The all-pairs check written out: the first pair in canonical order
    whose images collide or whose image meet is not the meet's image."""
    nodes = nodes_in_range(depth, branch)
    for a, s in enumerate(nodes):
        for t in nodes[a + 1:]:
            if table[s] == table[t] or meet(table[s], table[t]) != table[meet(s, t)]:
                return Disagrees(s, t)
    return Agrees()


def _change_root(table, t, rng):
    return table[()] + (rng.randrange(3),) if rng.randrange(2) else (7,)


def _copy_non_sibling(table, t, rng):
    others = [u for u in table if u != t and u[:-1] != t[:-1]]
    return table[rng.choice(others)] if others else table[t]


MUTATIONS = {
    "parent image": lambda table, t, rng: table[t[:-1]] if t else (),
    "any image": lambda table, t, rng: rng.choice(list(table.values())),
    "extended": lambda table, t, rng: table[t] + (rng.randrange(3),),
    "truncated": lambda table, t, rng: table[t][:-1],
    "root changed": _change_root,
    "non-sibling image": _copy_non_sibling,
    "empty": lambda table, t, rng: (),
}


def test_meet_oracle_reports_the_reference_witness():
    rng = random.Random(23)
    kinds = sorted(MUTATIONS)
    disagreeing = 0
    for k in range(280):
        depth, branch = rng.randint(1, 4), rng.randint(1, 4)
        table = random_child_map(rng, depth, branch)
        for j in range(k % 3):
            kind = kinds[(k + j) % len(kinds)]
            t = () if kind == "root changed" else rng.choice(list(table))
            table[t] = MUTATIONS[kind](table, t, rng)
        want = reference_meet_oracle(table, depth, branch)
        if k % 2:
            candidate = table
        elif isinstance(want, Agrees):
            candidate = MeetEmbedding.from_table(table).apply
        else:
            candidate = lambda t: table[t]
        got = meet_preservation_oracle(candidate, depth, branch)
        assert got == want, (table, got)
        disagreeing += isinstance(got, Disagrees)
    assert 100 < disagreeing < 200


def test_meet_preservation_holds_for_valid_tables():
    rng = random.Random(5)
    for _ in range(10):
        table = random_child_map(rng, 3, 3)
        for s in table:
            for t in table:
                assert meet(table[s], table[t]) == table[meet(s, t)]


def test_amalgamation_worked_example():
    # family pi_t(u) = t + u
    fam = EmbeddingFamily(lambda t: MeetEmbedding.prefix(t))
    pi = amalgamate(fam, 3, 3)
    assert pi.apply(()) == ()
    assert pi.apply((1,)) == (1, 1)
    assert pi.apply((1, 2)) == (1, 1, 2, 1, 2)
    assert pi.apply((0, 0)) == (0, 0, 0, 0, 0)
    assert isinstance(meet_preservation_oracle(pi.apply, 3, 3), Agrees)


def test_amalgamation_product_passes_oracle_for_seeded_families():
    rng = random.Random(9)
    for _ in range(12):
        shift = tuple(rng.randrange(2) for _ in range(rng.randrange(2)))
        fam = EmbeddingFamily(lambda t, s=shift: MeetEmbedding.prefix(t + s))
        pi = amalgamate(fam, 3, 3)
        assert isinstance(meet_preservation_oracle(pi.apply, 3, 3), Agrees)


def test_amalgamation_rejects_factors_leaving_the_cone():
    # the identity at every node does not map N_t into N_t
    fam = EmbeddingFamily(lambda t: MeetEmbedding.identity())
    with pytest.raises(ContainmentError):
        amalgamate(fam, 2, 2)


def test_extension_on_point_kinds():
    pi = MeetEmbedding.prefix((0,))
    assert extend(pi, FinitePoint((1,))) == FinitePoint((0, 1))
    q = extend(pi, AugmentedPoint((1,)))
    assert isinstance(q, AugmentedPoint) and q.seq == (0, 1)
    b = extend(pi, PeriodicPoint((), (2,)))
    assert restrict(b, 4).seq == (0, 2, 2, 2)


def test_extension_law_on_table_nodes():
    rng = random.Random(13)
    table = random_child_map(rng, 3, 3)
    pi = MeetEmbedding.from_table(table)
    for t in nodes_in_range(2, 3):
        img = extend(pi, AugmentedPoint(t))
        assert isinstance(img, AugmentedPoint)
        assert img.seq == pi.apply(t)


def test_extension_injective_on_samples():
    rng = random.Random(17)
    table = random_child_map(rng, 3, 3)
    pi = MeetEmbedding.from_table(table)
    pts = [FinitePoint(t) for t in nodes_in_range(2, 3)]
    pts += [AugmentedPoint(t) for t in nodes_in_range(2, 3)]
    imgs = [extend(pi, p) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert imgs[i] != imgs[j]


@st.composite
def finite_embeddings(draw):
    """A prefix, the identity, or a table with one extra entry below its
    range, up to depth 24."""
    kind = draw(st.sampled_from(["prefix", "identity", "table"]))
    if kind == "prefix":
        return MeetEmbedding.prefix(draw(st.lists(st.integers(0, 2), max_size=3)))
    if kind == "identity":
        return MeetEmbedding.identity()
    depth = draw(st.integers(0, 2))
    table = random_child_map(random.Random(draw(st.integers(0, 2**16))), depth, 2)
    deep = (0,) * draw(st.integers(depth + 1, 24))
    table[deep] = MeetEmbedding.from_table(table).apply(deep) + (7,)
    return MeetEmbedding.from_table(table)


@settings(deadline=None)
@given(finite_embeddings(), st.one_of(st.none(), finite_embeddings()),
       st.lists(st.integers(0, 2), max_size=4), st.lists(st.integers(0, 2), min_size=1, max_size=2))
def test_periodic_extension_is_exact_and_matches_the_lazy_walk(pi, inner, head, period):
    if inner is not None:
        pi = pi.compose(inner)
    p = PeriodicPoint(head, period)
    exact = extend(pi, p)
    assert isinstance(exact, PeriodicPoint)
    lazy = extend(MeetEmbedding.from_node_map(pi.apply), p)
    assert restrict(exact, 64).seq == restrict(lazy, 64).seq


@pytest.mark.parametrize("depth", [16, 32, 64])
def test_the_lazy_extension_walk_resumes_where_it_stopped(monkeypatch, depth):
    # split_index asks for p|1, ..., p|depth in turn.  Each query walks one
    # restriction further: one apply of the new node and one of its parent,
    # a memo hit, after the root's.
    calls = 0
    apply = MeetEmbedding.apply

    def counted(self, t):
        nonlocal calls
        calls += 1
        return apply(self, t)

    monkeypatch.setattr(MeetEmbedding, "apply", counted)
    monkeypatch.setattr(sequences, "LAZY_DEPTH", depth)
    zeros = PeriodicPoint((), (0,))
    lazy = extend(MeetEmbedding.from_node_map(lambda t: t), InfinitePoint(lambda i: (0,) * i))
    assert split_index(lazy, zeros) == Undetermined(depth)
    assert calls == 2 * depth + 1


def test_the_lazy_extension_stops_at_the_lazy_depth(monkeypatch):
    # pi doubles each coordinate, so p|i has an image of length 2i; the
    # image is read no further than LAZY_DEPTH all the same.
    monkeypatch.setattr(sequences, "LAZY_DEPTH", 8)
    pi = MeetEmbedding.from_node_map(lambda t: tuple(x for c in t for x in (c, c)))
    lazy = extend(pi, InfinitePoint(lambda i: (1,) * i))
    assert restrict(lazy, 8).seq == (1,) * 8
    assert restrict(lazy, 3).seq == (1,) * 3
    with pytest.raises(BudgetExceeded, match="prefix query 9 exceeds depth 8"):
        restrict(lazy, 9)
    assert restrict(lazy, 7).seq == (1,) * 7


def test_a_periodic_point_under_a_rule_only_embedding_extends_to_the_lazy_depth():
    lazy = extend(MeetEmbedding.from_node_map(lambda t: t), PeriodicPoint((), (1,)))
    assert type(lazy) is InfinitePoint
    assert restrict(lazy, 64).seq == (1,) * 64
    with pytest.raises(BudgetExceeded, match="prefix query 65 exceeds depth 64"):
        restrict(lazy, 65)


def test_composition_extension_law():
    a = MeetEmbedding.prefix((1,))
    b = MeetEmbedding.prefix((0, 2))
    c = a.compose(b)
    for t in nodes_in_range(2, 3):
        assert c.apply(t) == a.apply(b.apply(t))
    p = PeriodicPoint((), (1,))
    lhs = extend(c, p)
    rhs = extend(a, extend(b, p))
    assert restrict(lhs, 8).seq == restrict(rhs, 8).seq


def test_closedness_surrogates_on_samples():
    rng = random.Random(19)
    table = random_child_map(rng, 3, 3)
    pi = MeetEmbedding.from_table(table)
    nodes = nodes_in_range(3, 3)
    for s in nodes:
        for k in range(len(s) + 1):
            assert pi.apply(s)[: len(pi.apply(s[:k]))] == pi.apply(s[:k])
    for s in nodes:
        for t in nodes:
            assert meet(pi.apply(s), pi.apply(t)) == pi.apply(meet(s, t))


def test_preimage_cone_examples():
    pi = MeetEmbedding.prefix((0,))
    r = preimage_cone(pi, (0, 1), 4, 3)
    assert r == Cone((1,))
    r = preimage_cone(pi, (0,), 4, 3)
    assert r == Cone(())
    r = preimage_cone(pi, (5,), 4, 3)
    assert isinstance(r, Empty) and r.range_limited


def test_invalid_table_raises_on_use():
    bad = {(): (), (0,): (), (1,): (1,)}
    pi = MeetEmbedding.from_table(bad)
    with pytest.raises(InvalidEmbedding):
        pi.apply((0,))


def _build(recipe, stable):
    """The embedding a recipe names; with stable False every stable depth is
    dropped, so apply builds each image child by child through the rule."""
    kind, arg = recipe
    if kind == "compose":
        return _build(arg[0], stable).compose(_build(arg[1], stable))
    e = MeetEmbedding.prefix(arg) if kind == "prefix" else MeetEmbedding.from_table(arg)
    if not stable:
        e.stable = None
    return e


@st.composite
def embedding_recipes(draw, corrupt=False):
    """A prefix, a table of depth up to 3 (one entry broken when corrupt),
    or the composition of two recipes."""
    kind = draw(st.sampled_from(["prefix", "table", "compose"]))
    if kind == "prefix":
        return ("prefix", tuple(draw(st.lists(st.integers(0, 2), max_size=3))))
    if kind == "compose":
        return ("compose", (draw(embedding_recipes(corrupt)), draw(embedding_recipes())))
    rng = random.Random(draw(st.integers(0, 2**16)))
    table = random_child_map(rng, draw(st.integers(0, 3)), draw(st.integers(2, 3)))
    if corrupt and len(table) > 1:
        t = rng.choice([k for k in table if k])
        if rng.random() < 0.5:
            table[t] = table[t[:-1]]  # no strict extension at t
        else:  # t forks from its parent at a sibling's coordinate
            n = len(table[t[:-1]])
            sib = t[:-1] + (0 if t[-1] else 1,)
            table[t] = table[t[:-1]] + table[sib][n:n + 1]
    return ("table", table)


_deep_nodes = st.lists(st.lists(st.integers(0, 3), max_size=12).map(tuple), min_size=1, max_size=6)


def _outcomes(recipe, stable, nodes):
    """The image of each node, or how the embedding first failed."""
    out = []
    try:
        pi = _build(recipe, stable)
        for t in nodes:
            out.append(pi.apply(t))
    except InvalidEmbedding as e:
        out.append(("invalid", str(e), e.node, e.violation))
    return out


@settings(deadline=None)
@given(embedding_recipes(), _deep_nodes)
def test_apply_past_the_stable_depth_matches_the_stepwise_images(recipe, nodes):
    fast = _build(recipe, True)
    assert fast.stable is not None and _build(recipe, False).stable is None
    assert _outcomes(recipe, True, nodes) == _outcomes(recipe, False, nodes)
    for t in nodes:
        for k in range(len(t) + 1):
            assert is_prefix(fast.apply(t[:k]), fast.apply(t))


@settings(deadline=None)
@given(embedding_recipes(corrupt=True), _deep_nodes)
def test_corrupted_tables_fail_at_the_same_node_past_the_stable_depth(recipe, tails):
    nodes = [s + t for s in nodes_in_range(3, 3) for t in tails]  # through every table node
    assert _outcomes(recipe, True, nodes) == _outcomes(recipe, False, nodes)


def test_prefix_images_past_the_stable_depth_are_not_memoised():
    pi = MeetEmbedding.prefix((0,))
    assert pi.apply((1,) * 40) == (0,) + (1,) * 40
    assert len(pi._memo) == 1
