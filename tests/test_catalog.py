import json

import pytest
from hypothesis import given, strategies as st

from seqstar.catalog import (
    CertifiedPairing,
    Const,
    DisjointUnion,
    INFTY,
    Inclusion,
    InclusionAfterP,
    Left,
    Mismatch,
    Right,
    SpaceTag,
    UnionWithP,
    _value_key,
    catalog_a,
    catalog_b,
    descriptor_to_json,
    domain_of,
    embed_via,
    evaluate,
    project_p,
    tag_member,
)
from seqstar.cli import _tagged_to_json
from seqstar.embeddings import MeetEmbedding
from seqstar.registry import space_function
from seqstar.sequences import AugmentedPoint, DepthBudget, DomainMismatch, FinitePoint, PeriodicPoint

BUDGET = DepthBudget(steps=1_000_000)


def test_counts():
    assert len(catalog_a()) == 24
    assert len(catalog_b()) == 27


def test_catalogs_structurally_distinct():
    a = [json.dumps(descriptor_to_json(f), sort_keys=True) for f in catalog_a()]
    b = [json.dumps(descriptor_to_json(f), sort_keys=True) for f in catalog_b()]
    assert len(set(a)) == 24
    assert len(set(b)) == 27
    assert set(a) <= set(b)


def test_b_adds_exactly_the_union_forms():
    extra = [f for f in catalog_b() if isinstance(f, UnionWithP)]
    assert len(extra) == 3
    assert all(not isinstance(f, UnionWithP) for f in catalog_a())


def test_every_entry_is_a_disjoint_union_of_valid_parts():
    for f in catalog_a():
        assert isinstance(f, DisjointUnion)
        assert tag_member(domain_of(f.baire_part), PeriodicPoint((), (0,)))
        assert not tag_member(domain_of(f.rest_part), PeriodicPoint((), (0,)))


def test_tag_membership_atoms():
    assert tag_member(SpaceTag.Baire, PeriodicPoint((), (1,)))
    assert not tag_member(SpaceTag.Baire, FinitePoint(()))
    assert tag_member(SpaceTag.Seq_, FinitePoint(()))
    assert not tag_member(SpaceTag.Seq_, AugmentedPoint(()))
    assert tag_member(SpaceTag.SeqStar, AugmentedPoint((2,)))
    assert tag_member(SpaceTag.SeqStar, FinitePoint((2,)))


def test_project_p():
    assert project_p(AugmentedPoint((1, 2))) == (1, 2)
    with pytest.raises(DomainMismatch):
        project_p(PeriodicPoint((), (1,)))


def test_evaluate_tags_union_sides():
    f = next(x for x in catalog_a()
             if isinstance(x.baire_part, Inclusion) and isinstance(x.rest_part, InclusionAfterP))
    v = evaluate(f, PeriodicPoint((), (1,)))
    assert isinstance(v.payload, Left)
    v = evaluate(f, AugmentedPoint((3,)))
    assert isinstance(v.payload, Right)


def test_evaluate_const_and_infty():
    f = DisjointUnion(Const(SpaceTag.Baire), Const(SpaceTag.BaireStarMinusBaire))
    v = evaluate(f, PeriodicPoint((), (2,)))
    assert v.payload.payload is INFTY


def test_evaluate_rejects_points_outside_domain():
    f = catalog_a()[0]
    with pytest.raises(DomainMismatch):
        evaluate(f.baire_part, FinitePoint((1,)))


def test_embed_via_injective_function_pairs():
    f = next(x for x in catalog_a()
             if isinstance(x.baire_part, Inclusion) and isinstance(x.rest_part, InclusionAfterP))
    phi = space_function("compactify-identity")
    samples = [PeriodicPoint((i,), (1,)) for i in range(4)]
    samples += [AugmentedPoint((i,)) for i in range(4)]
    r = embed_via(MeetEmbedding.prefix((0,)), f, phi, samples, BUDGET)
    assert isinstance(r, CertifiedPairing)
    assert len(r.psi) == len(samples)


def test_embed_via_constant_function_mismatches():
    f = DisjointUnion(Const(SpaceTag.Baire), Const(SpaceTag.BaireStarMinusBaire))
    phi = space_function("compactify-identity")
    samples = [AugmentedPoint(()), AugmentedPoint((1,))]
    r = embed_via(MeetEmbedding.identity(), f, phi, samples, BUDGET)
    assert isinstance(r, Mismatch)
    assert r.witness == AugmentedPoint((1,))


def test_embed_via_pairs_equal_periodic_samples():
    # One point written two ways; its image under the prefix embedding is
    # the same periodic point, so both functions see a single output.
    samples = [PeriodicPoint((), (0,)), PeriodicPoint((0, 0, 0), (0,))]
    phi = space_function("compactify-identity")
    rest = Const(SpaceTag.BaireStarMinusBaire)
    for f in (DisjointUnion(Inclusion(SpaceTag.Baire, SpaceTag.Baire), rest),
              DisjointUnion(Const(SpaceTag.Baire), rest)):
        r = embed_via(MeetEmbedding.prefix((0,)), f, phi, samples, BUDGET)
        assert isinstance(r, CertifiedPairing) and len(r.psi) == 1, (f, r)


@given(head=st.lists(st.integers(0, 2), max_size=4),
       period=st.lists(st.integers(0, 2), min_size=1, max_size=3),
       unroll=st.integers(0, 4), repeat=st.integers(1, 3))
def test_catalog_values_do_not_depend_on_how_a_point_is_written(head, period, unroll, repeat):
    p = PeriodicPoint(tuple(head), tuple(period))
    # Unroll the period into the head, which rotates it, then repeat it.
    k = unroll % len(period)
    q = PeriodicPoint(p.restrict(len(head) + unroll).seq, tuple(period[k:] + period[:k]) * repeat)
    for f in catalog_b():
        vp, vq = evaluate(f, p), evaluate(f, q)
        assert _value_key(vp) == _value_key(vq), f
        # The value the command line prints is one value too.
        assert _tagged_to_json(vp) == _tagged_to_json(vq), f


def test_descriptor_json_round_trips_by_equality():
    for f in catalog_b():
        d = descriptor_to_json(f)
        assert json.dumps(d)  # serializable
        assert d["kind"] in {"disjoint_union", "union_with_p"}
