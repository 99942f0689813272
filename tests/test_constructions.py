import copy
import json
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from seqstar.constructions import (
    ClosureAvoidsF,
    Constant,
    ContinuousAtBaire,
    Convergent,
    ConvergesToMember,
    DiameterToZero,
    Discrete,
    DiscreteInjection,
    EmbedsIntoBaire,
    EmbedsIntoBaireStar,
    GlobalConvergence,
    InComplement,
    InT,
    InsideBall,
    PairwiseAvoidance,
    SeparatedClosure,
    classify_baire_function,
    category_refine,
    children_stabilize,
    diameter_shrink,
    discrete_refine,
    disjoint_refine,
    disjointify,
    epsilon_discrete_or_ball,
    finite_avoid_or_converge,
    limit_refine,
    point_avoid,
    ramsey_split,
    shrink_or_discrete,
)
from seqstar import registry as registry_module, trace as trace_module
from seqstar.constructions import (
    _LOCAL_CAP,
    _SHAPE_OF_VERDICT,
    _SearchFailed,
    _Steps,
    _build_table,
    _cmp,
    _find,
    _made,
    _word_pool,
)
from seqstar.embeddings import Valid, validate
from seqstar.metric import Dyadic, weight_schedule
from seqstar.registry import (
    FUNCTIONS,
    SHAPE_OF_VERDICT,
    SpaceFunction,
    space_function,
    tree_family,
    tree_set,
)
from seqstar.sequences import (
    AugmentedPoint,
    BudgetExceeded,
    DepthBudget,
    DomainMismatch,
    InfinitePoint,
    PeriodicPoint,
)
from seqstar.serialize import ParseError, node_key, point_from_json, table_from_json
from seqstar.trace import recheck

BUDGET = DepthBudget(steps=2_000_000)
SCHED = weight_schedule()


def assert_good(pe):
    assert isinstance(validate(pe.embedding().apply, pe.depth, pe.branch), Valid)
    report = recheck(pe.trace)
    assert report.ok, report.failures
    return report


def test_ramsey_even_sum_lands_in_t():
    oracle = tree_set("even-sum")
    side, pe = ramsey_split(oracle, 3, 3, BUDGET)
    assert isinstance(side, InT)
    for t, img in pe.table.items():
        assert sum(img) % 2 == 0
    assert_good(pe)


def test_ramsey_all_nodes_is_in_t():
    side, pe = ramsey_split(tree_set("all"), 2, 2, BUDGET)
    assert isinstance(side, InT)
    assert_good(pe)


def test_ramsey_short_forces_complement():
    side, pe = ramsey_split(tree_set("short"), 3, 3, BUDGET)
    assert isinstance(side, InComplement)
    assert_good(pe)


def test_category_length_levels():
    pe = category_refine(tree_family("length-at-least"), (), 3, 3, BUDGET)
    for t, img in pe.table.items():
        assert len(img) >= len(t)
    assert_good(pe)


def test_category_ends_in_zero_levels():
    fam = tree_family("ends-in-zero-level")
    pe = category_refine(fam, (), 3, 3, BUDGET)
    for t, img in pe.table.items():
        oracle = fam(len(t))
        assert oracle.member(img)
        if t:
            assert img[-1] == 0
    assert_good(pe)


def test_diameter_shrink_certificates():
    phi = space_function("prefix-embed")
    pe = diameter_shrink(phi, SCHED, 3, 3, BUDGET)
    for t, img in pe.table.items():
        assert phi.cone_diameter(img) < SCHED(t)
    assert_good(pe)


def test_diameter_shrink_constant_is_easy():
    pe = diameter_shrink(space_function("const-zero"), SCHED, 2, 2, BUDGET)
    assert_good(pe)


def test_diameter_shrink_half_eps():
    pe = diameter_shrink(space_function("half-eps-diam"), SCHED, 2, 2, BUDGET)
    assert_good(pe)


def test_stabilize_verdicts():
    _, verdicts = children_stabilize(space_function("two-pow-last"), budget=BUDGET)
    assert all(isinstance(v, Convergent) for v in verdicts.values())
    _, verdicts = children_stabilize(space_function("last-entry"), budget=BUDGET)
    assert all(isinstance(v, Discrete) and v.eps == Dyadic(1, 0) for v in verdicts.values())
    _, verdicts = children_stabilize(space_function("const-zero"), budget=BUDGET)
    assert all(isinstance(v, Convergent) for v in verdicts.values())


def test_stabilize_trace_rechecks():
    pe, _ = children_stabilize(space_function("last-entry"), budget=BUDGET)
    assert_good(pe)


def test_disjointify_identity():
    pe = disjointify(space_function("compactify-identity"), 2, 3, BUDGET)
    assert_good(pe)


def test_disjointify_first_entry():
    # injective on depth-1 child cones; constant below them, so depth 1 only
    pe = disjointify(space_function("first-entry"), 1, 3, BUDGET)
    assert_good(pe)


def test_disjointify_constant_exceeds_budget():
    with pytest.raises(BudgetExceeded):
        disjointify(space_function("const-zero"), 2, 3, BUDGET)


def test_limit_refine_modes():
    mode, pe = limit_refine(space_function("zero-one-split"), SCHED, 2, 3, BUDGET)
    assert isinstance(mode, SeparatedClosure)
    assert mode.s == () and mode.delta == Dyadic(1, 0)
    assert_good(pe)
    mode, pe = limit_refine(space_function("depth-collapse"), SCHED, 2, 3, BUDGET)
    assert isinstance(mode, ContinuousAtBaire)
    assert_good(pe)
    mode, pe = limit_refine(space_function("const-zero"), SCHED, 2, 3, BUDGET)
    assert isinstance(mode, ContinuousAtBaire)
    assert_good(pe)


def test_eps_split_modes():
    mode, pe = epsilon_discrete_or_ball(space_function("entry-sum"), Dyadic(1, 0), (), 2, 3, BUDGET)
    assert isinstance(mode, DiscreteInjection)
    assert_good(pe)
    mode, pe = epsilon_discrete_or_ball(space_function("const-zero"), Dyadic(1, 1), (), 2, 3, BUDGET)
    assert isinstance(mode, InsideBall)
    assert mode.center == Dyadic.zero()
    assert_good(pe)
    mode, pe = epsilon_discrete_or_ball(space_function("two-pow-weight"), Dyadic(1, 0), (), 2, 3, BUDGET)
    assert isinstance(mode, InsideBall)
    assert_good(pe)


def test_shrink_or_discrete_modes():
    mode, pe = shrink_or_discrete(space_function("length"), SCHED, 2, 3, BUDGET)
    assert isinstance(mode, DiscreteInjection)
    assert mode.eps == Dyadic(1, 0)
    assert_good(pe)
    mode, pe = shrink_or_discrete(space_function("const-zero"), SCHED, 2, 3, BUDGET)
    assert isinstance(mode, DiameterToZero)
    assert_good(pe)
    mode, pe = shrink_or_discrete(space_function("two-pow-weight"), SCHED, 2, 3, BUDGET)
    assert isinstance(mode, DiameterToZero)
    assert_good(pe)


def test_point_avoid():
    s, pe = point_avoid(space_function("entry-sum"), Dyadic.zero(), BUDGET)
    assert sum(s) >= 1
    assert_good(pe)
    s, pe = point_avoid(space_function("entry-sum"), Dyadic(1, 1), BUDGET)
    assert s == ()  # one half is never an entry sum
    assert_good(pe)


def test_finite_avoid_or_converge():
    phi = space_function("two-pow-weight")
    mode, pe = finite_avoid_or_converge(phi, [Dyadic.zero(), Dyadic(1, 0)], (), 2, 3, BUDGET)
    assert isinstance(mode, ConvergesToMember)
    assert mode.x == Dyadic.zero()
    assert_good(pe)
    mode, pe = finite_avoid_or_converge(space_function("const-zero"), [Dyadic.zero()], (), 2, 3, BUDGET)
    assert isinstance(mode, ConvergesToMember)
    assert_good(pe)
    mode, pe = finite_avoid_or_converge(space_function("length"), [Dyadic(1, 1)], (), 2, 3, BUDGET)
    assert isinstance(mode, ClosureAvoidsF)
    assert_good(pe)


def test_discrete_refine_modes():
    mode, pe = discrete_refine(space_function("two-pow-weight"), SCHED, 2, 3, BUDGET)
    assert isinstance(mode, GlobalConvergence)
    assert_good(pe)
    mode, pe = discrete_refine(space_function("const-zero"), SCHED, 2, 3, BUDGET)
    assert isinstance(mode, GlobalConvergence)
    assert_good(pe)
    mode, pe = discrete_refine(space_function("enum-index"), SCHED, 2, 3, BUDGET)
    assert isinstance(mode, PairwiseAvoidance)
    assert_good(pe)


PAIRWISE = {
    "limit_refine": (lambda: limit_refine(space_function("zero-one-split"), SCHED, 2, 3, BUDGET),
                     SeparatedClosure),
    "epsilon_discrete_or_ball": (lambda: epsilon_discrete_or_ball(
        space_function("entry-sum"), Dyadic(1, 0), (), 2, 3, BUDGET), DiscreteInjection),
    "discrete_refine": (lambda: discrete_refine(space_function("enum-index"), SCHED, 2, 3, BUDGET),
                        PairwiseAvoidance),
}


def pairwise_trace(op):
    build, mode_type = PAIRWISE[op]
    mode, pe = build()
    assert isinstance(mode, mode_type)
    return json.loads(json.dumps(pe.trace))


def grouped(trace):
    """The first certificate that names a list of points."""
    return next(c for c in trace["certificates"] if isinstance(c.get("b"), list))


def _b_is_a(trace):
    cert = grouped(trace)
    cert["b"] = cert["a"]


def _bound_above_least(trace):
    # Each of these bounds is the least distance over its certificate's pairs.
    cert = grouped(trace)
    cert["bound"] = str(Dyadic.parse(cert["bound"]) + Dyadic.pow2(-40))


def _point_moved(trace):
    # The last point of the first list certificate's b side onto the last of its a side.
    cert = grouped(trace)
    a = cert["a"][-1] if isinstance(cert["a"], list) else cert["a"]
    trace["points"][cert["b"][-1]] = trace["points"][a]


def _index(value):
    def tamper(trace):
        grouped(trace)["a"] = value(len(trace["points"]))
    return tamper


@pytest.mark.parametrize("op, tamper, failure", [
    ("discrete_refine", _b_is_a, "avoid_pair: distance 0 below positive bound"),
    ("discrete_refine", _bound_above_least, "avoid_pair: distance"),
    ("limit_refine", _bound_above_least, "value_dist_ge: distance"),
    ("discrete_refine", _point_moved, "avoid_pair: distance 0 below positive bound"),
    ("epsilon_discrete_or_ball", _point_moved, "value_dist_ge: distance 0 vs bound 1"),
    ("limit_refine", _point_moved, "value_dist_ge: distance 0 vs bound"),
    ("epsilon_discrete_or_ball", _index(lambda n: n), "certificates[1].a"),
    ("epsilon_discrete_or_ball", _index(lambda n: -1), "certificates[1].a"),
    ("epsilon_discrete_or_ball", _index(lambda n: "0"), "certificates[1].a"),
    ("epsilon_discrete_or_ball", _index(lambda n: True), "certificates[1].a"),
    ("discrete_refine", _index(lambda n: [0, n]), "certificates[1].a"),
    ("discrete_refine", _index(lambda n: [0.0]), "certificates[1].a"),
    ("discrete_refine", _index(lambda n: []), "certificates[1].a"),
], ids=["b-is-a", "avoid-bound-above-least", "limit-bound-above-least", "avoid-point-moved",
        "eps-point-moved", "limit-point-moved", "index-out-of-range", "index-negative",
        "index-a-string", "index-a-bool", "list-index-out-of-range", "list-index-a-float",
        "list-empty"])
def test_recheck_catches_a_tampered_pairwise_certificate(op, tamper, failure):
    trace = pairwise_trace(op)
    assert recheck(copy.deepcopy(trace)).ok
    tamper(trace)
    if failure.startswith("certificates"):
        with pytest.raises(ParseError, match=re.escape(f"trace.{failure} must be")):
            recheck(trace)
        return
    report = recheck(trace)
    assert not report.ok and report.failures[0].startswith(failure), report.failures


@pytest.mark.parametrize("op", list(PAIRWISE))
def test_pairwise_certificates_name_each_point_once(op):
    # The certificates of these modes compare lists of points, pair by pair.
    trace = pairwise_trace(op)
    points = [json.dumps(p, sort_keys=True) for p in trace["points"]]
    assert len(set(points)) == len(points)
    named = set()
    for cert in trace["certificates"]:
        for key in ("a", "b"):
            named.update(cert[key] if isinstance(cert.get(key), list) else [cert.get(key)])
    assert named - {None} == set(range(len(points)))
    assert sum(isinstance(c.get("b"), list) for c in trace["certificates"]) >= 1


def test_disjoint_refine_good_and_bad_witness():
    phi = space_function("zero-one-split")
    b = PeriodicPoint((), (0,))
    pe = disjoint_refine(phi, b, Dyadic(1, 0))
    assert_good(pe)
    with pytest.raises(BudgetExceeded):
        disjoint_refine(phi, PeriodicPoint((), (0,)), Dyadic(4, 0))


# --- searches that run out --------------------------------------------------


def _dyadic_function(name, evaluate, cone_diameter=None):
    return SpaceFunction(name, evaluate, lambda a, b: a.abs_diff(b), cone_diameter)


# 1 at augmented points whose last entry is at least 41, else 0: the 48
# children of a node hold two values, so no three are apart, and only seven
# of them sit at the 48th child's value, one short of a convergent chain.
LATE_ONES = _dyadic_function("late-ones", lambda p: Dyadic(int(p.seq[-1] >= 41)))
# 0, 1/2 or 1 by the first entry, with cone diameters pinned at 1: sibling
# samples are apart, never by more than two diameters.
SPREAD = _dyadic_function("spread", lambda p: Dyadic(min(p.restrict(1).seq[0], 2), 1),
                          lambda t: Dyadic.one())
# 1 at augmented points longer than 3, else 0: no depth-4 image is near its
# infinite-part value, and every node of length <= 2 has a zero-valued
# augmented point, which the infinite-part values reach at distance 0.
LONG_AUGMENTED = _dyadic_function(
    "long-augmented", lambda p: Dyadic(int(isinstance(p, AugmentedPoint) and len(p.seq) > 3)))
# 0 or 1 with cone diameters pinned at 1: no witness prefix gets below delta/4.
WIDE = _dyadic_function("wide", lambda p: Dyadic(int(isinstance(p, AugmentedPoint))),
                        lambda t: Dyadic.one())
# Not a metric: an augmented point ending in 16 (the tail a converging table
# is measured against) is at distance 0 from every point, any other two are
# 1/2 apart.  So the converging table passes, and the cone check catches the
# pairs.
TAIL_GLUED = SpaceFunction(
    "tail-glued", lambda p: p,
    lambda a, b: Dyadic.zero() if a == b or 16 in a.seq[-1:] + b.seq[-1:] else Dyadic(1, 1))


@pytest.mark.parametrize("build, stage, message", [
    (lambda: children_stabilize(space_function("length"), 4), "children_stabilize",
     "selector budget below required chain length"),
    (lambda: children_stabilize(LATE_ONES, 48, 1, 3, BUDGET), "children_stabilize",
     r"neither verdict certified at \(\)"),
    (lambda: disjointify(SPREAD, 1, 3, BUDGET), "disjointify",
     r"separation never dominates diameters below \(\)"),
    (lambda: limit_refine(LONG_AUGMENTED, SCHED, 4, 2, BUDGET), "limit_refine",
     "neither continuity nor separation certified"),
    (lambda: shrink_or_discrete(TAIL_GLUED, SCHED, 2, 2, BUDGET), "shrink_or_discrete",
     r"cone value diameter not below 1/2 at \(0,\)"),
    (lambda: finite_avoid_or_converge(space_function("entry-sum"), [Dyadic(k) for k in range(32)],
                                      (), 2, 2, BUDGET), "finite_avoid_or_converge",
     "neither convergence nor avoidance certified"),
    (lambda: disjoint_refine(WIDE, PeriodicPoint((), (0,)), Dyadic(1)),
     "disjoint_refine", "no witness prefix with small enough image diameter"),
    (lambda: disjoint_refine(WIDE, InfinitePoint(lambda i: (0,) * i), Dyadic(1)),
     "disjoint_refine", "no witness prefix with small enough image diameter"),
], ids=["stabilize-selector", "stabilize-no-verdict", "disjointify-never-dominates",
        "limit-neither", "shrink-cone-diameter",
        "finite-avoid-neither", "disjoint-no-prefix", "disjoint-no-prefix-lazy"])
def test_a_search_that_runs_out_names_its_stage(build, stage, message):
    with pytest.raises(BudgetExceeded, match=f"^{message}$") as info:
        build()
    assert info.value.stage == stage


def test_classifier_trichotomy():
    shape, pe = classify_baire_function(space_function("const-zero"), budget=BUDGET)
    assert isinstance(shape, Constant)
    assert_good(pe)
    shape, pe = classify_baire_function(space_function("baire-identity"), budget=BUDGET)
    assert isinstance(shape, EmbedsIntoBaire)
    assert_good(pe)
    shape, pe = classify_baire_function(space_function("compactify-identity"), budget=BUDGET)
    assert isinstance(shape, EmbedsIntoBaireStar)
    assert_good(pe)


def test_the_shape_tables_agree():
    # classify_baire_function reads the classes, recheck the names.
    assert {v.__name__: s.__name__ for v, s in _SHAPE_OF_VERDICT.items()} == SHAPE_OF_VERDICT


def _drop_stages(trace):
    trace["stages"] = []


def _shift_table(trace):
    trace["table"] = {key: [9] + image for key, image in trace["table"].items()}


def _claim_star(trace):
    trace["shape"] = "EmbedsIntoBaireStar"


def _claim_constant(trace):
    trace["shape"] = "Constant"


def _swap_stages(trace):
    trace["stages"][0], trace["stages"][2] = trace["stages"][2], trace["stages"][0]


def _rebase_last_stage(trace):
    trace["stages"][2]["function"] = trace["stages"][1]["function"]


def _as_disjointify(trace):
    trace["stages"], trace["op"] = [], "disjointify"


def _drop_op(trace):
    trace["stages"] = []
    del trace["op"]


def _unknown_op(trace):
    trace["op"] = "no_such_op"


def _add_in_set(trace):
    trace["certificates"].append({"kind": "in_set", "oracle": "all", "node": [], "member": True})


def _all_convergent(trace):
    verdicts = trace["stages"][1]["verdicts"]
    for key in verdicts:
        verdicts[key] = "Convergent"
    trace["shape"] = "EmbedsIntoBaireStar"


def _verdict_dropped(trace):
    del trace["stages"][1]["verdicts"]["2"]


def _eps_raised(trace):
    trace["stages"][1]["verdicts"][""] = "Discrete:1"


def _eps_zero(trace):
    trace["stages"][1]["verdicts"]["0"] = "Discrete:0"


def _stages_under_a_stageless_op(trace):
    trace["stages"][0]["stages"] = [trace["stages"][1]]


# checked is the count recheck reports, where the tampering leaves every
# certificate holding: the op contract fails the trace without being counted.
@pytest.mark.parametrize("tamper, failure, checked", [
    (_drop_stages, "classify: stages [], not", None),
    (_shift_table, "classify: the table is not the composite of the stage tables", None),
    (_claim_star, "classify: shape 'EmbedsIntoBaireStar' does not follow from the verdicts", None),
    (_claim_constant, "classify: a Constant shape rests on no stages", None),
    (_swap_stages, "classify: stages ['disjointify', 'children_stabilize', 'diameter_shrink']",
     None),
    (_rebase_last_stage, "classify: stage 2 is not run on the function", None),
    (_as_disjointify, "disjointify emits no certificate of kind ['meet_table']", 2),
    (_drop_op, "unknown op None", 2),
    (_unknown_op, "unknown op 'no_such_op'", 42),
    (_add_in_set, "classify_baire_function emits no certificate of kind ['in_set']", 44),
    (_stages_under_a_stageless_op, "diameter_shrink rests on no stages, but the trace has 1",
     None),
    (_all_convergent, "children_stabilize: Convergent at (), but child 2 is at distance 1/2 "
     "from the limit, above 2^-2", 43),
    (_verdict_dropped, "children_stabilize: verdicts at ['', '0', '1'], not at the nodes with "
     "children ['', '0', '1', '2']", 43),
    (_eps_raised, "children_stabilize: Discrete:1 at (), but children 0 and 1 are at distance "
     "1/2", 43),
    (_eps_zero, "children_stabilize: Discrete at (0,) with eps 0", 43),
], ids=["no-stages", "table-prefixed-9", "star-shape", "constant-shape", "stage-order",
        "stage-function", "op-disjointify", "op-dropped", "op-unknown", "foreign-kind",
        "stages-under-shrink", "verdicts-all-convergent", "verdict-dropped", "verdict-eps-raised",
        "verdict-eps-zero"])
def test_recheck_ties_a_classify_shape_to_its_pipeline(tamper, failure, checked):
    _, pe = classify_baire_function(space_function("baire-identity"), budget=BUDGET)
    trace = json.loads(json.dumps(pe.trace))
    assert recheck(copy.deepcopy(trace)).ok
    tamper(trace)
    report = recheck(trace)
    assert not report.ok
    assert any(f.startswith(failure) for f in report.failures), report.failures
    if checked is not None:
        assert report.checked == checked and report.failures == [failure]


def test_traces_are_json_documents():
    _, pe = shrink_or_discrete(space_function("length"), SCHED, 2, 3, BUDGET)
    text = json.dumps(pe.trace)
    report = recheck(json.loads(text))
    assert report.ok


def test_recheck_detects_tampered_table():
    pe = diameter_shrink(space_function("prefix-embed"), SCHED, 2, 2, BUDGET)
    bad = copy.deepcopy(pe.trace)
    key = next(k for k in bad["table"] if k)
    bad["table"][key] = bad["table"][""]
    report = recheck(bad)
    assert not report.ok


def test_recheck_fails_an_unknown_certificate_kind():
    # value_dist_gt is no certificate kind, though 1 > 0 holds for entry-sum.
    trace = {"points": [{"kind": "finite", "seq": []}, {"kind": "finite", "seq": [1]}],
             "certificates": [{"kind": "value_dist_gt", "a": 0, "b": 1, "bound": "0"}],
             "function": {"name": "entry-sum"}}
    report = recheck(trace)
    assert not report.ok and report.checked == 1
    assert "unknown certificate kind 'value_dist_gt'" in report.failures[0]


def test_recheck_detects_tampered_certificate():
    _, pe = epsilon_discrete_or_ball(space_function("entry-sum"), Dyadic(1, 0), (), 2, 2, BUDGET)
    bad = copy.deepcopy(pe.trace)
    touched = False
    for cert in bad["certificates"]:
        if "bound" in cert:
            cert["bound"] = "64"
            touched = True
            break
    assert touched
    report = recheck(bad)
    assert not report.ok


@given(head=st.lists(st.integers(0, 2), max_size=4),
       period=st.one_of(st.just([0]), st.lists(st.integers(0, 2), min_size=1, max_size=3)),
       unroll=st.integers(0, 4), repeat=st.integers(1, 3))
def test_registry_values_do_not_depend_on_how_a_point_is_written(head, period, unroll, repeat):
    p = PeriodicPoint(tuple(head), tuple(period))
    # Unroll the period into the head, which rotates it, then repeat it.
    k = unroll % len(period)
    q = PeriodicPoint(p._prefix(len(head) + unroll), tuple(period[k:] + period[:k]) * repeat)
    assert p == q
    for name, phi in FUNCTIONS.items():
        try:
            value = phi.evaluate(p)
        except DomainMismatch:
            continue
        assert phi.value_distance(value, phi.evaluate(q)) == Dyadic.zero(), (name, p, q)


# --- the candidate search against its generator form ----------------------


def find_by_generator(pred, candidates, steps):
    """The search as a loop over a candidate generator, one tick per candidate."""
    for n, c in enumerate(candidates):
        if n >= _LOCAL_CAP:
            break
        steps.tick()
        if pred(c):
            return c
    raise _SearchFailed


def search_outcome(search, steps):
    try:
        return "found", search(), steps.left
    except BudgetExceeded as e:
        return "budget", e.stage, str(e), e.partial, steps.left
    except _SearchFailed:
        return "failed", steps.left
    except ZeroDivisionError:
        return "predicate raised", steps.left


@given(branch=st.integers(1, 6), lo=st.integers(0, 400), size=st.integers(0, 900),
       start=st.lists(st.integers(0, 3), max_size=3).map(tuple),
       hits=st.sets(st.integers(0, 900), max_size=4), boom=st.none() | st.integers(0, 900),
       total=st.integers(1, 1200))
@example(branch=6, lo=0, size=900, start=(1,), hits={_LOCAL_CAP}, boom=None, total=1200)
@example(branch=6, lo=0, size=900, start=(), hits={_LOCAL_CAP - 1}, boom=None, total=1200)
@example(branch=4, lo=0, size=900, start=(), hits={40}, boom=30, total=1200)
@example(branch=4, lo=0, size=900, start=(), hits={40}, boom=None, total=40)
@example(branch=4, lo=0, size=900, start=(), hits={40}, boom=None, total=41)
def test_find_matches_the_generator_search(branch, lo, size, start, hits, boom, total):
    pool = _word_pool(branch)[lo:lo + size]
    accept = {start + pool[i] for i in hits if i < len(pool)}
    fail = start + pool[boom] if boom is not None and boom < len(pool) else None

    def pred(c):
        if c == fail:
            raise ZeroDivisionError
        return c in accept

    old, new = _Steps(total, "stage-x"), _Steps(total, "stage-x")
    want = search_outcome(lambda: find_by_generator(pred, (start + w for w in pool), old), old)
    got = search_outcome(lambda: _find(pred, start, pool, new), new)
    assert got == want


def test_recheck_evaluates_each_point_once_per_stage_and_still_catches_tampering(monkeypatch):
    phi = space_function("baire-identity")
    mode, pe = discrete_refine(phi, SCHED, 2, 3)
    assert isinstance(mode, PairwiseAvoidance)
    doc = json.loads(json.dumps(pe.trace))
    calls = Counter()
    evaluate = phi.evaluate

    def counting(p):
        calls[p] += 1
        return evaluate(p)

    monkeypatch.setattr(phi, "evaluate", counting)
    assert recheck(doc).ok
    points = {point_from_json(p) for p in doc["points"]}
    assert set(calls) == points and set(calls.values()) == {1}
    # A certificate whose two points are one point must still fail.
    cert = next(c for c in doc["certificates"] if c["kind"] == "avoid_pair")
    cert["b"] = cert["a"]
    report = recheck(doc)
    assert not report.ok and len(report.failures) == 1
    assert report.failures[0].startswith("avoid_pair: distance 0 below positive bound")


# --- each value and table once ----------------------------------------------


def eager_children_stabilize(phi, selector_budget, out_depth, out_branch):
    """children_stabilize as it was when a node's values were evaluated all
    at once, in order, before either scan read them."""
    chain_len = max(out_branch, 8)
    verdicts, certs = {}, []

    def stabilize(node, r):
        values = [phi.evaluate(AugmentedPoint(r + (k,))) for k in range(selector_budget)]
        tail = selector_budget - 1
        limit = values[tail]
        picks = []
        k = 0
        while len(picks) < chain_len and k < tail:
            if phi.value_distance(values[k], limit) <= Dyadic.pow2(-len(picks)):
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
                if all(phi.value_distance(values[k], values[p]) >= eps for p in picks):
                    picks.append(k)
                if len(picks) == out_branch:
                    break
            if len(picks) == out_branch:
                verdicts[node] = Discrete(eps)
                for a, b in combinations(picks, 2):
                    certs.append(_cmp("value_dist_ge", AugmentedPoint(r + (a,)),
                                      AugmentedPoint(r + (b,)), eps))
                return picks
        raise BudgetExceeded(f"neither verdict certified at {node}", stage="children_stabilize")

    table = _build_table(lambda t, r: [r + (k,) for k in stabilize(t, r)], out_depth, out_branch)
    return _made("children_stabilize",
                 {"depth": out_depth, "branch": out_branch, "selector_budget": selector_budget},
                 table, certs, out_depth, out_branch, function=phi.spec,
                 verdicts={node_key(t): ("Convergent" if isinstance(v, Convergent)
                                         else f"Discrete:{v.eps}")
                           for t, v in sorted(verdicts.items())}), verdicts


def stabilize_outcome(run, phi, depth, branch):
    try:
        pe, verdicts = run(phi, 48, depth, branch)
    except (BudgetExceeded, DomainMismatch) as e:
        return type(e).__name__, getattr(e, "stage", None), str(e)
    return pe.table, pe.trace, verdicts


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_the_lazy_stabilize_scan_agrees_with_the_eager_one(name):
    # Picks (through the table), verdicts and certificates, or the error.
    phi = FUNCTIONS[name]
    for depth in (1, 2, 3):
        for branch in (1, 2, 3):
            assert stabilize_outcome(children_stabilize, phi, depth, branch) == \
                stabilize_outcome(eager_children_stabilize, phi, depth, branch), (depth, branch)


def counting_function(phi, calls):
    return SpaceFunction(phi.name, lambda p: calls.append(p) or phi.evaluate(p),
                         phi.value_distance, phi.cone_diameter, phi.spec)


# A Convergent node reads its limit and the 8 children of its chain; a
# Discrete node reads all 48 values.  Each of the 13 nodes with children at
# depth 3, branch 3 is Convergent for compactify-identity, Discrete for
# baire-identity.
@pytest.mark.parametrize("name, evaluations", [("compactify-identity", 117),
                                               ("baire-identity", 624)])
def test_stabilize_evaluates_only_the_values_its_scans_read(name, evaluations):
    calls = []
    children_stabilize(counting_function(FUNCTIONS[name], calls), 48, 3, 3)
    assert len(calls) == len(set(calls)) == evaluations


def raising_past_child_19(name, value_of_child):
    """A dyadic function of the last coordinate k of an augmented point
    whose evaluate raises at every child 20 <= k < 47; the limit, child 47,
    has a value."""
    def evaluate(p):
        k = p.seq[-1] if p.seq else 0
        if 20 <= k < 47:
            raise DomainMismatch(f"child {k} evaluated")
        return value_of_child(k)
    return _dyadic_function(name, evaluate)


def test_a_convergent_scan_that_stops_early_never_reads_a_later_child():
    # 2^-k: children 0..7 form the chain, so the scan stops at child 8.
    fast = raising_past_child_19("fast", lambda k: Dyadic.pow2(-k))
    pe, verdicts = children_stabilize(fast, 48, 2, 3)
    assert set(verdicts.values()) == {Convergent()}
    assert pe.table == {t: t for t in pe.table}  # each node picks its children 0, 1, 2
    with pytest.raises(DomainMismatch, match="child 20 evaluated"):
        eager_children_stabilize(fast, 48, 2, 3)
    # 2^-(k // 3): the chain's i-th child is 3i, so the scan reads child 20.
    slow = raising_past_child_19("slow", lambda k: Dyadic.pow2(-(k // 3)))
    for run in (children_stabilize, eager_children_stabilize):
        with pytest.raises(DomainMismatch, match="child 20 evaluated"):
            run(slow, 48, 2, 3)


def test_a_classify_recheck_parses_each_table_once_and_builds_one_function(monkeypatch):
    _, pe = classify_baire_function(space_function("prefix-embed"), 3, 3)
    doc = json.loads(json.dumps(pe.trace))
    parsed, built = [], []

    def parse(obj):
        parsed.append(obj)
        return table_from_json(obj)

    build_function = trace_module.build_function
    for module in (trace_module, registry_module):
        monkeypatch.setattr(module, "table_from_json", parse)
    monkeypatch.setattr(trace_module, "build_function",
                        lambda spec: built.append(spec) or build_function(spec))
    report = recheck(doc)
    assert report.ok and report.checked == 1 + sum(len(st["certificates"]) for st in
                                                   [doc, *doc["stages"]])
    # The trace's table and the three stage tables; the stages take the
    # trace's function, then each the one the stage before it leaves.
    assert parsed == [doc["table"]] + [stage["table"] for stage in doc["stages"]]
    assert built == [doc["function"]]


def _extend_leaf(pre):
    pre["2,2"] = pre["2,2"] + [0]


def _drop_leaf(pre):
    del pre["1,2"]


def _malformed_image(pre):
    pre["0"] = ["x"]


# The reports the pipeline check gave before stages took the function the
# stage before them leaves: a stage whose spec is not that one is built
# from its spec, as it always was.
STAGE_2 = "classify: stage 2 is not run on the function the stages before it leave"


@pytest.mark.parametrize("tamper, checked, failures", [
    (_extend_leaf, 43, [STAGE_2]),
    (_drop_leaf, 43, [STAGE_2]),
    (_malformed_image, 30, ["cannot rebuild function: table[0] must be a list of "
                            "nonnegative integers", STAGE_2]),
], ids=["leaf-extended", "leaf-dropped", "malformed-image"])
def test_recheck_builds_a_tampered_stage_function_from_its_spec(tamper, checked, failures):
    _, pe = classify_baire_function(space_function("baire-identity"))
    doc = json.loads(json.dumps(pe.trace))
    tamper(doc["stages"][2]["function"]["precompose"])
    report = recheck(doc)
    assert (report.ok, report.checked, report.failures) == (False, checked, failures)
