"""Offline re-verification of construction traces.

A trace names its oracles (registry names, possibly with precompose
tables), lists the constructed table and, once each, the points its
certificates compare, and carries certificates, which name points by their
index in that list.  Recheck rebuilds the oracles, re-runs every recorded
query, and re-evaluates each certifying comparison in exact dyadic
arithmetic; a certificate that names a list of points on a side makes one
comparison per pair.
"""
from __future__ import annotations

from itertools import combinations
from typing import Any, Callable

from .embeddings import (
    Agrees,
    InvalidEmbedding,
    MeetEmbedding,
    Valid,
    meet_preservation_oracle,
    validate,
)
from .metric import Dyadic
from .registry import (
    OPS,
    SHAPE_OF_VERDICT,
    SpaceFunction,
    ValueIndex,
    build_function,
    compose_function,
    diameter_pairs,
    least_distance,
    tree_family,
    tree_set,
)
from .sequences import AugmentedPoint, Point, Record, Seq
from .serialize import (
    ParseError,
    _seq,
    dyadic_from_json,
    node_key,
    point_from_json,
    table_from_json,
    value_from_json,
)


class RecheckReport(Record):
    __slots__ = ("ok", "checked", "failures")

    def __init__(self, ok: bool, checked: int, failures: list[str] | None = None):
        self.ok = ok
        self.checked = checked
        self.failures = [] if failures is None else failures

    def merge(self, other: "RecheckReport") -> None:
        self.ok = self.ok and other.ok
        self.checked += other.checked
        self.failures.extend(other.failures)


class _Fields(dict):
    """A JSON object whose missing fields raise ParseError naming their path."""

    def __init__(self, obj: dict, path: str):
        if not isinstance(obj, dict):
            raise ParseError(f"{path} must be an object")
        super().__init__(obj)
        self.path = path

    def __missing__(self, key):
        if isinstance(key, str):
            raise ParseError(f"{self.path}.{key} is missing")
        raise ParseError(f"{self.path} has no node {list(key)}")

    def node(self, key: str) -> Seq:
        return _seq(self[key], f"{self.path}.{key}")

    def read(self, key: str, parse: Callable[[Any], Any]) -> Any:
        try:
            return parse(self[key])
        except ParseError as e:
            raise ParseError(f"{self.path}.{key}: {e}") from e

    def dyadic(self, key: str) -> Dyadic:
        return self.read(key, dyadic_from_json)

    def index(self, key: str, n: int) -> int:
        """The field as an index into a points list of length n."""
        i = self[key]
        if i.__class__ is not int or not 0 <= i < n:
            raise ParseError(f"{self.path}.{key} must be an index into the {n} points")
        return i

    def indices(self, key: str, n: int) -> list[int]:
        """The field as a list of indices into a points list of length n;
        a lone index is a list of one."""
        raw = self[key]
        if raw.__class__ is not list:
            return [self.index(key, n)]
        if not raw or any(i.__class__ is not int or not 0 <= i < n for i in raw):
            raise ParseError(f"{self.path}.{key} must be a nonempty list of indices "
                             f"into the {n} points")
        return raw


def _typed(kind: type, what: str) -> Callable[[Any], Any]:
    def parse(v):
        if not isinstance(v, kind):
            raise ParseError(f"must be {what}")
        return v
    return parse


def _table_range(table: dict[Seq, Seq]) -> tuple[int, int]:
    depth = max((len(t) for t in table), default=0)
    branch = max((e + 1 for t in table for e in t), default=1)
    return depth, branch


def _points(trace: dict, path: str) -> list[Point]:
    """The trace's points list, each entry parsed."""
    raw = trace.get("points", [])
    if not isinstance(raw, list):
        raise ParseError(f"{path}.points must be a list")
    points = []
    for j, obj in enumerate(raw):
        try:
            points.append(point_from_json(obj))
        except ParseError as e:
            raise ParseError(f"{path}.points[{j}]: {e}") from e
    return points


class _Memo:
    """What the certificates of one stage share: its points, phi's value at
    each point and each bound parsed, each worked out once."""

    def __init__(self, phi: SpaceFunction | None, points: list[Point]):
        self.phi = phi
        self.points = points
        self.values: dict[Point, Any] = {}
        self.bounds: dict[str, Dyadic] = {}

    def value(self, p: Point) -> Any:
        v = self.values.get(p)
        if v is None:
            v = self.values[p] = self.phi.evaluate(p)
        return v

    def dyadic(self, cert: _Fields, key: str) -> Dyadic:
        raw = cert[key]
        if raw.__class__ is not str:
            return cert.dyadic(key)  # raises ParseError naming the field
        d = self.bounds.get(raw)
        if d is None:
            d = self.bounds[raw] = cert.dyadic(key)
        return d


# kind -> (whether distance d meets bound b, how a failure reads).  An
# avoid_pair bound must also be positive, which _check_cert checks once.
_PAIRWISE = {
    "value_dist_lt": (Dyadic.__lt__, "vs bound"),
    "value_dist_le": (Dyadic.__le__, "vs bound"),
    "value_dist_ge": (Dyadic.__ge__, "vs bound"),
    "avoid_pair": (Dyadic.__ge__, "below positive bound"),
}


def _never(d: Dyadic, b: Dyadic) -> bool:
    return False


def _check_cert(cert: _Fields, trace: _Fields, phi: SpaceFunction | None,
                table: dict[Seq, Seq], memo: _Memo) -> tuple[int, str | None]:
    """The number of comparisons the certificate makes, one per pair of
    points, and a failure message, or None when they all hold."""
    kind = cert.get("kind")
    if kind not in _PAIRWISE or phi is None:
        return 1, _check_single(cert, trace, phi, table, memo)
    points = memo.points
    a, b = cert.indices("a", len(points)), cert.indices("b", len(points))
    bound = memo.dyadic(cert, "bound")
    holds, reads = _PAIRWISE[kind]
    if kind == "avoid_pair" and bound.is_zero():
        holds = _never  # the first pair reports the zero bound
    count, vb = len(a) * len(b), [memo.value(points[j]) for j in b]
    if holds is Dyadic.__ge__ and phi.order is not None and min(len(a), len(b)) > 1:
        # Every pair is at least the bound iff the least distance is, which
        # the larger side's sorted order gives; a failure is named by the
        # scan below.  A lone value on a side is scanned: sorting the other
        # side would read every key of it for one query.
        values_a = [memo.value(points[i]) for i in a]
        small, large = (values_a, vb) if len(a) < len(b) else (vb, values_a)
        if least_distance(phi, small, ValueIndex(phi, large)) >= bound:
            return count, None
    for i in a:
        va = memo.value(points[i])
        for j, v in zip(b, vb):
            d = phi.value_distance(va, v)
            if not holds(d, bound):
                return count, f"{kind}: distance {d} {reads} {bound} at points {i}, {j}"
    return count, None


def _check_single(cert: _Fields, trace: _Fields, phi: SpaceFunction | None,
                  table: dict[Seq, Seq], memo: _Memo) -> str | None:
    """Return a failure message, or None when the certificate holds."""
    kind = cert.get("kind")
    if kind == "valid_table":
        depth, branch = _table_range(table)
        v = validate(table, depth, branch)
        return None if isinstance(v, Valid) else f"table validation failed: {v}"
    if kind == "meet_table":
        depth, branch = _table_range(table)
        r = meet_preservation_oracle(table, depth, branch)
        return None if isinstance(r, Agrees) else f"meet preservation failed: {r}"
    if kind == "in_set":
        node = cert.node("node")
        if "family_level" in cert:
            family = tree_family(trace.read("family", _typed(str, "a tree family name")))
            oracle = family(cert.read("family_level", _typed(int, "an integer level")))
        else:
            oracle = tree_set(cert.read("oracle", _typed(str, "a tree set name")))
        got = oracle.member(node)
        want = cert["member"]
        return None if got == want else f"in_set: member({node}) = {got}, recorded {want}"
    if phi is None:
        return f"certificate {kind!r} needs a function but the trace names none"
    if kind in ("diam_lt", "dist_gt_sum") and phi.cone_diameter is None:
        return f"certificate {kind!r} needs a cone_diameter oracle, which {phi.name} lacks"

    def value_at(key: str):
        return memo.value(memo.points[cert.index(key, len(memo.points))])

    if kind == "diam_lt":
        node = cert.node("node")
        eps = memo.dyadic(cert, "eps")
        got = phi.cone_diameter(node)
        return None if got < eps else f"diam_lt: cone_diameter({node}) = {got} not < {eps}"
    if kind == "avoid_value":
        d = phi.value_distance(value_at("a"), cert.read("x", value_from_json))
        bound = memo.dyadic(cert, "bound")
        if cert.get("op") == "lt":
            return None if d < bound else f"avoid_value: distance {d} not < {bound}"
        if bound.is_zero() or d < bound:
            return f"avoid_value: distance {d} below positive bound {bound}"
        return None
    if kind == "dist_gt_sum":
        d = phi.value_distance(value_at("a"), value_at("b"))
        lim = phi.cone_diameter(cert.node("na")) + phi.cone_diameter(cert.node("nb"))
        return None if d > lim else f"dist_gt_sum: {d} not > {lim}"
    if kind == "cone_value_diam_lt":
        eps = memo.dyadic(cert, "eps")
        members = cert["members"]
        if not isinstance(members, list):
            raise ParseError(f"{cert.path}.members must be a list of nodes")
        members = [_seq(m, f"{cert.path}.members") for m in members]
        vals = [memo.value(AugmentedPoint(m)) for m in members]
        if phi.order is not None and all(phi.value_distance(va, vb) < eps
                                         for va, vb in diameter_pairs(phi, vals)):
            return None  # the diameter is below eps; a failure is named by the scan below
        for (ma, va), (mb, vb) in combinations(zip(members, vals), 2):
            d = phi.value_distance(va, vb)
            if not d < eps:
                return f"cone_value_diam_lt: {d} not < {eps} ({ma} vs {mb})"
        return None
    return f"unknown certificate kind {kind!r}"


def _contract_problems(trace: dict, stages: list) -> list[str]:
    """How the trace breaks the contract of its op in registry.OPS: an op
    the table lacks, stages under an op that rests on none, or a
    certificate of a kind the op does not emit."""
    name = trace.get("op")
    op = OPS.get(name) if isinstance(name, str) else None
    if op is None:
        return [f"unknown op {name!r}"]
    problems = []
    if stages and op.stages is None:
        problems.append(f"{name} rests on no stages, but the trace has {len(stages)}")
    foreign = sorted({str(cert.get("kind")) for cert in trace["certificates"]} - op.kinds)
    if foreign:
        problems.append(f"{name} emits no certificate of kind {foreign}")
    return problems


def _classify_problem(trace: _Fields, stages: list[dict], tables: list[dict[Seq, Seq] | None],
                      table: dict[Seq, Seq]) -> str | None:
    """What breaks the pipeline a classify_baire_function trace claims, or
    None.  A Constant shape rests on no stages.  Any other shape rests on
    the three pipeline stages in order, each run on the function the stages
    before it leave; the table must be the composite of the stage tables,
    and the shape the one the stabilize verdicts give.  tables holds each
    stage's table as its recheck parsed it, None where it did not."""
    shape = trace.get("shape")
    if shape == "Constant":
        return None if stages == [] else "classify: a Constant shape rests on no stages"
    ops, pipeline = [stage.get("op") for stage in stages], OPS["classify_baire_function"].stages
    if ops != pipeline:
        return f"classify: stages {ops}, not {pipeline}"
    spec = trace.get("function")
    for i, stage in enumerate(stages):
        if stage.get("function") != spec:
            return f"classify: stage {i} is not run on the function the stages before it leave"
        spec = {"base": spec, "precompose": stage.get("table")}
    tables = [table_from_json(stage.get("table", {})) if t is None else t
              for stage, t in zip(stages, tables)]
    pi1, pi2, pi3 = (MeetEmbedding.from_table(t) for t in tables)
    try:
        composite = {t: pi1.apply(pi2.apply(pi3.apply(t))) for t in tables[2]}
    except InvalidEmbedding as e:
        return f"classify: the stage tables do not compose: {e}"
    if composite != table:
        return "classify: the table is not the composite of the stage tables"
    stabilize = _Fields(stages[1], f"{trace.path}.stages[1]")
    verdicts = stabilize.read("verdicts", _typed(dict, "an object"))
    kinds = sorted({str(v).partition(":")[0] for v in verdicts.values()})
    if len(kinds) != 1 or SHAPE_OF_VERDICT.get(kinds[0]) != shape:
        return f"classify: shape {shape!r} does not follow from the verdicts {kinds}"
    return None


def _verdict_problems(trace: _Fields, table: dict[Seq, Seq], memo: _Memo) -> list[str]:
    """How the verdicts of a children_stabilize trace fail its table.  Each
    node with children has one verdict, about the values at the augmented
    points of its children's images c_i.  Convergent: c_i is within 2^-i
    of the value at the augmented point of the node's image r followed by
    selector_budget - 1.  Discrete:eps: any two c_i are at least eps > 0
    apart."""
    verdicts = _Fields(trace.read("verdicts", _typed(dict, "an object")), f"{trace.path}.verdicts")
    params = _Fields(trace["params"], f"{trace.path}.params")
    last = params.read("selector_budget", _typed(int, "an integer")) - 1
    children: dict[Seq, list[Seq]] = {}
    for t in sorted(table):
        if t:
            children.setdefault(t[:-1], []).append(t)
    want = sorted(node_key(t) for t in children)
    if sorted(verdicts) != want:
        return [f"children_stabilize: verdicts at {sorted(verdicts)}, not at the nodes "
                f"with children {want}"]
    phi = memo.phi
    if phi is None:
        return ["children_stabilize: its verdicts need a function but the trace names none"]
    for t, kids in children.items():
        verdict = verdicts[node_key(t)]
        values = [(c[-1], memo.value(AugmentedPoint(table[c]))) for c in kids]
        if verdict == "Convergent":
            limit = memo.value(AugmentedPoint(table[t] + (last,)))
            for i, v in values:
                d = phi.value_distance(v, limit)
                if not d <= Dyadic.pow2(-i):
                    return [f"children_stabilize: Convergent at {t}, but child {i} is at "
                            f"distance {d} from the limit, above {Dyadic.pow2(-i)}"]
        elif isinstance(verdict, str) and verdict.startswith("Discrete:"):
            eps = verdicts.read(node_key(t), lambda v: dyadic_from_json(v.partition(":")[2]))
            if eps.is_zero():
                return [f"children_stabilize: Discrete at {t} with eps 0"]
            for (i, v), (j, w) in combinations(values, 2):
                d = phi.value_distance(v, w)
                if not d >= eps:
                    return [f"children_stabilize: {verdict} at {t}, but children {i} and "
                            f"{j} are at distance {d}"]
        else:
            return [f"children_stabilize: unknown verdict {verdict!r} at {t}"]
    return []


def recheck(trace: dict) -> RecheckReport:
    """Re-verify a construction trace from scratch; recurses into stages.
    A malformed field raises ParseError naming its path, e.g.
    ``trace.stages[0].certificates[1].node``.  Each table is parsed once,
    and a stage whose function spec is the one the stage before it leaves
    takes that function as built, not built again."""
    return _recheck(trace, "trace", None)[0]


def _recheck(trace: dict, path: str, known: tuple[Any, SpaceFunction] | None
             ) -> tuple[RecheckReport, dict[Seq, Seq] | None, SpaceFunction | None]:
    """The report on the trace, its table and its function, None where
    they were not reached.  known is a function spec with the function
    built from it, which a trace naming that spec takes."""
    if not isinstance(trace, dict) or not isinstance(trace.get("certificates"), list):
        raise ParseError(f"{path} must be an object with a 'certificates' list")
    stages = trace.get("stages", [])
    if not isinstance(stages, list):
        raise ParseError(f"{path}.stages must be a list")
    spec = trace.get("function")
    try:
        if spec is None:
            phi = None
        elif known is not None and spec == known[0]:
            phi = known[1]
        else:
            phi = build_function(spec)
    except ParseError as e:
        return RecheckReport(False, 0, [f"cannot rebuild function: {e}"]), None, None
    parsed = table_from_json(trace.get("table", {}))
    table = _Fields(parsed, f"{path}.table")
    fields, memo = _Fields(trace, path), _Memo(phi, _points(trace, path))
    report = RecheckReport(True, 0)
    verdicts = []
    try:
        for i, cert in enumerate(trace["certificates"]):
            n, msg = _check_cert(_Fields(cert, f"{path}.certificates[{i}]"), fields, phi, table, memo)
            report.checked += n
            if msg is not None:
                report.failures.append(msg)
        if trace.get("op") == "children_stabilize":
            verdicts = _verdict_problems(fields, table, memo)
    except InvalidEmbedding as e:
        # phi evaluates through no embedding but the tables its spec precomposes.
        report.failures.append(f"{path}.function: a precompose table is not an embedding: {e}")
    report.failures += _contract_problems(trace, stages) + verdicts
    report.ok = not report.failures
    known = None if phi is None else (spec, phi)
    tables = []
    for i, stage in enumerate(stages):
        sub, stage_table, stage_phi = _recheck(stage, f"{path}.stages[{i}]", known)
        report.merge(sub)
        tables.append(stage_table)
        # What this stage leaves for the next: its function after its table.
        known = None
        if stage_phi is not None and "table" in stage and i + 1 < len(stages):
            known = ({"base": stage["function"], "precompose": stage["table"]},
                     compose_function(stage_phi, stage_table))
    if trace.get("op") == "classify_baire_function":
        msg = _classify_problem(fields, stages, tables, table)
        report.merge(RecheckReport(msg is None, 1, [] if msg is None else [msg]))
    return report, parsed, phi
