"""Offline re-verification of construction traces.

A trace names its oracles (registry names, possibly with precompose
tables), lists the constructed table, and carries certificates.  Recheck
rebuilds the oracles, re-runs every recorded query, and re-evaluates each
certifying comparison in exact dyadic arithmetic.
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
from .registry import OPS, SHAPE_OF_VERDICT, SpaceFunction, build_function, tree_family, tree_set
from .sequences import AugmentedPoint, Point, Record, Seq
from .serialize import (
    ParseError,
    _seq,
    dyadic_from_json,
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


class _Memo:
    """What the certificates of one stage share: phi's value at each point
    and each bound parsed, each worked out once."""

    def __init__(self, phi: SpaceFunction | None):
        self.phi = phi
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


def _check_cert(cert: dict, trace: dict, phi: SpaceFunction | None,
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
        return memo.value(cert.read(key, point_from_json))

    if kind == "diam_lt":
        node = cert.node("node")
        eps = memo.dyadic(cert, "eps")
        got = phi.cone_diameter(node)
        return None if got < eps else f"diam_lt: cone_diameter({node}) = {got} not < {eps}"
    if kind in ("value_dist_lt", "value_dist_le", "value_dist_ge"):
        d = phi.value_distance(value_at("a"), value_at("b"))
        bound = memo.dyadic(cert, "bound")
        ok = {"value_dist_lt": d < bound, "value_dist_le": d <= bound,
              "value_dist_ge": d >= bound}[kind]
        return None if ok else f"{kind}: distance {d} vs bound {bound}"
    if kind == "avoid_value":
        d = phi.value_distance(value_at("a"), cert.read("x", value_from_json))
        bound = memo.dyadic(cert, "bound")
        if cert.get("op") == "lt":
            return None if d < bound else f"avoid_value: distance {d} not < {bound}"
        if bound.is_zero() or d < bound:
            return f"avoid_value: distance {d} below positive bound {bound}"
        return None
    if kind == "avoid_pair":
        d = phi.value_distance(value_at("a"), value_at("b"))
        bound = memo.dyadic(cert, "bound")
        if bound.is_zero() or d < bound:
            return f"avoid_pair: distance {d} below positive bound {bound}"
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


def _classify_problem(trace: _Fields, stages: list[dict], table: dict[Seq, Seq]) -> str | None:
    """What breaks the pipeline a classify_baire_function trace claims, or
    None.  A Constant shape rests on no stages.  Any other shape rests on
    the three pipeline stages in order, each run on the function the stages
    before it leave; the table must be the composite of the stage tables,
    and the shape the one the stabilize verdicts give."""
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
    tables = [table_from_json(stage.get("table", {})) for stage in stages]
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


def recheck(trace: dict) -> RecheckReport:
    """Re-verify a construction trace from scratch; recurses into stages.
    A malformed field raises ParseError naming its path, e.g.
    ``trace.stages[0].certificates[1].node``."""
    return _recheck(trace, "trace")


def _recheck(trace: dict, path: str) -> RecheckReport:
    if not isinstance(trace, dict) or not isinstance(trace.get("certificates"), list):
        raise ParseError(f"{path} must be an object with a 'certificates' list")
    stages = trace.get("stages", [])
    if not isinstance(stages, list):
        raise ParseError(f"{path}.stages must be a list")
    try:
        phi = None if trace.get("function") is None else build_function(trace["function"])
    except ParseError as e:
        return RecheckReport(False, 0, [f"cannot rebuild function: {e}"])
    table = _Fields(table_from_json(trace.get("table", {})), f"{path}.table")
    fields, memo = _Fields(trace, path), _Memo(phi)
    report = RecheckReport(True, len(trace["certificates"]))
    for i, cert in enumerate(trace["certificates"]):
        msg = _check_cert(_Fields(cert, f"{path}.certificates[{i}]"), fields, phi, table, memo)
        if msg is not None:
            report.failures.append(msg)
    report.failures += _contract_problems(trace, stages)
    report.ok = not report.failures
    for i, stage in enumerate(stages):
        report.merge(_recheck(stage, f"{path}.stages[{i}]"))
    if trace.get("op") == "classify_baire_function":
        msg = _classify_problem(fields, stages, table)
        report.merge(RecheckReport(msg is None, 1, [] if msg is None else [msg]))
    return report
