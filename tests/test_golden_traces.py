"""Every construction the benchmark runs, pinned byte for byte.

Builds each of the 650 configurations in bench/construct_recheck.CONFIGS
with the command line's defaults, checks that its trace rechecks ok after a
JSON round trip, and compares a sha256 of each op's traces (json.dumps with
sorted keys, concatenated in CONFIGS order) with the value the traces had
when this test was written.  A change to a search, a certificate or the
order of either shows here as a changed hash.

A second sha256 covers what those traces certify, not how they write it:
each certificate written out as one comparison per pair of points, in a
canonical order.  A change to the trace format alone leaves it as it is.

Two wider pins follow.  One sha256 covers the outcome of every op on every
registry oracle of its kind at depth 1-3 and branch 2-3, failures included,
so a change in how a search counts its steps shows too.  And the registry
oracle calls of the 650 benchmark builds are counted per op and held to the
counts they had when this test was written, so that a search which loses an
early exit fails here, not only in the benchmark.
"""
import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from seqstar import registry
from seqstar.sequences import BudgetExceeded, DomainMismatch
from seqstar.trace import recheck

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, BENCH)
try:
    import construct_recheck
finally:
    sys.path.remove(BENCH)

ALL_PAIRS = [(d, b) for d in (1, 2, 3) for b in (2, 3)]

GOLDEN = {
    "ramsey": "79f9c699c16a80c408f7ce55858f249a2cbc47355763239faed8dd267bb11681",
    "category": "bbd3c86b1aa493aeee6db1cd852345c4ee13d86c5c1049f25509deeb00a805d3",
    "continuity": "691f1f39004f7cfa9d756214899ea74491ac57f28a12a6a1eab9ff1ce1d4eae8",
    "shrink": "28b7e07708ea0206d5f201f84b6da777c920a8782adca6b841b1d91d942cce86",
    "stabilize": "417427381f54761237e1e86476c50b3a75a2bbb7e971f7bc1fa80d8fc1b4f737",
    "disjointify": "e35f1a61c1a49121b0602f08856ca897c232334f110ff88282947a56ebe28e02",
    "limit": "f47c2f068a243f7a12af18ada11789cb5ac4885a26a85192edd612f3679f297a",
    "eps-split": "48800c9d6c78ec207be7117ca78dd76325b75306eb9336273de075379f28061d",
    "shrink-or-discrete": "02c5cef4be1753d677ab079f92854b515a06cd5e06db9d06b16dc72c05d6c44e",
    "avoid": "9c332041dfef3e760f67414f2972429dc515992993e2aa7d10050865a0f6d914",
    "finite-avoid": "ba9aced8ae8b0a493bc7c74ef33bd35a12b3506bd93f90d67ab8e18e60bfcbf9",
    "discrete-refine": "63dca514442cec9d3735cfb4eb21cd8afdd0ef6562649573c74a88e4720759d2",
    "classify": "cd77dce027ee00890ccb9338d668896705dcb8b4d7750c4965046e005415a32a",
}


@functools.lru_cache(maxsize=None)
def trace_text(config):
    """The JSON of a configuration's trace, with sorted keys."""
    return json.dumps(construct_recheck.build(*config).trace, sort_keys=True)


def configs(op):
    for name, pairs in construct_recheck.CONFIGS[op].items():
        for depth, branch in pairs or ALL_PAIRS:
            yield op, name, depth, branch


def test_golden_covers_every_op_and_650_configurations():
    assert list(GOLDEN) == list(construct_recheck.CONFIGS)
    assert sum(len(list(configs(op))) for op in GOLDEN) == 650


@pytest.mark.parametrize("op", list(GOLDEN))
def test_traces_match_the_golden_hash_and_recheck_ok(op):
    digest = hashlib.sha256()
    for config in configs(op):
        text = trace_text(config)
        digest.update(text.encode())
        report = recheck(json.loads(text))
        assert report.ok and not report.failures, (config, report.failures[:3])
    assert digest.hexdigest() == GOLDEN[op]


# --- the comparisons behind every trace ------------------------------------

COMPARISONS_GOLDEN = "195dafca0aafa67573d0aa58103b3c091c0ebce812b0e5c95596e8cd3cac70bb"


def expanded(trace):
    """The trace with its certificates written out as one comparison per
    pair, each point inline, sorted; its stages likewise.  A certificate
    names a point by its index in the trace's points list, and a list of
    indices on a side stands for each of them; a point object in its place
    (as traces were first written, before the points list) stands for
    itself."""
    points = trace.get("points", [])

    def sides(value):
        return [points[i] if isinstance(i, int) else i
                for i in (value if isinstance(value, list) else [value])]

    comparisons = []
    for cert in trace["certificates"]:
        pairs = [cert]
        for key in ("a", "b"):
            if key in cert:
                pairs = [dict(pair, **{key: p}) for pair in pairs for p in sides(cert[key])]
        comparisons += [json.dumps(pair, sort_keys=True) for pair in pairs]
    rest = {k: v for k, v in trace.items() if k not in ("certificates", "points", "stages")}
    return {**rest, "certificates": sorted(comparisons),
            "stages": [expanded(stage) for stage in trace.get("stages", [])]}


def count_comparisons(doc):
    return len(doc["certificates"]) + sum(count_comparisons(s) for s in doc["stages"])


def test_every_trace_makes_the_pinned_comparisons_and_counts_each_one():
    # The pin covers what a trace certifies, not how it writes it down.
    # Recheck counts one check per comparison, plus the pipeline check of
    # a classify trace.
    digest = hashlib.sha256()
    for op in GOLDEN:
        for config in configs(op):
            trace = json.loads(trace_text(config))
            doc = expanded(trace)
            digest.update(json.dumps(doc, sort_keys=True).encode())
            pipeline = trace["op"] == "classify_baire_function"
            assert recheck(trace).checked == count_comparisons(doc) + pipeline, config
    assert digest.hexdigest() == COMPARISONS_GOLDEN


def stages_of(trace):
    yield trace
    for stage in trace.get("stages", []):
        yield from stages_of(stage)


def test_every_trace_writes_each_point_once_and_none_is_large():
    largest = 0
    for op in GOLDEN:
        for config in configs(op):
            text = trace_text(config)
            largest = max(largest, len(text))
            for trace in stages_of(json.loads(text)):
                points = [json.dumps(p, sort_keys=True) for p in trace["points"]]
                assert len(set(points)) == len(points), config
                named = set()
                for cert in trace["certificates"]:
                    for key in ("a", "b"):
                        i = cert.get(key, [])
                        named.update(i if isinstance(i, list) else [i])
                assert named == set(range(len(points))), config
    assert largest <= 20_000


# --- every outcome, failures included --------------------------------------

OUTCOMES, FAILURES = 894, 238
# The failure strings alone, which a change to the trace format leaves as they are.
FAILURES_GOLDEN = "84415f42b98a3380a1ede6d553065696ca49a0ce8c93e8a2f53b1422168d1e0f"
OUTCOMES_GOLDEN = "26071b50f2aa75e1bfc65eb9a4bf0c9d8ded9f15d3e2ad45c363a798aac73681"


def every_config():
    for op in construct_recheck.OPS:
        oracles = (registry.TREE_SETS if op == "ramsey"
                   else registry.TREE_FAMILIES if op in ("category", "continuity")
                   else registry.FUNCTIONS)
        for name in sorted(oracles):
            for depth, branch in ALL_PAIRS:
                yield op, name, depth, branch


def test_every_outcome_matches_the_golden_hash():
    digest, failures = hashlib.sha256(), hashlib.sha256()
    count = failed = 0
    for config in every_config():
        count += 1
        try:
            text = json.dumps(construct_recheck.build(*config).trace, sort_keys=True)
        except (BudgetExceeded, DomainMismatch) as e:
            failed += 1
            text = f"{type(e).__name__}|{getattr(e, 'stage', None)}|{e}"
            failures.update(text.encode())
        digest.update(text.encode())
    assert (count, failed) == (OUTCOMES, FAILURES)
    assert failures.hexdigest() == FAILURES_GOLDEN
    assert digest.hexdigest() == OUTCOMES_GOLDEN


# --- oracle-call ceilings --------------------------------------------------

ORACLE_FIELDS = ("evaluate", "value_distance", "cone_diameter")

# op -> registry (evaluate, value_distance, cone_diameter) calls over its
# benchmark builds; ops on tree sets or families call none of these.
CEILINGS = {
    "shrink": (0, 0, 751),
    "stabilize": (8_412, 9_970, 0),
    "disjointify": (157, 268, 268),
    "limit": (7_664, 4_030, 0),
    "eps-split": (26_133, 36_735, 0),
    "shrink-or-discrete": (16_305, 31_842, 0),
    "avoid": (1_764, 1_764, 0),
    "finite-avoid": (14_038, 14_038, 0),
    "discrete-refine": (23_632, 50_614, 0),
    "classify": (1_848, 3_660, 554),
}


def test_oracle_calls_stay_within_their_ceilings(monkeypatch):
    calls = dict.fromkeys(ORACLE_FIELDS, 0)

    def counted(field, f):
        def call(*args):
            calls[field] += 1
            return f(*args)
        return call

    for phi in registry.FUNCTIONS.values():
        for field in ORACLE_FIELDS:
            if getattr(phi, field) is not None:
                monkeypatch.setattr(phi, field, counted(field, getattr(phi, field)))
    used = {}
    for op in GOLDEN:
        for field in ORACLE_FIELDS:
            calls[field] = 0
        for config in configs(op):
            construct_recheck.build(*config)
        if any(calls.values()):
            used[op] = tuple(calls[f] for f in ORACLE_FIELDS)
    assert set(used) == set(CEILINGS)
    over = {op: (used[op], CEILINGS[op]) for op in CEILINGS
            if any(u > c for u, c in zip(used[op], CEILINGS[op]))}
    assert not over, over
