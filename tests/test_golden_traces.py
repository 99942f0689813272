"""Every construction the benchmark runs, pinned byte for byte.

Builds each of the 650 configurations in bench/construct_recheck.CONFIGS
with the command line's defaults, checks that its trace rechecks ok after a
JSON round trip, and compares a sha256 of each op's traces (json.dumps with
sorted keys, concatenated in CONFIGS order) with the value the traces had
when this test was written.  A change to a search, a certificate or the
order of either shows here as a changed hash.

Two wider pins follow.  One sha256 covers the outcome of every op on every
registry oracle of its kind at depth 1-3 and branch 2-3, failures included,
so a change in how a search counts its steps shows too.  And the registry
oracle calls of the 650 benchmark builds are counted per op and held to the
counts they had when this test was written, so that a search which loses an
early exit fails here, not only in the benchmark.
"""
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
    "ramsey": "fb505605f727c8785800528eb176632a294b7617dc1b79837230d53ace15a35b",
    "category": "6244d7c3343e7ed8c4b3e1b84ccf906ecfb40a8e071b42a4127f000e16e19f01",
    "continuity": "576e0de394d3e9542f872b19033d11adbb38dd2a01201de3229a75bbe9aaf726",
    "shrink": "bb49a1c9a32e523ff4fa5bd433520ba904a86c5bbc1b863ff2d5e59e53542351",
    "stabilize": "4720c9d0e3626a50fa4148071ce28f4fd9332280abc98724ca5bf2d6ce13dd44",
    "disjointify": "ffaeb30d6d0053a30138d712800fbef0bebd4d7f4e331c1da954f63d5f02e9d8",
    "limit": "ee2b4b6c015289b47c801682a1d907b77d49f3af212b092391dd824c03c6ee01",
    "eps-split": "e53e3ba532231a01533140400be2077cf4a2bf27dfd632fae7e5230cffbbb512",
    "shrink-or-discrete": "3bb8b8f018b0368eac2bd8412a84f6825069b76448c1905dc8c1c73057616e8e",
    "avoid": "b3857303125689219bb8222366aac62973d59043dccf84340829f1d02319e30e",
    "finite-avoid": "591b3a62189eaf96be67f181c99426c022349035eac14bf4251517b2375abcd2",
    "discrete-refine": "35956525f56016c7c872c7a358f1e95d02d6cd6e4a99100baa4eeaa921907321",
    "classify": "d1ef7ec3519eed603409486f1ab6794f938ad4e091178dae55a2ad997083f1d3",
}


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
        text = json.dumps(construct_recheck.build(*config).trace, sort_keys=True)
        digest.update(text.encode())
        report = recheck(json.loads(text))
        assert report.ok and not report.failures, (config, report.failures[:3])
    assert digest.hexdigest() == GOLDEN[op]


# --- every outcome, failures included --------------------------------------

OUTCOMES, FAILURES = 894, 238
OUTCOMES_GOLDEN = "8089749239692ac619f3840cb30d5e6b9ae6ce1f11097c297339b6a3f729fc80"


def every_config():
    for op in construct_recheck.OPS:
        oracles = (registry.TREE_SETS if op == "ramsey"
                   else registry.TREE_FAMILIES if op in ("category", "continuity")
                   else registry.FUNCTIONS)
        for name in sorted(oracles):
            for depth, branch in ALL_PAIRS:
                yield op, name, depth, branch


def test_every_outcome_matches_the_golden_hash():
    digest = hashlib.sha256()
    count = failed = 0
    for config in every_config():
        count += 1
        try:
            text = json.dumps(construct_recheck.build(*config).trace, sort_keys=True)
        except (BudgetExceeded, DomainMismatch) as e:
            failed += 1
            text = f"{type(e).__name__}|{getattr(e, 'stage', None)}|{e}"
        digest.update(text.encode())
    assert (count, failed) == (OUTCOMES, FAILURES)
    assert digest.hexdigest() == OUTCOMES_GOLDEN


# --- oracle-call ceilings --------------------------------------------------

ORACLE_FIELDS = ("evaluate", "value_distance", "cone_diameter")

# op -> registry (evaluate, value_distance, cone_diameter) calls over its
# benchmark builds; ops on tree sets or families call none of these.
CEILINGS = {
    "shrink": (0, 0, 751),
    "stabilize": (19_488, 9_970, 0),
    "disjointify": (157, 268, 268),
    "limit": (7_664, 4_030, 0),
    "eps-split": (26_133, 36_735, 0),
    "shrink-or-discrete": (16_305, 31_842, 0),
    "avoid": (1_764, 1_764, 0),
    "finite-avoid": (14_038, 14_038, 0),
    "discrete-refine": (23_632, 50_614, 0),
    "classify": (4_110, 3_660, 554),
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
