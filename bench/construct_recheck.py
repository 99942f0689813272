"""Ops of the library workload: one op builds a traced construction, sends the trace
through json.dumps and json.loads, and rechecks it.

Ops cycle through the 13 construct ops of the command line; the seed picks
the oracle, depth and branch among the configurations listed in CONFIGS.
"""
from __future__ import annotations

import json
import random

import refs

TRACE_OPS = 78

# op -> oracle name -> (depth, branch) pairs, None meaning every pair of
# depth 1-3 and branch 2-3.  An oracle is listed when the op's contract says
# it succeeds with the command line's default budget: the op needs a
# cone_diameter oracle (shrink, disjointify), a dyadic-valued function
# (avoid, finite-avoid), and otherwise a search that finds its certificate
# within 100000 steps.  The pairs left out of a list are the ones where the
# search exhausts that budget.
_D12 = [(1, 2), (1, 3)]
_NO33 = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]
CONFIGS = {
    "ramsey": dict.fromkeys(["all", "even-sum", "short"]),
    "category": dict.fromkeys(["all-levels", "ends-in-zero-level", "length-at-least"]),
    "continuity": dict.fromkeys(["all-levels", "ends-in-zero-level", "length-at-least"]),
    "shrink": dict.fromkeys(["baire-identity", "compactify-identity", "const-zero", "depth-collapse",
                             "first-entry", "half-eps-diam", "prefix-embed", "zero-one-split"]),
    "stabilize": dict.fromkeys(["baire-identity", "compactify-identity", "const-zero", "depth-collapse",
                                "entry-sum", "enum-index", "first-entry", "half-eps-diam", "last-entry",
                                "length", "prefix-embed", "two-pow-last", "two-pow-weight",
                                "zero-one-split"]),
    "disjointify": {"compactify-identity": None, "prefix-embed": None, "first-entry": _D12},
    "limit": dict.fromkeys(["baire-identity", "compactify-identity", "const-zero", "depth-collapse",
                            "entry-sum", "enum-index", "first-entry", "half-eps-diam", "last-entry",
                            "length", "prefix-embed", "two-pow-last", "two-pow-weight",
                            "zero-one-split"]),
    "eps-split": {**dict.fromkeys(["baire-identity", "compactify-identity", "const-zero",
                                   "depth-collapse", "entry-sum", "enum-index", "first-entry",
                                   "half-eps-diam", "last-entry", "prefix-embed", "two-pow-last",
                                   "two-pow-weight", "zero-one-split"]),
                  "length": _NO33},
    "shrink-or-discrete": {**dict.fromkeys(["const-zero", "entry-sum", "enum-index", "first-entry",
                                            "half-eps-diam", "last-entry", "two-pow-weight",
                                            "zero-one-split"]),
                           "baire-identity": _D12, "depth-collapse": _D12, "length": _NO33,
                           "two-pow-last": [(1, 2)]},
    "avoid": dict.fromkeys(["depth-collapse", "entry-sum", "enum-index", "first-entry", "length",
                            "two-pow-last", "two-pow-weight", "zero-one-split"]),
    "finite-avoid": dict.fromkeys(["const-zero", "depth-collapse", "entry-sum", "enum-index",
                                   "first-entry", "half-eps-diam", "last-entry", "length",
                                   "two-pow-last", "two-pow-weight", "zero-one-split"]),
    "discrete-refine": {**dict.fromkeys(["baire-identity", "compactify-identity", "const-zero",
                                         "enum-index", "first-entry", "half-eps-diam",
                                         "prefix-embed", "two-pow-weight", "zero-one-split"]),
                        "depth-collapse": _NO33, "entry-sum": _NO33, "length": _NO33,
                        "two-pow-last": [(1, 2)]},
    "classify": {**dict.fromkeys(["compactify-identity", "const-zero", "depth-collapse",
                                  "half-eps-diam", "prefix-embed", "zero-one-split"]),
                 "baire-identity": _NO33},
}
OPS = list(CONFIGS)
_ALL = [(d, b) for d in (1, 2, 3) for b in (2, 3)]


def draw(rng, op):
    """A seeded configuration (op, oracle name, depth, branch)."""
    name = rng.choice(sorted(CONFIGS[op]))
    depth, branch = rng.choice(CONFIGS[op][name] or _ALL)
    return op, name, depth, branch


def ops(seed: int):
    rng = random.Random(f"construct-recheck:{seed}")
    index = 0
    while True:
        config = draw(rng, OPS[index % len(OPS)])
        yield index, config[0], config[1], config
        index += 1


def warmup_ops(seed: int):
    rng = random.Random(f"construct-recheck-warmup:{seed}")
    return [(i, op, None, (op, *draw(rng, op)[1:2], 1, 2)) for i, op in enumerate(OPS)]


def build(op, name, depth, branch):
    """The construction the command line runs for `construct <op>`, with its
    default budget, schedule and parameters."""
    from seqstar import constructions as con
    from seqstar.metric import Dyadic, weight_schedule
    from seqstar.registry import space_function, tree_family, tree_set
    from seqstar.sequences import DepthBudget

    budget, schedule = DepthBudget(), weight_schedule()
    if op == "ramsey":
        return con.ramsey_split(tree_set(name), depth, branch, budget)[1]
    if op == "category":
        return con.category_refine(tree_family(name), (), depth, branch, budget)
    if op == "continuity":
        return con.continuity_refine(tree_family(name), (), depth, branch, budget)
    phi = space_function(name)
    if op == "shrink":
        return con.diameter_shrink(phi, schedule, depth, branch, budget)
    if op == "stabilize":
        return con.children_stabilize(phi, 48, depth, branch, budget)[0]
    if op == "disjointify":
        return con.disjointify(phi, depth, branch, budget)
    if op == "limit":
        return con.limit_refine(phi, schedule, depth, branch, budget)[1]
    if op == "eps-split":
        return con.epsilon_discrete_or_ball(phi, Dyadic(1), (), depth, branch, budget)[1]
    if op == "shrink-or-discrete":
        return con.shrink_or_discrete(phi, schedule, depth, branch, budget)[1]
    if op == "avoid":
        return con.point_avoid(phi, Dyadic(0), budget)[1]
    if op == "finite-avoid":
        return con.finite_avoid_or_converge(phi, [Dyadic(0)], (), depth, branch, budget)[1]
    if op == "discrete-refine":
        return con.discrete_refine(phi, schedule, depth, branch, budget)[1]
    return con.classify_baire_function(phi, depth, branch, budget)[1]


def table_of(trace: dict) -> dict:
    return {tuple(int(x) for x in k.split(",")) if k else (): tuple(v)
            for k, v in trace["table"].items()}


def table_problem(trace: dict) -> str | None:
    """Whether the trace's table, read without seqstar, is a meet embedding
    on its range."""
    table = table_of(trace)
    depth = max(len(t) for t in table)
    branch = 1 + max((e for t in table for e in t), default=0)
    if depth == 0:
        return None
    bad = refs.table_violation(table, depth, branch)
    return None if bad is None else f"table breaks the embedding conditions at {bad}"


class Workload:
    def __init__(self):
        from seqstar import trace

        self.trace = trace
        self.dumps, self.loads = json.dumps, json.loads

    def prepare(self, kind, args):
        return args

    def call(self, kind, config):
        """Construct, round-trip the trace through JSON, recheck it."""
        pe = build(*config)
        doc = self.loads(self.dumps(pe.trace))
        return doc, self.trace.recheck(doc)

    def check(self, kind, args, got) -> str | None:
        doc, report = got
        if not report.ok or report.failures or report.checked < 1:
            return f"recheck {report}"
        return table_problem(doc)
