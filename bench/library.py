"""library: the library's calls, in this process, one op at a time.

One cycle runs a cycle of exact_queries ops (point queries and covers), two
cycles of embed_check ops (validate, the meet oracle, amalgamate, extend,
preimage_cone) and four cycles of construct_recheck ops (build, JSON round
trip, recheck), in that order.  Each part draws its inputs from its own
seeded stream, so the mix of op kinds in a run does not depend on the seed.
"""
from __future__ import annotations

import itertools

import construct_recheck
import embed_check
import exact_queries

PARTS = [
    (exact_queries, exact_queries.CYCLE),
    (embed_check, 2 * len(embed_check.KINDS)),
    (construct_recheck, 4 * len(construct_recheck.OPS)),
]
CYCLE = sum(n for _, n in PARTS)
TRACE_OPS = 2 * CYCLE
CONSTRUCT_KINDS = set(construct_recheck.OPS)


def _part(kind: str) -> int:
    """Which part of PARTS an op kind belongs to; the kinds are disjoint."""
    if kind in CONSTRUCT_KINDS:
        return 2
    return 1 if kind in embed_check.KINDS else 0


def ops(seed: int):
    streams = [(mod.ops(seed), n) for mod, n in PARTS]
    index = 0
    while True:
        for stream, n in streams:
            for _, kind, label, args in itertools.islice(stream, n):
                yield index, kind, label, args
                index += 1


def warmup_ops(seed: int):
    warm = [op[1:] for mod, _ in PARTS for op in mod.warmup_ops(seed)]
    return [(i, *op) for i, op in enumerate(warm)]


class Workload:
    def __init__(self):
        self.parts = [mod.Workload() for mod, _ in PARTS]
        self.construct = self.parts[2]

    def prepare(self, kind, args):
        return self.parts[_part(kind)].prepare(kind, args)

    def call(self, kind, obj):
        return self.parts[_part(kind)].call(kind, obj)

    def check(self, kind, args, got) -> str | None:
        return self.parts[_part(kind)].check(kind, args, got)
