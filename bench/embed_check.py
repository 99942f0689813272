"""Ops of the library workload: validation, the meet-preservation oracle, amalgamation,
extension to points and preimages of cones.

Each cycle of 11 ops draws two depth-4 branch-4 tables shaped like the
ones in acceptance criterion 3, one genuine and one with a single node
corrupted (strict extension broken, or a sibling's image reused), and runs
validate and meet_preservation_oracle on both.  The other ops use depth-4
branch-3 tables, prefix embeddings and their compositions.
"""
from __future__ import annotations

import random

import refs

TRACE_OPS = 44
EXTEND_DEPTH = 24  # coordinates of an extended infinite point that are compared
KINDS = ["validate", "oracle", "validate", "oracle", "amalgamate",
         "extend", "extend", "extend", "extend", "preimage_cone", "preimage_cone"]


def _genuine(rng, depth, branch, tail_top=3):
    table = {(): tuple(rng.randrange(3) for _ in range(rng.randrange(2)))}
    for t in refs.nodes(depth, branch)[1:]:
        tail = tuple(rng.randrange(tail_top) for _ in range(rng.randrange(2)))
        table[t] = table[t[:-1]] + (t[-1],) + tail
    return table


def _corrupt(rng, table):
    table = dict(table)
    c = rng.choice([u for u in table if u])
    if rng.randrange(2) or c[-1] == 0:
        table[c] = table[c[:-1]]
        how = "strict"
    else:
        table[c] = table[c[:-1] + (c[-1] - 1,)]
        how = "sibling"
    return table, (how, c)


def _embedding(rng, kind):
    s = tuple(rng.randrange(3) for _ in range(rng.randrange(3)))
    table = _genuine(rng, 4, 3, 1) if kind != "prefix" else None
    return (kind, s, table)


def _point(rng):
    head = tuple(rng.randrange(3) for _ in range(rng.randrange(7)))
    if rng.randrange(2):
        return ("a", head[:4])
    return ("p", head, tuple(rng.randrange(3) for _ in range(rng.randint(1, 2))))


def ops(seed: int):
    rng = random.Random(f"embed-check:{seed}")
    index = 0
    while True:
        good = _genuine(rng, 4, 4)
        bad, corruption = _corrupt(rng, _genuine(rng, 4, 4))
        for slot, kind in enumerate(KINDS):
            if kind in ("validate", "oracle"):
                label, args = ("good", (good, None)) if slot < 2 else ("bad", (bad, corruption))
            elif kind == "amalgamate":
                label, args = None, tuple(rng.randrange(2) for _ in range(rng.randrange(2)))
            elif kind == "extend":
                emb = _embedding(rng, rng.choice(("prefix", "table", "composed")))
                p = _point(rng)
                label, args = f"{emb[0]}-{p[0]}", (emb, p)
            else:
                emb = _embedding(rng, "table")
                image = _image(emb)
                target = image(tuple(rng.randrange(3) for _ in range(rng.randrange(5))))
                if rng.randrange(4) == 0:
                    target = target + (5,)  # no node of the range maps below this
                label, args = None, (emb, target[:rng.randint(0, len(target))])
            yield index, kind, label, args
            index += 1


def warmup_ops(seed: int):
    rng = random.Random(f"embed-check-warmup:{seed}")
    small = {t: t for t in refs.nodes(4, 4)}
    return [
        (0, "validate", "good", (small, None)),
        (1, "oracle", "good", (small, None)),
        (2, "amalgamate", None, ()),
        (3, "extend", "table-p", (_embedding(rng, "composed"), ("p", (0,), (1,)))),
        (4, "preimage_cone", None, (_embedding(rng, "table"), (0,))),
    ]


def _image(emb):
    kind, s, table = emb
    if kind == "prefix":
        return lambda t: s + tuple(t)
    if kind == "table":
        return lambda t: refs.table_image(table, t)
    return lambda t: s + refs.table_image(table, t)


class Workload:
    def __init__(self):
        from seqstar import embeddings, sequences

        self.e, self.s = embeddings, sequences

    def embedding(self, emb):
        ME = self.e.MeetEmbedding
        kind, s, table = emb
        if kind == "prefix":
            return ME.prefix(s)
        if kind == "table":
            return ME.from_table(table)
        return ME.prefix(s).compose(ME.from_table(table))

    def prepare(self, kind, args):
        if kind in ("validate", "oracle"):
            return args[0].__getitem__
        if kind == "amalgamate":
            ME, pad = self.e.MeetEmbedding, args
            return self.e.EmbeddingFamily(lambda t: ME.prefix(t + pad))
        emb, x = args
        if kind == "preimage_cone":
            return self.embedding(emb), x
        if x[0] == "a":
            return self.embedding(emb), self.s.AugmentedPoint(x[1])
        return self.embedding(emb), self.s.PeriodicPoint(x[1], x[2])

    def call(self, kind, obj):
        e = self.e
        if kind == "validate":
            return e.validate(obj, 4, 4)
        if kind == "oracle":
            return e.meet_preservation_oracle(obj, 4, 4)
        if kind == "amalgamate":
            return e.amalgamate(obj, 4, 3)
        if kind == "preimage_cone":
            return e.preimage_cone(obj[0], obj[1], 4, 3)
        q = e.extend(*obj)
        if isinstance(q, self.s.AugmentedPoint):
            return q.seq
        # the extension is lazy: reading its prefix is the work
        return q.restrict(EXTEND_DEPTH).seq

    def check(self, kind, args, got) -> str | None:
        e = self.e
        if kind == "validate":
            table, corruption = args
            want = refs.table_violation(table, 4, 4)
            if corruption is not None and want != corruption[1][:-1]:
                return f"reference misses the corruption {corruption}"
            if want is None:
                return None if isinstance(got, e.Valid) else f"{got!r} on a genuine table"
            if not isinstance(got, e.Violation) or got.t != want:
                return f"{got!r}, want a violation at {want} ({corruption})"
            return None
        if kind == "oracle":
            table, corruption = args
            if corruption is None:
                return None if isinstance(got, e.Agrees) else f"{got!r} on a genuine table"
            if not isinstance(got, e.Disagrees) or not refs.meet_broken(table, got.s, got.t):
                return f"{got!r} does not witness the corruption {corruption}"
            return None
        if kind == "amalgamate":
            for t in refs.nodes(4, 3):
                want = tuple(t)
                for n in range(len(t), -1, -1):
                    want = t[:n] + args + want
                if got.apply(t) != want:
                    return f"amalgam maps {t} to {got.apply(t)}, want {want}"
            return None
        emb, x = args
        image = _image(emb)
        if kind == "preimage_cone":
            want = refs.preimage(image, x, 4, 3)
            if want is None:
                return None if isinstance(got, e.Empty) else f"{got!r}, want Empty"
            return None if getattr(got, "t", None) == want else f"{got!r}, want Cone({want})"
        if x[0] == "a":
            want = image(x[1])
        else:
            want = refs.image_of_point(image, x, EXTEND_DEPTH)
        return None if got == want else f"extension {got}, want {want}"
