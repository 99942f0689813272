"""cli-calls: one op is one `python -m seqstar.cli ...` child process.

Ops cycle through every subcommand and action; each output is compared
with the answer the library gives in this process.  `construct recheck`
reads on stdin the trace that the same configuration of `construct`
prints, as in `seqstar construct ... | seqstar construct recheck`.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import construct_recheck
import embed_check
import exact_queries

KINDS = ["dist", "meet", "eps", "member", "cover-check", "descent", "embed-check", "embed-eval",
         "embed-extend", "embed-compose", "embed-preimage", "catalog-list", "catalog-eval",
         "catalog-check-embed", "construct", "construct-recheck"]
TRACE_OPS = 2 * len(KINDS)
EXTEND_DEPTH = 60  # coordinates compared; the command line's depth budget is 64
COERCE_DEPTH = 16  # the command line reads periodic points to this depth at least


def _seq(rng, n, top=3):
    return [rng.randrange(top + 1) for _ in range(n)]


def point_json(p):
    if p[0] == "f":
        return {"kind": "finite", "seq": list(p[1])}
    if p[0] == "a":
        return {"kind": "augmented", "seq": list(p[1])}
    return {"kind": "periodic", "head": list(p[1]), "period": list(p[2])}


def basic_json(B):
    doc = {"kind": B[0], "t": list(B[1])}
    if B[0] == "cone_minus":
        doc["i"] = B[2]
    return doc


def _table_json(table):
    return {"kind": "table", "root": list(table.get((), ())),
            "entries": [[list(t[:-1]), t[-1], list(img)] for t, img in sorted(table.items()) if t]}


def _embedding(rng):
    if rng.randrange(2):
        return {"kind": "prefix", "s": _seq(rng, rng.randrange(3))}
    return _table_json(embed_check._genuine(rng, 3, 3, 1))


def _table_extend(rng):
    """A table with one entry, at a node u up to COERCE_DEPTH deep, and a
    point that passes through u half of the time: u is then a prefix of the
    point, mostly beyond its head."""
    head = _seq(rng, rng.randrange(4), 2)
    period = _seq(rng, rng.randint(1, 2), 2)
    depth = rng.randint(1, COERCE_DEPTH)
    if rng.randrange(2):
        u = (head + period * 24)[:depth]
    else:
        u = _seq(rng, depth, 2)
    table = {"kind": "table", "root": [], "entries": [[u[:-1], u[-1], u + [7]]]}
    if rng.randrange(4) == 0:
        return table, ("a", tuple(u[:rng.randint(0, depth)] + head))
    return table, ("p", tuple(head), tuple(period))


def ops(seed: int):
    rng = random.Random(f"cli-calls:{seed}")
    index = 0
    while True:
        cycle = index // len(KINDS)
        for kind in KINDS:
            label = None
            if kind == "dist":
                label = exact_queries.PAIRS[cycle % len(exact_queries.PAIRS)]
                a, b = exact_queries._pair(rng, label)
                argv = ["dist", "--a", json.dumps(point_json(a)), "--b", json.dumps(point_json(b))]
                args = (a, b)
            elif kind == "meet":
                s, t = _seq(rng, rng.randrange(6)), _seq(rng, rng.randrange(6))
                argv, args = ["meet", "--s", json.dumps(s), "--t", json.dumps(t)], (s, t)
            elif kind == "eps":
                t = _seq(rng, rng.randrange(6))
                argv, args = ["eps", "--t", json.dumps(t)], t
            elif kind == "member":
                B = exact_queries._basic(rng)
                p = exact_queries._point(rng, rng.choice("fap"), B[1] + tuple(_seq(rng, rng.randrange(3))))
                argv = ["member", "--set", json.dumps(basic_json(B)), "--point", json.dumps(point_json(p))]
                args = (B, p)
            elif kind in ("cover-check", "descent"):
                depth = 1 + cycle % 3
                fam, _ = exact_queries._family(rng, depth, kind == "cover-check" and rng.randrange(2))
                label = f"d{depth}"
                argv = [kind, "--family", json.dumps([basic_json(B) for B in fam])]
                args = fam
            elif kind == "embed-check":
                pi = _embedding(rng)
                argv, args = ["embed", "check", "--pi", json.dumps(pi), "--depth", "3", "--branch", "3"], pi
            elif kind == "embed-eval":
                pi, t = _embedding(rng), _seq(rng, rng.randrange(5), 2)
                argv, args = ["embed", "eval", "--pi", json.dumps(pi), "--t", json.dumps(t)], (pi, t)
            elif kind == "embed-extend":
                pi, p = _table_extend(rng)
                label = f"d{len(pi['entries'][0][0]) + 1}"
                argv = ["embed", "extend", "--pi", json.dumps(pi), "--point", json.dumps(point_json(p))]
                args = (pi, p)
            elif kind == "embed-compose":
                pi, pi2 = _embedding(rng), _embedding(rng)
                argv = ["embed", "compose", "--pi", json.dumps(pi), "--pi2", json.dumps(pi2),
                        "--depth", "3", "--branch", "3"]
                args = (pi, pi2)
            elif kind == "embed-preimage":
                pi = _table_json(embed_check._genuine(rng, 4, 3, 1))
                t = _seq(rng, rng.randrange(6), 2)
                argv = ["embed", "preimage", "--pi", json.dumps(pi), "--t", json.dumps(t),
                        "--depth", "4", "--branch", "3"]
                args = (pi, t)
            elif kind == "catalog-list":
                which = rng.choice("ab")
                argv, args = ["catalog", "list", "--set", which], which
            elif kind == "catalog-eval":
                which = rng.choice("ab")
                fn = rng.randrange(24 if which == "a" else 27)
                # every function is defined on augmented and periodic points
                p = exact_queries._point(rng, rng.choice("ap"), tuple(_seq(rng, rng.randrange(4))))
                argv = ["catalog", "eval", "--set", which, "--fn", str(fn), "--point", json.dumps(point_json(p))]
                args = (which, fn, p)
            elif kind == "catalog-check-embed":
                which, fn = rng.choice("ab"), rng.randrange(24)
                pi, seed_ = {"kind": "prefix", "s": _seq(rng, rng.randrange(3))}, rng.randrange(1000)
                argv = ["catalog", "check-embed", "--set", which, "--fn", str(fn), "--pi", json.dumps(pi),
                        "--samples", "8", "--seed", str(seed_)]
                args = (which, fn, pi, seed_)
            else:
                config = construct_recheck.draw(rng, construct_recheck.OPS[cycle % len(construct_recheck.OPS)])
                op, name, depth, branch = config
                label = op
                if kind == "construct":
                    flag = {"ramsey": "--set", "category": "--family", "continuity": "--family"}.get(op, "--fn")
                    argv = ["construct", op, flag, name, "--depth", str(depth), "--branch", str(branch)]
                else:
                    argv = ["construct", "recheck", "--trace", "-"]
                args = config
            yield index, kind, label, (argv, args)
            index += 1


def warmup_ops(seed: int):
    """One op of each kind, drawn from the first cycle of the stream."""
    return [op for op, _ in zip(ops(seed), KINDS)]


def defect_probe(wl) -> str | None:
    """ROADMAP defect 3: `embed extend` treats a table as coordinatewise
    beyond depth max(len(head) + len(period), 16), so an entry deeper than
    that is lost from the image of a periodic point.  The op stream keeps
    its tables within that depth, so that no op of a run fails on it; this
    one call, outside the timed ops, tells whether the defect still shows.
    Returns the mismatch, or None once the command line agrees."""
    u = [0] * (COERCE_DEPTH + 4)
    pi = {"kind": "table", "root": [], "entries": [[u[:-1], u[-1], u + [7]]]}
    p = ("p", (), (0,))
    args = (["embed", "extend", "--pi", json.dumps(pi), "--point", json.dumps(point_json(p))], (pi, p))
    return wl.check("embed-extend", args, wl.call("embed-extend", wl.prepare("embed-extend", args)))


class Workload:
    """Runs the command line in child processes and answers each op again
    through the library in this process."""

    def __init__(self, root: str, child: list[str] | None = None):
        from seqstar import catalog, embeddings, metric, sequences, serialize, topology, trace

        self.cat, self.e, self.m, self.s = catalog, embeddings, metric, sequences
        self.ser, self.t, self.trace = serialize, topology, trace
        self.root = root
        self.child = child or [sys.executable, "-m", "seqstar.cli"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env
        self.eq = exact_queries.Workload()

    def prepare(self, kind, args):
        argv, plain = args
        stdin = None
        if kind == "construct-recheck":
            stdin = json.dumps(construct_recheck.build(*plain).trace, ensure_ascii=False, sort_keys=True)
        return argv, stdin

    def call(self, kind, obj):
        """Run one child to completion: (exit code, stdout, stderr, peak RSS in KiB, seconds)."""
        argv, stdin = obj
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.child + argv, cwd=self.root, env=self.env,
                                stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            if stdin is not None:
                proc.stdin.write(stdin.encode())
                proc.stdin.close()
            out = proc.stdout.read()
            err = proc.stderr.read()
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
        return proc.returncode, out.decode(), err.decode(), usage.ru_maxrss, time.perf_counter() - t0

    def check(self, kind, args, got) -> str | None:
        code, out, err, _, _ = got
        if code != 0:
            return f"exit {code}: {err.strip()[-300:]}"
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return f"stdout is not JSON: {out[:200]!r}"
        want = self.expected(kind, args[1], doc)
        return None if doc == want else f"output {json.dumps(doc)[:300]}, library says {json.dumps(want)[:300]}"

    def expected(self, kind, a, doc):
        """The library's answer to the op, as the command line would print it;
        `doc` is read only to compare infinite extensions prefix by prefix."""
        e, m, s, ser, t, cat = self.e, self.m, self.s, self.ser, self.t, self.cat
        pt, basic = self.eq.point, self.eq.basic
        if kind == "dist":
            d = m.distance(pt(a[0]), pt(a[1]))
            return {"exact": str(d.value)} if isinstance(d, m.Exact) else {"upper": str(d.upper)}
        if kind == "meet":
            return {"meet": list(s.meet(tuple(a[0]), tuple(a[1])))}
        if kind == "eps":
            return {"eps": str(m.weight_schedule()(tuple(a)))}
        if kind == "member":
            return {"member": t.basic_member(basic(a[0]), pt(a[1]))}
        if kind == "cover-check":
            r = t.cover_decide([basic(B) for B in a])
            if isinstance(r, t.Counterexample):
                return {"covers": False, "counterexample": ser.point_to_json(r.point)}
            return {"covers": True}
        if kind == "descent":
            return {"point": ser.point_to_json(t.uncovered_descent([basic(B) for B in a]))}
        if kind == "embed-check":
            v = e.validate(ser.embedding_from_json(a).apply, 3, 3)
            if isinstance(v, e.Valid):
                return {"valid": True}
            return {"valid": False, "violation": {"t": list(v.t), "i": v.i, "j": v.j}}
        if kind == "embed-eval":
            return {"image": list(ser.embedding_from_json(a[0]).apply(tuple(a[1])))}
        if kind == "embed-extend":
            q = e.extend(ser.embedding_from_json(a[0]), pt(a[1]))
            if isinstance(q, s.AugmentedPoint):
                return {"point": ser.point_to_json(q)}
            got = doc.get("point", {})
            if got.get("kind") == "periodic" and got.get("period"):
                # equal as points when the first EXTEND_DEPTH coordinates agree
                cli = s.PeriodicPoint(tuple(got["head"]), tuple(got["period"]))
                if cli.restrict(EXTEND_DEPTH).seq == q.restrict(EXTEND_DEPTH).seq:
                    return doc
            return {"point": {"kind": "periodic", "prefix": list(q.restrict(EXTEND_DEPTH).seq)}}
        if kind == "embed-compose":
            composed = ser.embedding_from_json(a[0]).compose(ser.embedding_from_json(a[1]))
            return {"table": ser.table_to_json({u: composed.apply(u) for u in s.nodes_in_range(3, 3)})}
        if kind == "embed-preimage":
            r = e.preimage_cone(ser.embedding_from_json(a[0]), tuple(a[1]), 4, 3)
            if isinstance(r, e.Empty):
                return {"empty": True, "range_limited": r.range_limited}
            return {"cone": list(r.t)}
        if kind == "catalog-list":
            fns = cat.catalog_a() if a == "a" else cat.catalog_b()
            return {"count": len(fns), "functions": [cat.descriptor_to_json(f) for f in fns]}
        if kind == "catalog-eval":
            fns = cat.catalog_a() if a[0] == "a" else cat.catalog_b()
            return {"value": self._tagged(cat.evaluate(fns[a[1]], pt(a[2])))}
        if kind == "catalog-check-embed":
            from seqstar.registry import space_function

            fns = cat.catalog_a() if a[0] == "a" else cat.catalog_b()
            f = fns[a[1]]
            samples = self._domain_samples(f, 8, a[3])
            r = cat.embed_via(ser.embedding_from_json(a[2]), f, space_function("compactify-identity"),
                              samples, s.DepthBudget())
            if isinstance(r, cat.Mismatch):
                return {"pairing": False, "witness": ser.point_to_json(r.witness)}
            return {"pairing": True, "samples": len(samples), "distinct_outputs": len(r.psi)}
        trace = construct_recheck.build(*a).trace
        if kind == "construct":
            return json.loads(json.dumps(trace, ensure_ascii=False))
        report = self.trace.recheck(json.loads(json.dumps(trace)))
        return {"ok": report.ok, "checked": report.checked, "failures": report.failures}

    def _tagged(self, v):
        cat = self.cat

        def payload(x):
            if x is cat.INFTY:
                return "infty"
            if isinstance(x, cat.Left):
                return {"left": payload(x.payload)}
            if isinstance(x, cat.Right):
                return {"right": payload(x.payload)}
            if isinstance(x, self.s.Point):
                return self.ser.point_to_json(x)
            return list(x)

        return {"space": v.space.value, "payload": payload(v.payload)}

    def _domain_samples(self, f, n, seed):
        """The sample points `catalog check-embed --samples n --seed seed` draws."""
        s, cat = self.s, self.cat
        rng = random.Random(seed)
        dom = cat.domain_of(f)
        out, seen, tries = [], set(), 0
        while len(out) < n and tries < 50 * n:
            tries += 1
            t = tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
            choices = [p for p in (s.FinitePoint(t), s.AugmentedPoint(t), s.PeriodicPoint(t, (1,)))
                       if cat.tag_member(dom, p)]
            if not choices:
                continue
            p = rng.choice(choices)
            key = (type(p).__name__, t, getattr(p, "period", None))
            if key not in seen:
                seen.add(key)
                out.append(p)
        return out
