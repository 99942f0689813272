"""Command-line front end: JSON in, JSON out, reproducible traces.

Exit codes: 0 success, 1 stdout closed by its reader, 2 parse error,
3 domain error, 4 budget error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import (catalog as cat, embeddings as emb, metric, registry, sequences as seq,
               serialize as ser, topology as top, trace)

EXIT_PIPE, EXIT_PARSE, EXIT_DOMAIN, EXIT_BUDGET = 1, 2, 3, 4
MAX_RANGE_NODES = 1024  # the most nodes a --depth/--branch table range may hold


def _emit(doc: dict) -> int:
    print(json.dumps(doc, ensure_ascii=False, sort_keys=True))
    return 0


# --- subcommand handlers --------------------------------------------------


def _cmd_dist(args) -> int:
    a = ser.point_from_json(ser.json_arg(args.a, "--a"))
    b = ser.point_from_json(ser.json_arg(args.b, "--b"))
    return _emit({"exact": str(metric.distance(a, b).value)})


def _cmd_meet(args) -> int:
    s = ser.seq_arg(args.s, "--s")
    t = ser.seq_arg(args.t, "--t")
    return _emit({"meet": list(seq.meet(s, t))})


def _cmd_eps(args) -> int:
    t = ser.seq_arg(args.t, "--t")
    return _emit({"eps": str(metric.weight_schedule()(t))})


def _cmd_member(args) -> int:
    B = ser.basic_from_json(ser.json_arg(args.set, "--set"))
    p = ser.point_from_json(ser.json_arg(args.point, "--point"))
    return _emit({"member": top.basic_member(B, p)})


def _parse_family(text: str):
    obj = ser.json_arg(text, "--family")
    if not isinstance(obj, list):
        raise ser.ParseError("--family must be a JSON list of basic sets")
    return [ser.basic_from_json(x) for x in obj]


def _cmd_cover_check(args) -> int:
    family = _parse_family(args.family)
    r = top.cover_decide(family)
    if isinstance(r, top.Counterexample):
        return _emit({"covers": False, "counterexample": ser.point_to_json(r.point)})
    return _emit({"covers": True})


def _cmd_descent(args) -> int:
    family = _parse_family(args.family)
    try:
        p = top.uncovered_descent(family)
    except ValueError as e:
        raise seq.DomainMismatch(str(e)) from e
    return _emit({"point": ser.point_to_json(p)})


def _table_range(args) -> tuple[int, int]:
    """--depth and --branch, once their range is known to hold at most
    MAX_RANGE_NODES nodes; counted level by level, stopping past the limit."""
    nodes, level = 0, 1
    for _ in range(args.depth + 1):
        nodes, level = nodes + level, level * args.branch
        if nodes > MAX_RANGE_NODES:
            raise ser.ParseError(f"--depth {args.depth} --branch {args.branch} spans more "
                                 f"than {MAX_RANGE_NODES} nodes")
    return args.depth, args.branch


def _cmd_embed(args) -> int:
    pi = ser.embedding_from_json(ser.json_arg(args.pi, "--pi"))
    if args.action == "eval":
        t = ser.seq_arg(args.t, "--t")
        return _emit({"image": list(pi.apply(t))})
    if args.action == "extend":
        p = ser.point_from_json(ser.json_arg(args.point, "--point"))
        return _emit({"point": ser.point_to_json(emb.extend(pi, p))})
    depth, branch = _table_range(args)
    if args.action == "check":
        try:
            v = emb.validate(pi.apply, depth, branch)
        except emb.InvalidEmbedding as e:  # apply checks validate's conditions in its order
            v = e.violation
        if isinstance(v, emb.Valid):
            return _emit({"valid": True})
        return _emit({"valid": False,
                      "violation": {"t": list(v.t), "i": v.i, "j": v.j}})
    if args.action == "compose":
        pi2 = ser.embedding_from_json(ser.json_arg(args.pi2, "--pi2"))
        composed = pi.compose(pi2)
        table = {t: composed.apply(t) for t in seq.nodes_in_range(depth, branch)}
        return _emit({"table": ser.table_to_json(table)})
    t = ser.seq_arg(args.t, "--t")
    r = emb.preimage_cone(pi, t, depth, branch)
    if isinstance(r, emb.Empty):
        return _emit({"empty": True, "range_limited": r.range_limited})
    return _emit({"cone": list(r.t)})


def _tagged_to_json(v: cat.TaggedValue) -> dict:
    def payload(x):
        if x is cat.INFTY:
            return "infty"
        if isinstance(x, cat.Left):
            return {"left": payload(x.payload)}
        if isinstance(x, cat.Right):
            return {"right": payload(x.payload)}
        if isinstance(x, seq.Point):
            return ser.point_to_json(x)
        if isinstance(x, tuple):
            return list(x)
        raise ser.ParseError(f"unserializable payload {x!r}")

    return {"space": v.space.value, "payload": payload(v.payload)}


def _candidates(t: seq.Seq) -> tuple[seq.Point, ...]:
    return seq.FinitePoint(t), seq.AugmentedPoint(t), seq.PeriodicPoint(t, (1,))


def _domain_samples(f: cat.CatalogFunction, n: int, seed: int) -> list[seq.Point]:
    """Up to n distinct domain points, drawn up to 50·n times from the
    candidates at nodes of length and entries below 4.  Drawing stops once
    every candidate the domain admits has been drawn: no later draw could
    add one."""
    rng = random.Random(seed)
    dom = cat.domain_of(f)
    # The domain admits a point by its kind alone: the same kinds at each
    # node a draw can give.
    admitted = len(seq.nodes_in_range(3, 4)) * sum(cat.tag_member(dom, p) for p in _candidates(()))
    out: list[seq.Point] = []
    seen: set = set()
    tries = 0
    while len(out) < min(n, admitted) and tries < 50 * n:
        tries += 1
        t = tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
        choices = [p for p in _candidates(t) if cat.tag_member(dom, p)]
        if not choices:
            continue
        p = rng.choice(choices)
        key = (type(p).__name__, t, getattr(p, "period", None))
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def _cmd_catalog(args) -> int:
    fns = cat.catalog_a() if args.set == "a" else cat.catalog_b()
    if args.action == "list":
        return _emit({"count": len(fns),
                      "functions": [cat.descriptor_to_json(f) for f in fns]})
    if not 0 <= args.fn < len(fns):
        raise ser.ParseError(f"--fn must be in [0, {len(fns)})")
    f = fns[args.fn]
    if args.action == "eval":
        p = ser.point_from_json(ser.json_arg(args.point, "--point"))
        return _emit({"value": _tagged_to_json(cat.evaluate(f, p))})
    pi = ser.embedding_from_json(ser.json_arg(args.pi, "--pi"))
    phi = registry.space_function("compactify-identity")
    samples = _domain_samples(f, args.samples, args.seed)
    r = cat.embed_via(pi, f, phi, samples)
    if isinstance(r, cat.Mismatch):
        return _emit({"pairing": False, "witness": ser.point_to_json(r.witness)})
    return _emit({"pairing": True, "samples": len(samples),
                  "distinct_outputs": len(r.psi)})


def _cmd_construct(args) -> int:
    op = next((op for op in registry.OPS.values() if op.cli == args.op), None)
    reads = (("--trace",) if op is None
             else (f"--{op.oracle[0]}", *op.flags, "--depth", "--branch", "--steps"))
    unread = [flag for flag in args.given if flag not in reads]
    if unread:
        raise ser.ParseError(f"construct {args.op} reads only {', '.join(reads)}, not {unread[0]}")
    if op is None:  # recheck
        text = args.trace
        if text == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError:
                pass  # treat the argument as inline JSON
        report = trace.recheck(ser.json_arg(text, "trace"))
        return _emit({"ok": report.ok, "checked": report.checked,
                      "failures": report.failures})
    depth, branch = _table_range(args)
    flag, lookup = op.oracle
    pe = op.run(lookup(getattr(args, flag)), args, depth, branch,
                seq.DepthBudget(steps=args.steps))
    return _emit(pe.trace)


# --- argument parsing -----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a ParseError, so they exit 2 with a JSON error."""

    def error(self, message: str):
        raise ser.ParseError(message)


class _Noted(argparse.Action):
    """Stores a flag's value and adds the flag to args.given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*namespace.given, self.option_strings[0])


def _positive(text: str) -> int:
    if not (text.strip().isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _range_flags(p: argparse.ArgumentParser, depth: int, branch: int) -> None:
    p.add_argument("--depth", type=_positive, default=depth, help="table depth")
    p.add_argument("--branch", type=_positive, default=branch, help="table branching")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="seqstar",
                 description="Exact tools for the compactified "
                             "sequence space and its embedding calculus")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("dist", help="ultrametric distance between two points")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(run=_cmd_dist)

    p = sub.add_parser("meet", help="longest common prefix of two nodes")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.set_defaults(run=_cmd_meet)

    p = sub.add_parser("eps", help="radius 2^-weight(t) at a node")
    p.add_argument("--t", required=True)
    p.set_defaults(run=_cmd_eps)

    p = sub.add_parser("member", help="membership of a point in a basic set")
    p.add_argument("--set", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(run=_cmd_member)

    p = sub.add_parser("cover-check", help="decide whether basic sets cover the space")
    p.add_argument("--family", required=True)
    p.set_defaults(run=_cmd_cover_check)

    p = sub.add_parser("descent", help="walk to an uncovered point of a non-cover")
    p.add_argument("--family", required=True)
    p.set_defaults(run=_cmd_descent)

    p = sub.add_parser("embed", help="embedding calculus")
    p.add_argument("action", choices=["check", "eval", "extend", "compose", "preimage"])
    p.add_argument("--pi", required=True)
    p.add_argument("--pi2", help="second embedding (compose)")
    p.add_argument("--t", help="node (eval, preimage)")
    p.add_argument("--point", help="point (extend)")
    _range_flags(p, 3, 3)
    p.set_defaults(run=_cmd_embed)

    p = sub.add_parser("catalog", help="the 24/27-element function catalogs")
    p.add_argument("action", choices=["list", "eval", "check-embed"])
    p.add_argument("--set", choices=["a", "b"], default="a")
    p.add_argument("--fn", type=int, default=0)
    p.add_argument("--point", help="point (eval)")
    p.add_argument("--pi", help="embedding (check-embed)")
    p.add_argument("--samples", type=_positive, default=16)
    p.add_argument("--seed", type=int, default=0, help="sample seed (check-embed)")
    p.set_defaults(run=_cmd_catalog)

    p = sub.add_parser("construct", help="oracle-driven embedding constructions")
    # registry.OPS holds these ops; naming them here keeps the parser from loading it
    p.add_argument("op", choices=[
        "ramsey", "category", "continuity", "shrink", "stabilize", "disjointify", "limit",
        "eps-split", "shrink-or-discrete", "avoid", "finite-avoid", "discrete-refine", "classify",
        "recheck"])
    # Each flag notes itself in args.given, so that each op can refuse the flags it does not read.
    p.register("action", None, _Noted)
    p.add_argument("--set", default="all", help="tree set name (ramsey)")
    p.add_argument("--family", default="all-levels", help="tree family name")
    p.add_argument("--fn", default="const-zero", help="space function name")
    p.add_argument("--root", default="[]")
    p.add_argument("--eps", default="1")
    p.add_argument("--x", default="0")
    p.add_argument("--values", default="0", help="semicolon-separated dyadics")
    p.add_argument("--selector-budget", type=int, default=48)
    p.add_argument("--trace", default="-", help="trace file, inline JSON, or - for stdin")
    _range_flags(p, 2, 3)
    p.add_argument("--steps", type=_positive, default=100_000, help="search step budget")
    p.set_defaults(run=_cmd_construct, given=())

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: send what is left of the output nowhere,
        # so that the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ser.ParseError as e:
        print(json.dumps({"error": {"kind": "parse", "message": str(e)}}), file=sys.stderr)
        return EXIT_PARSE
    except (seq.DomainMismatch, emb.InvalidEmbedding) as e:
        print(json.dumps({"error": {"kind": "domain", "message": str(e)}}), file=sys.stderr)
        return EXIT_DOMAIN
    except seq.BudgetExceeded as e:
        doc = {"error": {"kind": "budget", "message": str(e), "stage": e.stage}}
        print(json.dumps(doc), file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
