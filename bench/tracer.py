"""Spans and counters around seqstar's public functions, for traced runs only.

Installing the tracer replaces each traced function, in every seqstar
module that holds it, by a wrapper that records a span: name, start, end,
parent span and op id.  Spans live in flat arrays in memory and are written
out once, when the run ends.  Functions that are called millions of times
and need only a count (Dyadic construction, MeetEmbedding.apply,
basic_member and the registry oracles) get a counter instead.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

import spec

SPANS = {
    "sequences": ["split_index", "meet", "canonical_index", "nodes_in_range"],
    "metric": ["distance"],
    "topology": ["cover_decide", "covers_cone", "uncovered_descent"],
    "embeddings": ["validate", "meet_preservation_oracle", "amalgamate", "extend", "preimage_cone"],
    "trace": ["recheck"],
    "serialize": ["table_from_json"],
}
ROOT = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_result=None):
        nid = self._id(name)
        names, parents, ops, starts, ends, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.stack)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def top_span(self) -> str | None:
        """Name of the span directly under the current op's root span."""
        return self.names[self.name[self.stack[1]]] if len(self.stack) > 1 else None

    def oracle_counter(self, name: str, fn):
        """Counts calls, also keyed by the top-level span they happen under."""
        counts, tracer = self.counts, self

        def wrapper(*args, **kwargs):
            counts[name] += 1
            counts[(name, tracer.top_span())] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Call fn inside the root span of one op."""
        self.current_op = op_id
        return self.span(ROOT, fn)(*args)

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        import seqstar  # noqa: F401  (loads every module that holds a traced name)
        from seqstar import constructions, embeddings, metric, registry, sequences, topology

        for modname, funcs in SPANS.items():
            mod = sys.modules[f"seqstar.{modname}"]
            for f in funcs:
                on_result = self._bounded if (modname, f) == ("metric", "distance") else None
                self.replace(getattr(mod, f), self.span(f"{modname}.{f}", getattr(mod, f), on_result))
        for f in spec.CONSTRUCT_FUNCTIONS:
            self.replace(getattr(constructions, f), self.span(f"constructions.{f}", getattr(constructions, f)))
        for cls in (sequences.FinitePoint, sequences.AugmentedPoint, sequences.InfinitePoint):
            cls.restrict = self.span("sequences.restrict", cls.__dict__["restrict"])
        self.replace(topology.basic_member, self.counter("topology.basic_member", topology.basic_member))
        reps = topology.representatives
        counts = self.counts

        def representatives(*args, **kwargs):
            for p in reps(*args, **kwargs):
                counts["topology.representatives"] += 1
                yield p

        self.replace(reps, representatives)
        metric.Dyadic.__init__ = self.counter("metric.dyadic.inits", metric.Dyadic.__init__)
        embeddings.MeetEmbedding.apply = self.counter("embeddings.apply", embeddings.MeetEmbedding.apply)
        self._wrap_registry(registry)

    def _bounded(self, result) -> None:
        if type(result).__name__ == "Bounded":
            self.counts["metric.distance.bounded"] += 1

    def replace(self, original, wrapped) -> None:
        """Put wrapped in place of original in every seqstar module."""
        for name, mod in list(sys.modules.items()):
            if name == "seqstar" or name.startswith("seqstar."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _wrap_registry(self, registry) -> None:
        for phi in registry.FUNCTIONS.values():
            for field in ("evaluate", "value_distance", "cone_diameter"):
                if getattr(phi, field) is not None:
                    setattr(phi, field, self.oracle_counter(f"registry.{field}", getattr(phi, field)))
        wrapped = {}  # id -> oracle; holding the oracle keeps its id from being reused

        def wrap_set(oracle):
            if id(oracle) not in wrapped:
                wrapped[id(oracle)] = oracle
                oracle.member = self.oracle_counter("registry.member", oracle.member)
            return oracle

        for oracle in registry.TREE_SETS.values():
            wrap_set(oracle)
        for name, fam in list(registry.TREE_FAMILIES.items()):
            registry.TREE_FAMILIES[name] = (lambda n, _fam=fam: wrap_set(_fam(n)))

    # --- results ------------------------------------------------------------

    def durations(self):
        """Per span: (duration, self time), self time being the duration less
        the part its child spans cover."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def write(self, path: str) -> None:
        """Spans as a header line of JSON followed by the five raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": ["name:i", "parent:i", "op:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


def layer_metrics(tracer: Tracer, op_meta: dict, extras: dict) -> dict:
    """Every per-layer metric of spec.PER_LAYER from one traced block.

    op_meta maps op id -> (kind, label); extras holds what the runner
    measured beside the spans (cli timings, single-certificate rechecks,
    table entries, trace overhead).
    """
    dur, self_t = tracer.durations()
    names = tracer.names
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    by_label: defaultdict = defaultdict(list)
    restrict_in_split = 0
    top_dur: defaultdict = defaultdict(float)
    for i in range(len(dur)):
        name = names[tracer.name[i]]
        calls[name] += 1
        self_s[name] += self_t[i]
        p = tracer.parent[i]
        parent = names[tracer.name[p]] if p >= 0 else None
        if name == "sequences.restrict" and parent == "sequences.split_index":
            restrict_in_split += 1
        if parent == ROOT:
            kind, label = op_meta.get(tracer.op[i], (None, None))
            by_label[(name, kind, label)].append(dur[i])
            top_dur[name.split(".")[0] if name.startswith("constructions.") else name] += dur[i]
    counts = tracer.counts
    out = dict.fromkeys(spec.PER_LAYER, 0.0)
    for name in spec.PER_LAYER:
        base, _, last = name.rpartition(".")
        if last == "calls":
            out[name] = float(calls[base] or counts[base])
        elif last == "self_s":
            out[name] = self_s[base]

    def mean(xs, scale):
        return scale * sum(xs) / len(xs) if xs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out["sequences.restrict_per_split"] = ratio(restrict_in_split, calls["sequences.split_index"])
    for pair in spec.DISTANCE_PAIRS:
        out[f"metric.distance.{pair}.mean_us"] = mean(by_label[("metric.distance", "distance", pair)], 1e6)
    out["metric.distance.bounded_ratio"] = ratio(counts["metric.distance.bounded"], calls["metric.distance"])
    out["metric.dyadic.inits"] = float(counts["metric.dyadic.inits"])
    for d in range(1, 6):
        xs = by_label[("topology.cover_decide", "cover_decide", f"d{d}")] \
            + by_label[("topology.cover_decide", "cover_decide_miss", f"d{d}")]
        out[f"topology.cover_decide.d{d}.mean_ms"] = mean(xs, 1e3)
    out["topology.representatives_per_decide"] = ratio(
        counts["topology.representatives"], calls["topology.cover_decide"] + calls["topology.covers_cone"])
    out["embeddings.oracle_over_validate"] = ratio(
        self_s["embeddings.meet_preservation_oracle"], self_s["embeddings.validate"])
    construct_oracle_calls = sum(v for k, v in counts.items()
                                 if isinstance(k, tuple) and (k[1] or "").startswith("constructions."))
    out["constructions.oracle_calls_per_entry"] = ratio(construct_oracle_calls, extras.get("table_entries", 0))
    for kind, xs in extras.get("recheck_by_kind", {}).items():
        if f"trace.recheck.{kind}.mean_ms" in out:
            out[f"trace.recheck.{kind}.mean_ms"] = mean(xs, 1e3)
    out["trace.recheck_over_construct"] = ratio(top_dur["trace.recheck"], top_dur["constructions"])
    for key in ("serialize.dumps", "serialize.loads"):
        out[f"{key}.self_s"] = self_s[key]
    for key, xs in extras.get("cli", {}).items():
        out[f"cli.{key}"] = statistics.median(xs) * 1e3 if xs else 0.0
    out["bench.trace_overhead"] = extras.get("trace_overhead", 0.0)
    return out
