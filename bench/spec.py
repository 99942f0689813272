"""What the benchmark measures: workloads, metric names, units and bounds,
and the map from each per-layer metric to the end-to-end metrics it should
move.

BENCHMARK.json at the repository root is generated from this module
(`python3 bench/spec.py > BENCHMARK.json`); the runner reads only this one.
"""

RUN_SECONDS = 55

# Each workload's op stream is a fixed cycle of op kinds, so every run of a
# given length does the same mix of work whatever the seed; the seed only
# draws the inputs inside each kind.  "why" goes to BENCHMARK.json as is: the
# layers covered, the input size, the tail percentile and the reason.
WORKLOADS = {
    "library": {
        "tail_pct": 99.9,
        "why": "every library layer in-process; 274-op cycles: 180 point queries (heads to 40), 20 covers "
               "(depth 1-5), 22 embedding ops (depth-4 tables), 52 constructions rechecked; tail p99.9",
    },
    "cli-calls": {
        "tail_pct": 95,
        "why": "cli and import; an op is one python -m seqstar.cli child, cycling all 16 "
               "subcommands and actions; tail p95; start-up and import dominate each call",
    },
}

# name -> (unit, better, bound).  ops_failed_ratio is printed with these but
# carried in the result line by "attempted" and "failed": it is zero on a
# healthy workload, so a bound relative to it means nothing.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_ops_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

CONSTRUCT_FUNCTIONS = [
    "ramsey_split", "category_refine", "continuity_refine", "diameter_shrink",
    "children_stabilize", "disjointify", "limit_refine", "epsilon_discrete_or_ball",
    "shrink_or_discrete", "point_avoid", "finite_avoid_or_converge", "discrete_refine",
    "classify_baire_function",
]

# Every certificate kind the constructions emit.
CERT_KINDS = [
    "valid_table", "meet_table", "in_set", "diam_lt", "value_dist_lt", "value_dist_le",
    "value_dist_ge", "avoid_value", "avoid_pair", "dist_gt_sum", "cone_value_diam_lt",
]

DISTANCE_PAIRS = [a + b for a in "fap" for b in "fap"] + ["near"]


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "calls" or last in ("inits", "representatives_per_decide"):
        return "count"
    if last == "self_s":
        return "s"
    if last.endswith("_us"):
        return "us"
    if last.endswith("_ms"):
        return "ms"
    return "ratio"


def _per_layer_names() -> list[str]:
    names = [f"sequences.{f}.{m}" for f in ("split_index", "restrict") for m in ("calls", "self_s")]
    names.append("sequences.restrict_per_split")
    names += [f"sequences.{f}.{m}" for f in ("meet", "canonical_index", "nodes_in_range")
              for m in ("calls", "self_s")]
    names += [f"metric.distance.{p}.mean_us" for p in DISTANCE_PAIRS]
    names += ["metric.distance.bounded_ratio", "metric.dyadic.inits"]
    names += [f"topology.cover_decide.d{d}.mean_ms" for d in range(1, 6)]
    names += ["topology.representatives_per_decide", "topology.basic_member.calls",
              "topology.uncovered_descent.self_s"]
    names += ["embeddings.meet_preservation_oracle.calls", "embeddings.meet_preservation_oracle.self_s",
              "embeddings.validate.calls", "embeddings.validate.self_s",
              "embeddings.oracle_over_validate", "embeddings.apply.calls",
              "embeddings.extend.self_s", "embeddings.amalgamate.self_s",
              "embeddings.preimage_cone.self_s"]
    names += [f"constructions.{f}.{m}" for f in CONSTRUCT_FUNCTIONS for m in ("calls", "self_s")]
    names += [f"registry.{o}.calls" for o in ("member", "evaluate", "value_distance", "cone_diameter")]
    names.append("constructions.oracle_calls_per_entry")
    names += [f"trace.recheck.{k}.mean_ms" for k in CERT_KINDS]
    names.append("trace.recheck_over_construct")
    names += [f"serialize.{f}.self_s" for f in ("dumps", "loads", "table_from_json")]
    names += ["cli.interpreter_ms", "cli.import_ms", "cli.main.self_ms", "cli.compute_ms"]
    names.append("bench.trace_overhead")
    return names


PER_LAYER = {name: (_unit(name), "lower") for name in _per_layer_names()}

# Which end-to-end metric a per-layer metric should move, on which workload.
# Keys are prefixes of per-layer metric names.
INTERACTIONS = {
    "sequences.split_index": [("library", "latency_p50_ms"), ("library", "throughput_ops_s")],
    "sequences.restrict": [("library", "latency_p50_ms"), ("library", "throughput_ops_s")],
    "sequences.meet": [("library", "throughput_ops_s")],
    "sequences.canonical_index": [("library", "latency_p50_ms")],
    "sequences.nodes_in_range": [("library", "latency_p50_ms")],
    "metric.": [("library", "latency_p50_ms"), ("library", "throughput_ops_s")],
    "topology.": [("library", "latency_tail_ms"), ("library", "throughput_ops_s")],
    "embeddings.": [("library", "throughput_ops_s"), ("library", "latency_tail_ms")],
    "constructions.": [("library", "throughput_ops_s")],
    "registry.": [("library", "throughput_ops_s")],
    "trace.": [("library", "throughput_ops_s")],
    "serialize.": [("library", "throughput_ops_s")],
    "cli.": [("cli-calls", "latency_p50_ms")] + [(w, "setup_s") for w in WORKLOADS],
    "bench.trace_overhead": [],
}


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(benchmark_json(), indent=2))
