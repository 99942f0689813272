"""Traced stand-in for `python -m seqstar.cli ARGS...`.

Times the import of seqstar.cli and the call of its main, and wraps the
library functions the command line calls so that main's own time (argument
parsing, JSON in and out) can be told apart from the computation.  Prints
the command line's output unchanged and one extra last line on stderr:
`bench-cli-timing {json}` with times in seconds.
"""
import time

first = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spec  # noqa: E402
import tracer as tr  # noqa: E402

COMPUTE = {
    "seqstar.metric": ["distance"],
    "seqstar.sequences": ["meet"],
    "seqstar.topology": ["basic_member", "cover_decide", "uncovered_descent"],
    "seqstar.embeddings": ["validate", "extend", "preimage_cone"],
    "seqstar.trace": ["recheck"],
    "seqstar.catalog": ["catalog_a", "catalog_b", "evaluate", "embed_via", "descriptor_to_json"],
}


def main() -> int:
    bench_ready = time.perf_counter()
    import seqstar.cli as cli
    imported = time.perf_counter()

    tracer = tr.Tracer()
    for modname, funcs in COMPUTE.items():
        mod = sys.modules[modname]
        for f in funcs:
            tracer.replace(getattr(mod, f), tracer.span(f, getattr(mod, f)))
    con = sys.modules["seqstar.constructions"]
    for f in spec.CONSTRUCT_FUNCTIONS:
        tracer.replace(getattr(con, f), tracer.span(f, getattr(con, f)))
    me = sys.modules["seqstar.embeddings"].MeetEmbedding
    me.compose = tracer.span("compose", me.compose)

    out = io.StringIO()
    stdout, sys.stdout = sys.stdout, out
    t0 = time.perf_counter()
    try:
        code = tracer.span("main", cli.main)(sys.argv[1:])
    finally:
        t1 = time.perf_counter()
        sys.stdout = stdout
    sys.stdout.write(out.getvalue())
    sys.stdout.flush()
    dur, _ = tracer.durations()
    main_id = tracer.names.index("main")
    compute = sum(d for i, d in enumerate(dur)
                  if tracer.parent[i] >= 0 and tracer.name[tracer.parent[i]] == main_id)
    timing = {"bench_s": bench_ready - first, "import_s": imported - bench_ready,
              "main_s": t1 - t0, "compute_s": compute, "done": time.perf_counter() - first}
    print("bench-cli-timing " + json.dumps(timing), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
