"""The seqstar benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py compare --base A.json... --head B.json...
    python3 bench/run.py trajectory RECORD.json... > bench/trajectory/COMMIT.json

Run from the repository root; the library is imported from ./src.  One
caller waits for each reply (a closed loop, one op at a time, no threads).

--trace 0 prints the end-to-end metrics: set-up time in fresh interpreters,
then ops for S seconds of summed op time, each answer checked against a
reference that does not use the code under test.  --trace 1 runs a fixed,
seed-determined block of ops twice, untraced and traced, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; --out also writes the full
record (machine, commit, seed, samples, failures).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402

SETUP_PROBES = 7
MODULES = {"library": "library", "cli-calls": "cli_calls"}


def _module(workload: str):
    return __import__(MODULES[workload])


def _workload(workload: str, child=None):
    mod = _module(workload)
    return mod.Workload(ROOT, child) if workload == "cli-calls" else mod.Workload()


def percentile(xs: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(xs)
    k = max(0, min(len(xs) - 1, -(-len(xs) * pct // 100) - 1))
    return xs[int(k)]


# --- set-up ---------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """In a fresh interpreter: import the layers the workload uses and make
    one warm-up call of each op kind.  Inputs are drawn before the clock
    starts."""
    warm = _module(workload).warmup_ops(seed)
    t0 = time.perf_counter()
    if workload == "cli-calls":
        from seqstar import cli

        last = ""
        for _, kind, _, (argv, _) in warm:
            out, stdin = io.StringIO(), sys.stdin
            sys.stdin = io.StringIO(last)
            try:
                with contextlib.redirect_stdout(out):
                    cli.main(argv)
            finally:
                sys.stdin = stdin
            last = out.getvalue()
    else:
        wl = _workload(workload)
        for _, kind, _, args in warm:
            wl.call(kind, wl.prepare(kind, args))
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
                              "--workload", workload, "--seed", str(seed)],
                             cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# --- ops --------------------------------------------------------------------


class Tally:
    """Answers checked, failures listed with op kind and seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failures: list[dict] = []

    def check(self, wl, index, kind, label, args, got, error=None):
        self.attempted += 1
        if error is None:
            try:
                error = wl.check(kind, args, got)
            except Exception as e:  # noqa: BLE001 -- an answer of the wrong shape fails its op
                error = f"unreadable answer {got!r}: {type(e).__name__}: {e}"
        if error is not None:
            self.failures.append({"op": index, "kind": kind, "label": label, "seed": self.seed,
                                  "error": error})


def run_op(wl, kind, obj, call=None):
    """(answer, exception message) of one call; an unexpected exception is
    an answer that failed."""
    try:
        return (call or wl.call)(kind, obj), None
    except Exception as e:  # noqa: BLE001 -- a raising op is a failed op, not a crashed run
        return None, f"{type(e).__name__}: {e}"


def warm_up(wl, workload, seed, tally):
    """One call of each op kind before any timing, so that lazy caches are
    filled; the command-line workload has nothing to warm in this process."""
    if workload == "cli-calls":
        return
    for index, kind, label, args in _module(workload).warmup_ops(seed):
        got, err = run_op(wl, kind, wl.prepare(kind, args))
        tally.check(wl, f"warm-up {index}", kind, label, args, got, err)


def timed(workload: str, seed: int, seconds: float) -> dict:
    wl = _workload(workload)
    tally = Tally(seed)
    warm_up(wl, workload, seed, tally)
    lat: list[float] = []
    rss_children = []
    busy = 0.0
    clock = time.perf_counter
    for index, kind, label, args in _module(workload).ops(seed):
        obj = wl.prepare(kind, args)
        t0 = clock()
        got, err = run_op(wl, kind, obj)
        dt = clock() - t0
        tally.check(wl, index, kind, label, args, got, err)
        lat.append(dt)
        busy += dt
        if workload == "cli-calls" and got is not None:
            rss_children.append(got[3])
        if busy >= seconds:
            break
    if workload == "cli-calls":
        rss_kb = statistics.median(rss_children)  # each call's own process
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"tally": tally, "latencies": lat, "busy_s": busy, "peak_rss_mb": rss_kb / 1024}


# --- traced run -------------------------------------------------------------


def traced(workload: str, seed: int) -> dict:
    import tracer as tr

    mod = _module(workload)
    block = []
    for op in mod.ops(seed):
        if len(block) == mod.TRACE_OPS:
            break
        block.append(op)
    tally = Tally(seed)

    plain = _workload(workload)
    warm_up(plain, workload, seed, tally)
    extras = {"table_entries": 0, "recheck_by_kind": {}, "cli": {}}
    untraced_s = 0.0
    for index, kind, label, args in block:
        obj = plain.prepare(kind, args)
        t0 = time.perf_counter()
        got, err = run_op(plain, kind, obj)
        untraced_s += time.perf_counter() - t0
        tally.check(plain, index, kind, label, args, got, err)
        if workload == "library" and kind in mod.CONSTRUCT_KINDS and got is not None:
            extras["table_entries"] += len(got[0]["table"])
            _recheck_single_certificates(plain.construct.trace.recheck, got[0], extras["recheck_by_kind"])

    # Inputs are built before the tracer is installed and answers are checked
    # after the metrics are taken, so that only the ops' own calls are counted.
    # The command line is traced inside its child processes only.
    if workload == "cli-calls":
        wl = _workload(workload, [sys.executable, os.path.join(HERE, "cli_child.py")])
    else:
        wl = plain
    objs = [wl.prepare(kind, args) for _, kind, _, args in block]
    tracer = tr.Tracer()
    if workload != "cli-calls":
        tracer.install()
    if workload == "library":
        wl.construct.dumps = tracer.span("serialize.dumps", json.dumps)
        wl.construct.loads = tracer.span("serialize.loads", json.loads)
    answers = []
    traced_s = 0.0
    for (index, kind, _, _), obj in zip(block, objs):
        t0 = time.perf_counter()
        answers.append(run_op(wl, kind, obj, lambda k, o: tracer.run_op(index, wl.call, k, o)))
        traced_s += time.perf_counter() - t0
    extras["trace_overhead"] = traced_s / untraced_s if untraced_s else 0.0
    for got, _ in answers:
        if workload == "cli-calls" and got is not None:
            _cli_timing(got, extras["cli"])
    op_meta = {index: (kind, label) for index, kind, label, _ in block}
    metrics = tr.layer_metrics(tracer, op_meta, extras)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tracer.write(os.path.join(ROOT, ".bench_out", f"spans-{workload}.bin"))
    for (index, kind, label, args), (got, err) in zip(block, answers):
        tally.check(wl, index, kind, label, args, got, err)
    return {"tally": tally, "metrics": metrics,
            "spans": len(tracer.start), "untraced_s": untraced_s, "traced_s": traced_s}


def _recheck_single_certificates(recheck, trace: dict, out: dict) -> None:
    """Time recheck on one-certificate traces cut from a full trace and its
    stages."""
    head = {k: v for k, v in trace.items() if k not in ("certificates", "stages")}
    for cert in trace["certificates"]:
        single = dict(head, certificates=[cert])
        t0 = time.perf_counter()
        recheck(single)
        out.setdefault(cert["kind"], []).append(time.perf_counter() - t0)
    for stage in trace.get("stages", []):
        _recheck_single_certificates(recheck, stage, out)


def _cli_timing(got, out: dict) -> None:
    _, _, err, _, wall = got
    lines = [ln for ln in err.splitlines() if ln.startswith("bench-cli-timing ")]
    if not lines:
        return
    t = json.loads(lines[-1].split(" ", 1)[1])
    for key, value in (("interpreter_ms", wall - t["done"]), ("import_ms", t["import_s"]),
                       ("main.self_ms", t["main_s"] - t["compute_s"]), ("compute_ms", t["compute_s"])):
        out.setdefault(key, []).append(value)


# --- reporting --------------------------------------------------------------


def machine() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, Tally]:
    setups = measure_setup(workload, seed)
    r = timed(workload, seed, seconds)
    lat, tally = r["latencies"], r["tally"]
    pct = spec.WORKLOADS[workload]["tail_pct"]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(lat) / r["busy_s"],
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": percentile(lat, pct) * 1e3,
        "peak_rss_mb": r["peak_rss_mb"],
    }
    detail = {"samples": len(lat), "setup_samples": setups, "tail_pct": pct, "busy_s": r["busy_s"]}
    if workload == "cli-calls":
        defect = _module(workload).defect_probe(_workload(workload))
        print(f"ROADMAP defect 3 (embed extend on a table deeper than 16): "
              f"{'still shows: ' + defect if defect else 'no longer shows'}", file=sys.stderr)
        detail["defect_3"] = defect
    return values, detail, tally


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    if argv[:1] == ["trajectory"]:
        import compare

        json.dump(compare.trajectory(argv[1:]), sys.stdout, indent=1)
        print()
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record to this JSON file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "seqstar", "__init__.py")):
        print(f"no seqstar sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    if args.trace:
        r = traced(args.workload, args.seed)
        tally = r["tally"]
        metrics = {name: {"value": r["metrics"][name], "unit": unit}
                   for name, (unit, _) in spec.PER_LAYER.items()}
        detail = {"spans": r["spans"], "untraced_s": r["untraced_s"], "traced_s": r["traced_s"]}
    else:
        values, detail, tally = end_to_end(args.workload, args.seed, args.seconds)
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _, _) in spec.END_TO_END.items()}
    return report(args, tally, metrics, detail)


def report(args, tally, metrics, detail) -> int:
    for f in tally.failures:
        print(f"failed op {f['op']} kind={f['kind']} label={f['label']} seed={f['seed']}: "
              f"{f['error']}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} attempted={tally.attempted} "
          f"failed={len(tally.failures)} ops_failed_ratio={len(tally.failures) / max(tally.attempted, 1):.4g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, machine=machine(), detail=detail, failures=tally.failures)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
