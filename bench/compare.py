"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/run.py compare --base PARENT.json... --head CHANGE.json...

Each file is a record written by `run.py --out`, or a trajectory file
holding such records under "runs".  Runs are paired in the order given, so
give parent and change runs of the same seeds in the same order.  Per
workload and metric it prints each side's median and quartiles and a
verdict:

  improved    the change wins at least nine tenths of the pairs (ties count
              for neither side) and the medians differ by more than the
              parent's interquartile range, or every change run beats every
              parent run;
  unresolved  the parent's own interquartile range is wider than the
              metric's bound, and not every change run is worse;
  worse       the change's median is worse than the parent's by more than
              the bound (for a metric without a bound: it loses as
              "improved" wins);
  unchanged   otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict

import spec


def _series(paths: list[str]) -> dict:
    """(workload, metric) -> values in file order, with ops_failed_ratio."""
    out = defaultdict(list)
    for rec in records(paths):
        for name, m in rec["metrics"].items():
            out[(rec["workload"], name)].append(m["value"])
        if not rec["trace"]:
            out[(rec["workload"], "ops_failed_ratio")].append(rec["failed"] / max(rec["attempted"], 1))
    return out


def records(paths: list[str]) -> list[dict]:
    out = []
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        out.extend(doc["runs"] if "runs" in doc else [doc])
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], better: str, bound: float | None) -> str:
    sign = 1 if better == "higher" else -1
    b, h = [sign * x for x in base], [sign * x for x in head]  # larger is better
    pairs = list(zip(b, h))
    q1, mb, q3 = quartiles(b)
    gain, iqr = statistics.median(h) - mb, q3 - q1
    if min(h) > max(b) or (sum(y > x for x, y in pairs) >= 0.9 * len(pairs) and gain > iqr):
        return "improved"
    all_worse = max(h) < min(b)
    if bound is None:
        pairs_worse = sum(y < x for x, y in pairs) >= 0.9 * len(pairs) and -gain > iqr
        return "worse" if all_worse or pairs_worse else "unchanged"
    limit = bound * abs(mb)
    if iqr > limit and not all_worse:
        return "unresolved"
    return "worse" if -gain > limit else "unchanged"


def trajectory(paths: list[str]) -> dict:
    """One commit's point of the bench trajectory: the machine, the run
    length and seeds, the median and quartiles of every metric, and the
    records themselves."""
    runs = records(paths)
    summary: dict = defaultdict(dict)
    for (workload, name), xs in sorted(_series(paths).items()):
        q1, median, q3 = quartiles(xs)
        summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "runs": len(xs)}
    machine = dict(runs[0]["machine"])
    return {"commit": machine.pop("commit"), "machine": machine, "seconds": runs[0]["seconds"],
            "seeds": sorted({r["seed"] for r in runs}), "summary": summary, "runs": runs}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="run.py compare", description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, head = _series(args.base), _series(args.head)
    bounds = {name: bound for name, (_, _, bound) in spec.END_TO_END.items()}
    units = {name: (unit, better) for name, (unit, better, _) in spec.END_TO_END.items()}
    units.update(spec.PER_LAYER, ops_failed_ratio=("ratio", "lower"))
    print(f"{'workload':18s} {'metric':44s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}  verdict")
    for key in sorted(set(base) & set(head)):
        workload, name = key
        unit, better = units[name]
        b, h = base[key], head[key]
        bq, hq = quartiles(b), quartiles(h)
        v = verdict(b, h, better, bounds.get(name))
        print(f"{workload:18s} {name:44s} {bq[1]:12.5g} [{bq[0]:.4g}, {bq[2]:.4g}]"
              f" {hq[1]:12.5g} [{hq[0]:.4g}, {hq[2]:.4g}]  {v} ({unit}, {better} is better)")
    return 0
