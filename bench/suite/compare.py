#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 bench/suite/compare.py PARENT... --vs CHANGE...

PARENT and CHANGE are each directories of, or lists of, JSON files that
`run.py --json-out` wrote. Runs on each side are paired in seed order, so
run both sides over the same seeds, alternating which side goes first.

For every workload and metric it prints each side's median and quartiles,
the share of pairs the change won (ties count for neither side) and a
verdict:

  same        the change's median is within the bound of the parent's
  improved    the change won at least 90 % of the pairs and the medians
              differ by more than the parent's interquartile range
  regressed   the change's median is worse by more than the bound
  unresolved  a side's interquartile range, as a share of its median, is
              wider than the bound, and neither side beat the other on
              every run
  DIFFERS     a modelled or correctness metric, which must match exactly,
              differs in some pair

Bounds are the end-to-end bounds in BENCHMARK.json; the modelled and
correctness metrics run.py adds have bound 0 and must match bit for bit.
Per-layer metrics (traced runs) have no bound and get no verdict. Exits 1
when any verdict is regressed or DIFFERS.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the metric tables live in run.py)

WIN_SHARE = 0.9


def load(paths):
    """{(workload, trace): [result, ...]} in seed order."""
    files = []
    for path in map(Path, paths):
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups = {}
    for f in files:
        for result in json.loads(f.read_text()):
            groups.setdefault((result["workload"], result["trace"]), []).append(result)
    for results in groups.values():
        results.sort(key=lambda r: r["seed"])
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """Classifies paired runs `a` (parent) and `b` (change) of one metric."""
    if bound is None:
        return ""
    if bound == 0:
        return "same" if a == b else "DIFFERS"
    sign = 1.0 if better == "lower" else -1.0
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    spread = max((q3a - q1a) / abs(ma) if ma else 0.0,
                 (q3b - q1b) / abs(mb) if mb else 0.0)
    if spread > bound:
        if max(sign * y for y in b) < min(sign * x for x in a):
            return "improved"
        if min(sign * y for y in b) > max(sign * x for x in a):
            return "regressed"
        return "unresolved"
    if ma and sign * (mb - ma) / abs(ma) > bound:
        return "regressed"
    if wins >= WIN_SHARE * len(a) and abs(mb - ma) > q3a - q1a:
        return "improved"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="+", help="result files or directories")
    parser.add_argument("--vs", nargs="+", required=True, dest="change",
                        help="the other side's result files or directories")
    args = parser.parse_args()

    bounds = {m["name"]: (m["better"], m["bound"]) for m in run.SPEC["end_to_end"]}
    bounds |= {name: (better, 0) for name, _, better in run.EXACT}
    better_of = {m["name"]: m["better"] for m in run.SPEC["per_layer"]}
    parent, change = load(args.parent), load(args.change)

    failed = False
    for key in sorted(parent.keys() & change.keys()):
        a_runs, b_runs = parent[key], change[key]
        pairs = min(len(a_runs), len(b_runs))
        a_runs, b_runs = a_runs[:pairs], b_runs[:pairs]
        if [r["seed"] for r in a_runs] != [r["seed"] for r in b_runs]:
            print(f"warning: {key[0]} pairs runs of different seeds", file=sys.stderr)
        print(f"== {key[0]} ({'traced' if key[1] else 'untraced'}, {pairs} pairs)")
        print(f"  {'metric':40s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'won':>5s}  verdict")
        for name in a_runs[0]["metrics"]:
            a = [r["metrics"][name] for r in a_runs]
            b = [r["metrics"][name] for r in b_runs]
            better, bound = bounds.get(name, (better_of.get(name, "lower"), None))
            sign = 1.0 if better == "lower" else -1.0
            won = sum(sign * (y - x) < 0 for x, y in zip(a, b)) / pairs
            v = verdict(a, b, better, bound)
            failed |= v in ("regressed", "DIFFERS")
            q1a, ma, q3a = quartiles(a)
            q1b, mb, q3b = quartiles(b)
            print(f"  {name:40s} {ma:12.6g} [{q1a:9.4g}, {q3a:9.4g}] "
                  f"{mb:12.6g} [{q1b:9.4g}, {q3b:9.4g}] {won:5.0%}  {v}")
        correct = all(r["correct"] for r in a_runs + b_runs)
        print(f"  every run correct: {'yes' if correct else 'NO'}")
        failed |= not correct
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
