#!/usr/bin/env python3
"""Perf-regression gate over bench --json artifacts, run by CI.

Compares a freshly produced bench artifact against the committed baseline
(`BENCH_*.json` at the repo root) row by row and fails when any hot-path
metric regressed beyond tolerance:

  * rows are matched on (label, bytes); a baseline row missing from the
    fresh artifact is an error (a silently dropped configuration is how
    regressions hide)
  * latency_us may rise by at most --tol (relative); bandwidth_mbps may
    fall by at most --tol
  * improvements and new rows are reported as info, never failures
  * the two artifacts must come from the same bench (same "bench" field)

The simulator is deterministic in virtual time, so on an unchanged model
fresh == baseline exactly and any delta at all is a model change. The
default tolerance is therefore 0: any worse value fails. A model change
regenerates the baseline and says why; --tol is an explicit opt-in for one
invocation, never a standing allowance.

Usage:
  check_regress.py --fresh fig08.json --baseline BENCH_fig08_pt2pt.json
  check_regress.py --fresh reg.json --baseline BENCH_....json --tol 0.05

Exit status: 0 = within tolerance, 1 = regression/missing rows, 2 = usage.
"""
from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"check_regress: cannot read {path}: {exc}")
    for key in ("bench", "rows"):
        if key not in doc:
            sys.exit(f"check_regress: {path}: not a bench artifact (no '{key}')")
    return doc


def index_rows(doc: dict, path: str) -> dict:
    rows = {}
    for row in doc["rows"]:
        key = (row.get("label"), row.get("bytes"))
        if key in rows:
            sys.exit(f"check_regress: {path}: duplicate row {key}")
        rows[key] = row
    return rows


def rel_delta(fresh: float, base: float) -> float:
    """Relative change, sign-normalized so positive always means 'worse'
    is possible — callers compare against the metric's bad direction."""
    if base == 0.0:
        return 0.0 if fresh == 0.0 else float("inf")
    return (fresh - base) / base


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", required=True, help="artifact from this build")
    ap.add_argument("--baseline", required=True, help="committed BENCH_*.json")
    ap.add_argument("--tol", type=float, default=0.0,
                    help="relative tolerance per metric (default 0: exact)")
    args = ap.parse_args()
    if args.tol < 0.0:
        ap.error("--tol must be >= 0")

    fresh_doc = load(args.fresh)
    base_doc = load(args.baseline)
    if fresh_doc["bench"] != base_doc["bench"]:
        sys.exit(f"check_regress: bench mismatch: fresh is "
                 f"'{fresh_doc['bench']}', baseline is '{base_doc['bench']}'")

    fresh = index_rows(fresh_doc, args.fresh)
    base = index_rows(base_doc, args.baseline)

    # (key, metric, fresh value, base value, relative delta)
    failures = []
    improvements = []
    checked = 0
    for key, base_row in sorted(base.items(), key=lambda kv: str(kv[0])):
        fresh_row = fresh.get(key)
        if fresh_row is None:
            failures.append((key, "row", None, None, None))
            continue
        # higher latency is a regression; higher bandwidth is an improvement
        for metric, worse_if_higher in (("latency_us", True),
                                        ("bandwidth_mbps", False)):
            b = float(base_row.get(metric, 0.0))
            f = float(fresh_row.get(metric, 0.0))
            if b == 0.0 and f == 0.0:
                continue  # metric not produced by this row
            checked += 1
            d = rel_delta(f, b)
            regression = d if worse_if_higher else -d
            if regression > args.tol:
                failures.append((key, metric, f, b, d))
            elif regression < 0.0:
                improvements.append((key, metric, f, b, d))

    name = base_doc["bench"]
    for key, metric, f, b, d in improvements:
        print(f"info: {name} {key[0]}@{key[1]}B {metric}: "
              f"{f:.4g} vs {b:.4g} ({d:+.1%}), improved")
    for key, metric, f, b, d in failures:
        if metric == "row":
            print(f"FAIL: {name} {key[0]}@{key[1]}B: row missing from "
                  f"fresh artifact", file=sys.stderr)
        else:
            print(f"FAIL: {name} {key[0]}@{key[1]}B {metric}: "
                  f"{f:.4g} vs baseline {b:.4g} ({d:+.1%}, tol "
                  f"±{args.tol:.0%})", file=sys.stderr)
    new_rows = len(fresh) - (len(base) - sum(1 for x in failures
                                             if x[1] == "row"))
    print(f"check_regress: {name}: {checked} metrics checked over "
          f"{len(base)} baseline rows ({new_rows} new in fresh), "
          f"{len(improvements)} improved, {len(failures)} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
