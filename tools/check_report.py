#!/usr/bin/env python3
"""Validates a cbmpirun Perfetto trace (--trace-out) in CI; run reports are
checked by `cbmpi-analyze` against src/obs/analysis/report_schema.cpp.

  * the document is a Chrome/Perfetto trace: {"traceEvents": [...]}
  * every event has ph in {X, i, M, s, f}, ts >= 0 and (for X) dur >= 0
  * X timestamps are monotone in file order per (pid, tid) track
  * duration events nest properly on every rank track (pid < 1000):
    a span that begins inside an open span must end within it
  * flow events ('s' -> 'f') pair up by id: every flow finish has a
    matching start and ids are not reused
  * with --same-as, the trace equals another one (a rerun of the same job)
    event for event, legacy instants ('i') included: spans and instants both
    come out of the runtime in canonical order

Usage:
  tools/check_report.py --trace trace.json [--same-as rerun_trace.json]

Exit status is 1 if any problem was found, else 0; each problem is printed as
`file: message`.
"""

import argparse
import json
import sys

CHANNEL_PID_BASE = 1000

problems = []


def problem(path, message):
    problems.append(f"{path}: {message}")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        problem(path, f"cannot parse: {exc}")
        return None


def check_trace(path):
    doc = load(path)
    if doc is None:
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        problem(path, "missing traceEvents array")
        return

    last_ts = {}      # (pid, tid) -> last ts seen, file order
    open_spans = {}   # (pid, tid) -> stack of (ts, ts + dur, name)
    flow_starts = set()
    flow_finishes = set()
    saw_duration = False
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "s", "f"):
            problem(path, f"event {i}: unexpected ph {ph!r}")
            continue
        if ph == "M":
            continue
        ts = ev.get("ts", -1)
        if not isinstance(ts, (int, float)) or ts < 0:
            problem(path, f"event {i}: ts = {ts!r} is not >= 0")
            continue
        if ph in ("s", "f"):
            fid = ev.get("id")
            if fid is None:
                problem(path, f"event {i}: flow event without an id")
                continue
            if ph == "s":
                if fid in flow_starts:
                    problem(path, f"event {i}: flow id {fid!r} started twice")
                flow_starts.add(fid)
            else:
                if ev.get("bp") != "e":
                    problem(path, f"event {i}: flow finish without bp='e' "
                                  f"(must bind to the enclosing slice)")
                if fid in flow_finishes:
                    problem(path, f"event {i}: flow id {fid!r} finished twice")
                flow_finishes.add(fid)
            continue
        if ph != "X":
            continue  # instants sit on their own; only ts >= 0 is claimed
        track = (ev.get("pid", 0), ev.get("tid", 0))
        if ts < last_ts.get(track, 0):
            problem(path, f"event {i}: ts {ts} goes backwards on track {track}")
        last_ts[track] = ts
        saw_duration = True
        dur = ev.get("dur", -1)
        if not isinstance(dur, (int, float)) or dur < 0:
            problem(path, f"event {i}: dur = {dur!r} is not >= 0")
            continue
        if ev.get("pid", 0) >= CHANNEL_PID_BASE:
            continue  # channel tracks interleave transfers; no nesting claim
        # ts and dur are formatted with ~10 significant digits, so two spans
        # sharing a boundary can disagree in the last digit.
        eps = 1e-6 * max(ts + dur, 1.0)
        stack = open_spans.setdefault(track, [])
        while stack and stack[-1][1] <= ts + eps:
            stack.pop()
        if stack and stack[-1][1] < ts + dur - eps:
            problem(path, f"event {i} ({ev.get('name')!r}): [{ts}, {ts + dur}] "
                          f"overlaps open span {stack[-1][2]!r} "
                          f"[{stack[-1][0]}, {stack[-1][1]}] on track {track}")
        stack.append((ts, ts + dur, ev.get("name")))
    if not saw_duration:
        problem(path, "no duration ('X') events found")
    unmatched = flow_finishes - flow_starts
    if unmatched:
        problem(path, f"{len(unmatched)} flow finishes with no matching "
                      f"start (e.g. id {sorted(unmatched)[0]!r})")
    dangling = flow_starts - flow_finishes
    if dangling:
        problem(path, f"{len(dangling)} flow starts never finished "
                      f"(e.g. id {sorted(dangling)[0]!r})")


def check_same(path, other):
    docs = [load(p) for p in (path, other)]
    if None in docs:
        return
    a, b = (doc.get("traceEvents", []) for doc in docs)
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            problem(path, f"event {i} differs from {other}: {x!r} vs {y!r}")
            return
    if len(a) != len(b):
        problem(path, f"{len(a)} events, {other} has {len(b)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", required=True,
                        help="Perfetto trace JSON to validate")
    parser.add_argument("--same-as", metavar="TRACE",
                        help="rerun of the same job whose events must "
                             "equal the trace's")
    args = parser.parse_args()
    check_trace(args.trace)
    if args.same_as:
        check_same(args.trace, args.same_as)
    for p in problems:
        print(p)
    if not problems:
        print(f"ok: {args.trace}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
