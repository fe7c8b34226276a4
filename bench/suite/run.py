#!/usr/bin/env python3
"""The cbmpi benchmark: builds the driver, runs workloads, prints metrics.

    python3 bench/suite/run.py --workload coll_wide --seed 1 --seconds 20
    python3 bench/suite/run.py --seed=1                 # every workload
    python3 bench/suite/run.py --seed=1 --trace         # per-layer metrics
    python3 bench/suite/run.py --quick --trace 1        # the smoke test

Each workload runs in its own driver process (cbmpi_bench), so peak RSS
belongs to that workload. Every metric is printed by name with its unit;
the last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Without --trace the metrics are the end-to-end wall-clock
ones; with --trace they are the per-layer ones. Every job's output is
checked by the driver, same-seed reruns must reproduce the modelled results
bit for bit, and the exit code is non-zero on any failure.

The driver is built from the library sources two levels up into
.bench_build/suite at the repository root, unless --driver names a binary.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "suite"
DRIVER_TIMEOUT_S = 170

WORKLOADS = ["pt2pt_intra", "coll_wide", "apps_fattree", "observed_schedule"]

# BENCHMARK.json names every gated end-to-end metric (host wall-clock costs,
# each with a regression bound) and every per-layer metric, with units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# End-to-end metrics outside BENCHMARK.json: modelled and correctness numbers
# that must match exactly, so they carry no bound. (name, unit, better)
EXACT = [
    ("failed_frac", "ratio", "lower"),
    ("rerun_mismatch_frac", "ratio", "lower"),
    ("virt_job_us_p50", "us", "lower"),
    ("virt_speedup_vs_default", "x", "higher"),
    ("virt_overhead_vs_native", "ratio", "lower"),
]
E2E = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] + EXACT
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

# Driver span name -> the layer its self time is charged to.
SPAN_LAYER = {
    "bench.job": "bench.driver_self_ms",
    "mpi.run_job": "mpi.self_ms",
    "sched.run": "sched.self_ms",
    "obs.analyze": "obs.analyze_ms",
    "obs.report": "obs.report_ms",
    "obs.perfetto": "obs.perfetto_ms",
}
SELF_TIME_TOLERANCE = 0.05

# The host-speed probe's time on the machine the README numbers come from.
# Every gated host-time metric is scaled by P_REF_MS / probe, with the probe
# timed right before the same job, so a shared machine's drift in speed
# divides out; the metrics read as ms at the reference speed.
P_REF_MS = 6.0


class BenchError(Exception):
    pass


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10)[-1]


def ratio(num, den):
    return num / den if den else 0.0


def build_driver():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "cbmpi_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
            raise BenchError("building the driver failed: " + " ".join(cmd))
    return BUILD / "cbmpi_bench"


def run_driver(driver, workload, args):
    cmd = [str(driver), f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    trace_path = None
    if args.trace:
        trace_path = Path(driver).parent / f"bench_trace_{workload}.json"
        cmd += ["--trace", f"--trace-out={trace_path}"]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: driver timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload}: driver exited {proc.returncode}")
    raw = json.loads(proc.stdout)
    spans = json.loads(trace_path.read_text())["spans"] if trace_path else []
    return raw, spans


def self_times(spans):
    """{timed job: ({layer: self ms}, job wall ms)}. A span's self time is
    its duration minus the part of it that its child spans cover."""
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span["parent"], []).append(i)

    def covered(i):
        begin, end = spans[i]["begin_us"], spans[i]["end_us"]
        total, reach = 0.0, begin
        for c in sorted(children.get(i, []), key=lambda c: spans[c]["begin_us"]):
            lo = max(spans[c]["begin_us"], reach)
            hi = min(spans[c]["end_us"], end)
            if hi > lo:
                total += hi - lo
                reach = hi
        return total

    jobs = {}
    for root in children.get(-1, []):
        if spans[root]["name"] != "bench.job":
            continue
        layers = {}
        stack = [root]
        while stack:
            i = stack.pop()
            span = spans[i]
            name = SPAN_LAYER[span["name"]]
            own = span["end_us"] - span["begin_us"] - covered(i)
            layers[name] = layers.get(name, 0.0) + own / 1000.0
            stack.extend(children.get(i, []))
        wall = (spans[root]["end_us"] - spans[root]["begin_us"]) / 1000.0
        jobs[spans[root]["job"]] = (layers, wall)
    return jobs


def scaled(value, probe_ms):
    return value * P_REF_MS / probe_ms


def e2e_metrics(raw, untraced):
    ref = raw["reference"]
    aware = median(ref["aware_us"])
    wall = [scaled(s["wall_ms"], s["probe_ms"]) for s in untraced]
    return {
        "setup_s": median([scaled(t, p) for t, p in zip(raw["setup_s"],
                                                         raw["setup_probe_ms"])]),
        "job_wall_ms_p50": median(wall),
        "job_wall_ms_p90": p90(wall),
        "job_cpu_ms_p50": median([scaled(s["cpu_ms"], s["probe_ms"]) for s in untraced]),
        "sim_msgs_per_s": ratio(sum(sum(s["ops"]) for s in untraced), sum(wall) / 1000.0),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "failed_frac": ratio(raw["failed"], raw["attempted"]),
        "rerun_mismatch_frac": ratio(ref["rerun_mismatches"], ref["reruns"]),
        "virt_job_us_p50": aware,
        "virt_speedup_vs_default": ratio(median(ref["hostname_us"]), aware),
        "virt_overhead_vs_native": ratio(aware, median(ref["native_us"])) - 1.0,
    }


def layer_metrics(raw, untraced, traced, layer_times):
    def per_job(samples, f):
        return median([f(s) / s["jobs"] for s in samples])

    def blame(samples, category):
        return per_job(samples, lambda s: s["blame"][category])

    def self_ms(layer):
        return median([layers.get(layer, 0.0) for layers, _ in layer_times])

    ops = lambda s: sum(s["ops"])  # noqa: E731
    lookups = lambda s: s["reg_hits"] + s["reg_misses"]  # noqa: E731
    channels = ["shm", "cma", "hca"]
    m = {
        "mpi.run_job_ms_p50": per_job(untraced, lambda s: s["run_job_ms"]),
        "mpi.self_ms": self_ms("mpi.self_ms"),
        "mpi.vol_ctx_switches_per_job": per_job(untraced, lambda s: s["vcsw"]),
        "mpi.invol_ctx_switches_per_job": per_job(untraced, lambda s: s["ivcsw"]),
        "mpi.cpu_per_wall": median([ratio(s["run_job_cpu_ms"], s["run_job_ms"])
                                    for s in untraced]),
        "mpi.ranks_per_job": per_job(untraced, lambda s: s["ranks"]),
        "mpi.host_us_per_msg": median([ratio(1000.0 * s["run_job_ms"], ops(s))
                                       for s in untraced]),
        "mpi.late_sender_us": per_job(traced, lambda s: s["late_sender_us"]),
        "mpi.idle_blame_us": blame(traced, "idle"),
        "fabric.eager_sends": per_job(traced, lambda s: s["eager_sends"]),
        "fabric.rndv_sends": per_job(traced, lambda s: s["rndv_sends"]),
        # Computed, not measured: payload bytes over run_job wall.
        "fabric.copy_gbps": median([ratio(sum(s["bytes"]), s["run_job_ms"] * 1e6)
                                    for s in untraced]),
        "fabric.eager_blame_us": blame(traced, "eager"),
        "fabric.rndv_blame_us": blame(traced, "rndv"),
        "fabric.reg_cache.hits": per_job(untraced, lambda s: s["reg_hits"]),
        "fabric.reg_cache.misses": per_job(untraced, lambda s: s["reg_misses"]),
        "fabric.reg_cache.evictions": per_job(untraced, lambda s: s["reg_evictions"]),
        "fabric.reg_cache.hit_ratio": median([ratio(s["reg_hits"], lookups(s))
                                              for s in untraced]),
        "fabric.reg_cache.peak_pinned_mb": median([s["reg_peak_pinned"] / 2**20
                                                   for s in untraced]),
        "fabric.reg_cache.registration_blame_us": blame(traced, "registration"),
        "net.transfers": per_job(untraced, lambda s: s["net_transfers"]),
        "net.congested_transfers": per_job(untraced, lambda s: s["net_congested"]),
        "net.congested_ratio": median([ratio(s["net_congested"], s["net_transfers"])
                                       for s in untraced]),
        "net.max_slowdown": median([s["net_max_factor"] for s in untraced]),
        "net.peak_link_util": median([s["net_peak_util"] for s in untraced]),
        "net.contention_blame_us": blame(traced, "contention"),
        "coll.calls_per_job": per_job(untraced, lambda s: s["coll_calls"]),
        "coll.imbalance_us": per_job(traced, lambda s: s["coll_imbalance_us"]),
        "sched.run_ms": median([s["sched_run_ms"] for s in untraced]),
        "sched.self_ms": self_ms("sched.self_ms"),
        "sched.makespan_us": median([s["makespan_us"] for s in untraced]),
        "sched.utilization": median([s["utilization"] for s in untraced]),
        "sched.mean_queue_wait_us": median([s["mean_queue_wait_us"] for s in untraced]),
        "sched.intra_host_pair_frac": median([s["intra_host_pair_frac"]
                                              for s in untraced]),
        "sched.backfilled_jobs": median([s["backfilled_jobs"] for s in untraced]),
        "obs.spans_per_job": per_job(untraced, lambda s: s["spans"]),
        "obs.analyze_ms": self_ms("obs.analyze_ms"),
        "obs.report_ms": self_ms("obs.report_ms"),
        "obs.report_bytes": median([s["report_bytes"] for s in untraced]),
        "obs.perfetto_ms": self_ms("obs.perfetto_ms"),
        "obs.perfetto_bytes": per_job(untraced, lambda s: s["perfetto_bytes"]),
        "bench.driver_self_ms": self_ms("bench.driver_self_ms"),
        "bench.trace_overhead_frac": ratio(median([s["wall_ms"] for s in traced]),
                                           median([s["wall_ms"] for s in untraced])) - 1.0,
    }
    for k, channel in enumerate(channels):
        m[f"fabric.{channel}_ops"] = per_job(untraced, lambda s, k=k: s["ops"][k])
        m[f"fabric.{channel}_bytes"] = per_job(untraced, lambda s, k=k: s["bytes"][k])
    twins = [s["ideal_twin_ms"] for s in traced if "ideal_twin_ms" in s]
    m["net.two_pass_overhead_frac"] = (
        ratio(m["mpi.run_job_ms_p50"], median(twins)) - 1.0 if twins else 0.0)
    e2e = e2e_metrics(raw, untraced)
    for name in ("virt_job_us_p50", "virt_speedup_vs_default", "virt_overhead_vs_native"):
        m[name] = e2e[name]
    return m


def evaluate(workload, raw, spans, trace):
    """Turns one driver run into a result: metrics plus correctness."""
    ok = [s for s in raw["samples"] if s["ok"]]
    untraced = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    problems = []
    if not untraced or (trace and not traced):
        problems.append("no successful timed job")
    if len(raw["samples"]) < raw["min_timed_jobs"]:
        problems.append(f"only {len(raw['samples'])} timed jobs ran, "
                        f"fewer than {raw['min_timed_jobs']}")
    if raw["reference"]["rerun_mismatches"]:
        problems.append(f"{raw['reference']['rerun_mismatches']} same-seed reruns "
                        "differ from the first run")
    result = {"workload": workload, "seed": raw["seed"], "trace": trace,
              "jobs": len(untraced), "attempted": raw["attempted"],
              "failed": raw["failed"], "problems": problems,
              "probe_ms": median([s["probe_ms"] for s in untraced]),
              "raw_wall_ms": median([s["wall_ms"] for s in untraced])}
    if problems:
        result["metrics"] = {}
        return result
    if trace:
        layer_times = [v for job, v in self_times(spans).items()
                       if raw["samples"][job]["traced"] and raw["samples"][job]["ok"]]
        worst = max(abs(sum(layers.values()) - wall) / wall
                    for layers, wall in layer_times)
        result["self_time_gap"] = worst
        if worst > SELF_TIME_TOLERANCE:
            problems.append(f"self times miss the traced job wall by {worst:.1%}")
        result["metrics"] = layer_metrics(raw, untraced, traced, layer_times)
    else:
        result["metrics"] = e2e_metrics(raw, untraced)
    bad = [k for k, v in result["metrics"].items() if not math.isfinite(v)]
    if bad:
        problems.append("non-finite metrics: " + ", ".join(bad))
    return result


def correct(result):
    return not result["problems"] and result["failed"] == 0


def print_result(result):
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'untraced'}): "
          f"{result['jobs']} untraced timed jobs, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    if result["problems"]:
        return
    if result["trace"]:
        for name, unit in PER_LAYER:
            print(f"  {name:40s} {result['metrics'][name]:>16.6g} {unit}")
        print(f"  self times cover the traced job wall to within "
              f"{result['self_time_gap']:.2%}")
        return
    print(f"  host speed: probe median {result['probe_ms']:.3f} ms against "
          f"{P_REF_MS} ms reference; unscaled job wall median "
          f"{result['raw_wall_ms']:.3f} ms")
    for name, unit, better in E2E:
        note = ""
        if result["workload"] == "observed_schedule" and name in (
                "virt_speedup_vs_default", "virt_overhead_vs_native"):
            note = "  (schedule makespan ratio)"
        print(f"  {name:28s} {result['metrics'][name]:>16.6g} {unit:6s} "
              f"{better} is better{note}")


def isolation_problems(results):
    """Layer-isolation facts that hold by construction of the workloads,
    read off a traced run of every workload."""
    problems = []
    for r in results:
        if r["problems"] or not r["trace"]:
            continue
        name, m = r["workload"], r["metrics"]
        uses_net = m["net.transfers"] > 0
        uses_reg = m["fabric.reg_cache.hits"] + m["fabric.reg_cache.misses"] > 0
        uses_obs = m["obs.spans_per_job"] > 0
        if uses_net != (name == "apps_fattree"):
            problems.append(f"{name}: net.transfers = {m['net.transfers']}")
        if uses_reg != (name == "apps_fattree"):
            problems.append(f"{name}: reg-cache lookups "
                            f"{'present' if uses_reg else 'absent'}")
        if uses_obs != (name == "observed_schedule"):
            problems.append(f"{name}: untraced obs.spans_per_job = "
                            f"{m['obs.spans_per_job']}")
    return problems


def print_predictions(results):
    """The layer predictions README.md states for the seed commit; printed,
    never enforced, since a change to a layer may move them on purpose."""
    m = {r["workload"]: r["metrics"] for r in results
         if r["trace"] and not r["problems"]}
    if len(m) != len(WORKLOADS):
        return
    checks = [
        ("coll_wide has >= 10x the voluntary context switches of pt2pt_intra",
         m["coll_wide"]["mpi.vol_ctx_switches_per_job"]
         >= 10 * m["pt2pt_intra"]["mpi.vol_ctx_switches_per_job"]),
        ("apps_fattree has net.congested_ratio > 0",
         m["apps_fattree"]["net.congested_ratio"] > 0),
        ("apps_fattree has 0 < fabric.reg_cache.hit_ratio < 1",
         0 < m["apps_fattree"]["fabric.reg_cache.hit_ratio"] < 1),
        ("observed_schedule has obs.perfetto_ms > 0",
         m["observed_schedule"]["obs.perfetto_ms"] > 0),
    ]
    for what, holds in checks:
        print(f"prediction {'holds' if holds else 'DOES NOT HOLD'}: {what}")


def contract_metrics(result, prefix=""):
    """The metrics BENCHMARK.json lists: the gated end-to-end ones without
    --trace, every per-layer one with it."""
    spec = SPEC["per_layer"] if result["trace"] else SPEC["end_to_end"]
    return {prefix + m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in spec}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    # Run length is fixed by BENCHMARK.json, the same on every commit; the
    # option exists only because the benchmark command is called with it.
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="length of each timed loop; must equal run_seconds "
                        "in BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="per-layer run (1) or end-to-end run (0)")
    parser.add_argument("--quick", action="store_true",
                        help="5 timed jobs, 1 reference seed per workload")
    parser.add_argument("--driver", type=Path,
                        help="use this cbmpi_bench binary instead of building one")
    parser.add_argument("--json-out", type=Path,
                        help="write the full results (every metric) here, for compare.py")
    args = parser.parse_args()
    if args.seconds != SPEC["run_seconds"]:
        parser.error(f"--seconds must be {SPEC['run_seconds']}, "
                     "the run_seconds of BENCHMARK.json")

    try:
        driver = args.driver or build_driver()
        results = []
        for workload in [args.workload] if args.workload else WORKLOADS:
            raw, spans = run_driver(driver, workload, args)
            results.append(evaluate(workload, raw, spans, args.trace))
            print_result(results[-1])
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    problems = isolation_problems(results)
    for problem in problems:
        print(f"layer isolation broken: {problem}")
    print_predictions(results)
    if args.json_out:
        full = [{k: r[k] for k in ("workload", "seed", "trace", "attempted", "failed",
                                   "metrics")} | {"correct": correct(r)}
                for r in results]
        args.json_out.write_text(json.dumps(full, indent=1) + "\n")

    ok = all(correct(r) for r in results) and not problems
    metrics = {}
    for r in results:
        if not r["problems"]:
            prefix = "" if args.workload else r["workload"] + "."
            metrics.update(contract_metrics(r, prefix))
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
