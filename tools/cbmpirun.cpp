// cbmpirun — the mpirun-like front end for the simulated cluster.
//
// Launches any bundled application under a fully described deployment, e.g.:
//
//   cbmpirun --app=graph500 --hosts=4 --containers-per-host=4
//            --procs-per-host=8 --policy=aware --scale=15
//   cbmpirun --app=cg --hosts=2 --procs-per-host=8 --policy=default
//            --isolation=vm --ivshmem
//   cbmpirun --app=osu-latency --containers-per-host=2 --procs-per-host=2
//
// or schedules a whole queue of jobs instead of launching one:
//
//   cbmpirun --schedule=locality --hosts=4 --jobs=12
//
// Prints the application's own result plus the job's mpiP-style profile, so
// it doubles as the interactive exploration tool for the whole system.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "apps/graph500/bfs.hpp"
#include "apps/graph500/validate.hpp"
#include "apps/npb/npb.hpp"
#include "apps/osu/microbench.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "mpi/runtime.hpp"
#include "net/fabric.hpp"
#include "obs/report.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace cbmpi;

struct LaunchPlan {
  mpi::JobConfig config;
  std::string app;
  int scale = 13;
  Bytes message_size = 1_KiB;
  int iterations = 10;
  bool show_profile = false;
  bool show_metrics = false;
  bool analyze = false;
  std::string policy_name;
  std::string report_file;  ///< --report: run-report JSON destination
  std::string trace_file;   ///< --trace-out: Perfetto trace destination
};

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  CBMPI_REQUIRE(out.good(), "cannot open output file: ", path);
  out << text;
  CBMPI_REQUIRE(out.good(), "failed writing output file: ", path);
}

/// Observability outputs common to every single-job launch: the run report,
/// the Perfetto trace, and the human metrics summary.
void emit_outputs(const LaunchPlan& plan, const mpi::JobResult& result) {
  if (result.net.enabled)
    std::printf("fabric %s: %llu inter-host transfers, %llu congested, max "
                "slowdown x%.2f, peak link util %.0f%%\n",
                net::to_string(result.net.model),
                static_cast<unsigned long long>(result.net.transfers),
                static_cast<unsigned long long>(result.net.congested_transfers),
                result.net.max_factor, result.net.max_peak_util * 100.0);
  obs::ReportContext ctx;
  ctx.app = plan.app;
  ctx.deployment = plan.config.deployment.label();
  ctx.policy = plan.policy_name;
  ctx.seed = plan.config.seed;
  obs::analysis::Analysis analysis;
  if (plan.analyze) {
    analysis = obs::analysis::analyze(
        result.spans, static_cast<int>(result.rank_times.size()),
        result.rank_times);
    ctx.analysis = &analysis;
    std::fputs(obs::analysis::analysis_summary(analysis).c_str(), stderr);
  }
  if (!plan.report_file.empty()) {
    write_text_file(plan.report_file, obs::run_report_json(ctx, result));
    std::printf("run report written to %s\n", plan.report_file.c_str());
  }
  if (!plan.trace_file.empty()) {
    write_text_file(plan.trace_file,
                    obs::to_perfetto(result.spans, result.trace, ctx.analysis));
    std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                plan.trace_file.c_str());
  }
  if (plan.show_metrics) std::fputs(obs::metrics_summary(result.metrics).c_str(), stdout);
}

int run_graph500(const LaunchPlan& plan) {
  const apps::graph500::EdgeListParams params{plan.scale, 16, plan.config.seed};
  const auto roots = apps::graph500::choose_roots(params, 2);
  bool ok = true;
  const auto result = mpi::run_job(plan.config, [&](mpi::Process& p) {
    const auto graph = apps::graph500::build_graph(p, params);
    for (const auto root : roots) {
      const auto bfs = apps::graph500::run_bfs(p, graph, root);
      const auto report = apps::graph500::validate_bfs(p, graph, bfs);
      // The fabric model's record pass runs the body twice; only the apply
      // pass's lines should reach the terminal.
      if (p.rank() == 0 && !p.fabric_probe()) {
        std::printf("BFS root %llu: %llu vertices, %d levels, %.3f ms — %s\n",
                    static_cast<unsigned long long>(root),
                    static_cast<unsigned long long>(bfs.visited), bfs.levels,
                    to_millis(bfs.time), report.ok ? "VALID" : "INVALID");
        ok = ok && report.ok;
      }
    }
  });
  if (plan.show_profile) std::fputs(result.profile.report().c_str(), stdout);
  emit_outputs(plan, result);
  std::printf("job virtual time: %.3f ms\n", to_millis(result.job_time));
  return ok ? 0 : 1;
}

int run_npb(const LaunchPlan& plan) {
  apps::npb::KernelResult kernel_result;
  const auto result = mpi::run_job(plan.config, [&](mpi::Process& p) {
    apps::npb::KernelResult r;
    const int nranks = p.size();
    if (plan.app == "ep") {
      r = apps::npb::run_ep(p);
    } else if (plan.app == "cg") {
      apps::npb::CgParams params;
      params.grid = std::max(64, nranks);
      r = apps::npb::run_cg(p, params);
    } else if (plan.app == "mg") {
      apps::npb::MgParams params;
      params.nz = std::max(32, 2 * nranks);
      r = apps::npb::run_mg(p, params);
    } else if (plan.app == "ft") {
      apps::npb::FtParams params;
      params.nx = params.nz = std::max(32, nranks);
      params.ny = 8;
      r = apps::npb::run_ft(p, params);
    } else if (plan.app == "lu") {
      apps::npb::LuParams params;
      params.grid = std::max(32, nranks * 4);
      r = apps::npb::run_lu(p, params);
    } else if (plan.app == "is") {
      r = apps::npb::run_is(p);
    }
    if (p.rank() == 0) kernel_result = r;
  });
  std::printf("%s: %.3f ms, checksum %.6g — %s\n", kernel_result.name.c_str(),
              to_millis(kernel_result.time), kernel_result.checksum,
              kernel_result.verified ? "VERIFIED" : "FAILED");
  if (plan.show_profile) std::fputs(result.profile.report().c_str(), stdout);
  emit_outputs(plan, result);
  return kernel_result.verified ? 0 : 1;
}

int run_osu(const LaunchPlan& plan) {
  double value = 0.0;
  const auto result = mpi::run_job(plan.config, [&](mpi::Process& p) {
    apps::osu::PairOptions osu_opts;
    osu_opts.iterations = plan.iterations;
    double v = 0.0;
    if (plan.app == "osu-latency")
      v = apps::osu::pt2pt_latency(p, plan.message_size, osu_opts);
    else if (plan.app == "osu-bw")
      v = apps::osu::pt2pt_bandwidth(p, plan.message_size, osu_opts);
    else if (plan.app == "osu-allreduce")
      v = apps::osu::collective_latency(p, apps::osu::Collective::Allreduce,
                                        plan.message_size, osu_opts);
    if (p.rank() == 0) value = v;
  });
  const char* unit = plan.app == "osu-bw" ? "MB/s" : "us";
  std::printf("%s @ %s: %.3f %s\n", plan.app.c_str(),
              format_size(plan.message_size).c_str(), value, unit);
  if (plan.show_profile) std::fputs(result.profile.report().c_str(), stdout);
  emit_outputs(plan, result);
  return 0;
}

/// Multi-job mode: submit a deterministic mix of registry jobs to the
/// cluster scheduler and report the per-job schedule plus cluster metrics.
/// Every job carries `crash` as its fault plan (no faults by default).
int run_schedule(const sched::SchedulerConfig& config,
                 const std::string& policy_name, int jobs,
                 const faults::FaultPlan& crash,
                 const std::string& report_file) {
  sched::Scheduler scheduler(config);

  const int hosts = config.cluster_hosts;
  const std::uint64_t seed = config.seed;
  const int cores = hosts * config.host_shape.total_cores();
  const auto bodies = mpi::JobBodyRegistry::instance().names();
  Xoshiro256 rng(mix64(seed));
  Micros t = 0.0;
  for (int i = 0; i < jobs; ++i) {
    sched::JobSpec job;
    job.body = bodies[static_cast<std::size_t>(i) % bodies.size()];
    job.ranks = i > 0 && i % 5 == 0
                    ? std::max(4, cores / 2)
                    : 4 + 2 * static_cast<int>(rng.below(3));
    job.ranks_per_container = 4;
    job.params.rounds = 2 + static_cast<int>(rng.below(3));
    job.submit_time = t;
    job.est_runtime = millis(50.0);
    job.faults = crash;
    if (i >= jobs / 3) t += 10.0 + 10.0 * static_cast<double>(rng.below(4));
    scheduler.submit(job);
  }

  std::printf("scheduling %d jobs on %d hosts (%d cores), policy %s%s, seed "
              "%llu\n\n",
              jobs, hosts, cores, sched::to_string(config.policy),
              config.backfill ? " + backfill" : "",
              static_cast<unsigned long long>(seed));

  const bool recovery_on = crash.crashes_enabled();
  std::vector<std::string> columns = {"job", "body", "ranks", "hosts",
                                      "submit (us)", "start (us)", "end (us)",
                                      "wait (us)", "intra-host", "backfilled"};
  if (recovery_on) {
    columns.push_back("att");
    columns.push_back("outcome");
  }
  Table table(columns);
  for (const auto& job : scheduler.run()) {
    std::vector<std::string> row = {
        job.spec.name, job.spec.body, std::to_string(job.spec.ranks),
        std::to_string(job.placement.hosts_used),
        Table::num(job.spec.submit_time, 1), Table::num(job.start_time, 1),
        Table::num(job.end_time, 1), Table::num(job.queue_wait(), 1),
        Table::num(job.placement.intra_host_share() * 100.0, 0) + "%",
        job.backfilled ? "yes" : ""};
    if (recovery_on) {
      row.push_back(std::to_string(job.attempt));
      std::string outcome = sched::to_string(job.outcome);
      // Crash root cause, straight from the runtime's CrashInfo: the failing
      // rank and the virtual time (us into the attempt) it died.
      if (job.outcome != sched::JobOutcome::Completed && job.crash.rank >= 0)
        outcome += " (rank " + std::to_string(job.crash.rank) + " at t=" +
                   Table::num(job.crash.at, 1) + ")";
      row.push_back(outcome);
    }
    table.add_row(row);
  }
  table.print(std::cout);

  const auto& metrics = scheduler.metrics();
  std::printf("\nmakespan %.1f us — utilization %.1f%% — mean wait %.1f us "
              "(max %.1f) — %d backfilled\n",
              metrics.makespan, metrics.utilization * 100.0,
              metrics.mean_queue_wait, metrics.max_queue_wait,
              metrics.backfilled_jobs);
  std::printf("placement: %.1f%% of rank pairs intra-host — channel ops: "
              "%llu shm, %llu cma, %llu hca (%.1f%% local)\n",
              metrics.intra_host_pair_share() * 100.0,
              static_cast<unsigned long long>(metrics.shm_ops),
              static_cast<unsigned long long>(metrics.cma_ops),
              static_cast<unsigned long long>(metrics.hca_ops),
              metrics.local_op_share() * 100.0);
  if (recovery_on) {
    std::printf("recovery: %d crashes, %d requeues, %d resumed from "
                "checkpoint, %d checkpoints, %d failed, %d hosts blacklisted "
                "— %.1f us lost / %.1f us completed\n",
                metrics.crashes, metrics.requeues,
                metrics.restarts_from_checkpoint, metrics.checkpoints,
                metrics.jobs_failed, metrics.blacklisted_hosts,
                metrics.lost_work_us, metrics.completed_work_us);
    for (const auto& event : scheduler.blacklist_events())
      std::printf("host %d blacklisted at t=%.1f us after %d crashed "
                  "attempts\n",
                  event.host, event.at, event.crashes);
  }
  if (config.migrate_policy != migrate::MigrationPolicy::Off) {
    std::printf("migration (%s): %d proposed, %d rejected by the cost gate, "
                "%d executed — pause %.1f us, predicted win %.1f us vs cost "
                "%.1f us\n",
                migrate::to_string(config.migrate_policy),
                metrics.migrations_proposed, metrics.migrations_rejected,
                metrics.migrations_executed, metrics.migration_pause_us,
                metrics.migration_win_us, metrics.migration_cost_us);
  }
  std::map<std::string, obs::analysis::Analysis> job_analyses;
  if (config.observe) {
    // Per-job critical paths: each job's spans live in their own virtual
    // timeline starting at 0, so each is analyzed independently.
    for (const auto& job : scheduler.jobs()) {
      if (job.result.rank_times.empty()) continue;
      auto analysis = obs::analysis::analyze(
          job.result.spans, static_cast<int>(job.result.rank_times.size()),
          job.result.rank_times);
      std::fprintf(stderr, "--- %s (%s, %d ranks) ---\n", job.spec.name.c_str(),
                   job.spec.body.c_str(), job.spec.ranks);
      std::fputs(obs::analysis::analysis_summary(analysis).c_str(), stderr);
      job_analyses.emplace(job.spec.name, std::move(analysis));
    }
  }
  if (!report_file.empty()) {
    obs::ReportContext ctx;
    ctx.app = "schedule";
    ctx.deployment = std::to_string(hosts) + " hosts";
    ctx.policy = policy_name;
    ctx.seed = seed;
    ctx.cluster = &metrics;
    if (config.observe) ctx.job_analyses = &job_analyses;
    write_text_file(report_file, obs::schedule_report_json(ctx, scheduler));
    std::printf("schedule report written to %s\n", report_file.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  LaunchPlan plan;

  plan.app = opts.get("app", "graph500",
                      "graph500 | ep | cg | mg | ft | lu | is | osu-latency | "
                      "osu-bw | osu-allreduce");
  const int hosts = static_cast<int>(opts.get_int("hosts", 1, "number of hosts"));
  const int containers = static_cast<int>(
      opts.get_int("containers-per-host", 2, "containers per host (0 = native)"));
  const int procs = static_cast<int>(
      opts.get_int("procs-per-host", 8, "MPI processes per host"));
  const std::string policy =
      opts.get("policy", "aware", "aware (proposed) | default (hostname-based)");
  const std::string isolation =
      opts.get("isolation", "container", "container | vm");
  const bool ivshmem = opts.get_flag("ivshmem", "attach IVSHMEM (vm only)");
  const bool no_ipc = opts.get_flag("no-ipc-sharing", "drop --ipc=host");
  const bool no_pid = opts.get_flag("no-pid-sharing", "drop --pid=host");
  const bool no_cma = opts.get_flag("no-cma", "disable the CMA channel");
  const bool flat = opts.get_flag("flat-collectives", "disable 2-level collectives");
  const std::string tuning_file = opts.get(
      "tuning", "", "collective tuning file (see DESIGN.md §11 for the format)");
  const std::string fabric_spec = opts.get(
      "fabric", "ideal",
      "fabric model: ideal | flat | fattree[:k] (DESIGN.md §14)");
  const double link_bw = opts.get_double(
      "link-bw", 0.0, "fabric per-link bandwidth in Gb/s, 0 = profile default");
  const int vf_limit = static_cast<int>(opts.get_int(
      "vf-limit", 0,
      "SR-IOV VFs one host HCA schedules at full weight, 0 = unlimited"));
  const std::string reg_cache = opts.get(
      "reg-cache", "off",
      "pin-down cache capacity per rank (e.g. 64M), off = no registration model");
  const double reg_cost = opts.get_double(
      "reg-cost", 1.0, "scale on memory-registration costs (--reg-cache)");
  const std::string rndv_chunk = opts.get(
      "rndv-chunk", "512K",
      "rendezvous pipeline chunk size under --reg-cache (e.g. 512K)");
  plan.scale = static_cast<int>(opts.get_int("scale", 13, "graph500 scale"));
  plan.message_size = static_cast<Bytes>(
      opts.get_int("message-size", 1024, "osu-* message size in bytes"));
  plan.iterations = static_cast<int>(opts.get_int("iters", 10, "osu-* iterations"));
  plan.config.seed = static_cast<std::uint64_t>(opts.get_int("seed", 42, "job seed"));
  plan.show_profile = opts.get_flag("profile", "print the mpiP-style profile");
  plan.show_metrics = opts.get_flag("metrics", "print the metrics registry snapshot");
  plan.analyze = opts.get_flag(
      "analyze",
      "critical-path & wait-state analysis: blame table to stderr, 'analysis' "
      "report section, critical-path trace track (per job with --schedule)");
  plan.report_file =
      opts.get("report", "", "write the versioned run-report JSON to this file");
  plan.trace_file = opts.get(
      "trace-out", "", "write a Perfetto/chrome://tracing JSON to this file");
  const std::string schedule = opts.get(
      "schedule", "",
      "multi-job mode: packed | spread | random | locality | topology placement");
  const int jobs =
      static_cast<int>(opts.get_int("jobs", 12, "jobs to schedule (--schedule)"));
  const bool no_backfill =
      opts.get_flag("no-backfill", "pure FIFO, no EASY backfill (--schedule)");
  sched::SchedulerConfig sched_config;
  faults::FaultPlan crash;
  crash.rank_crash_prob = opts.get_double(
      "crash-rate", 0.0, "per-rank crash probability per job (--schedule)");
  crash.host_crash_prob = opts.get_double(
      "host-crash-rate", 0.0, "per-host crash probability per job (--schedule)");
  sched_config.checkpoint_interval = opts.get_double(
      "checkpoint-interval", 0.0,
      "coordinated checkpoint interval in virtual us, 0 = off (--schedule)");
  sched_config.max_restarts = static_cast<int>(opts.get_int(
      "max-restarts", 3, "requeue budget per crashed job (--schedule)"));
  sched_config.blacklist_threshold = static_cast<int>(opts.get_int(
      "blacklist-threshold", 3,
      "crashed attempts before a host is blacklisted, 0 = never (--schedule)"));
  const std::string migrate_policy = opts.get(
      "migrate", "off",
      "live-migration policy: off | defrag | evacuate | colocate (--schedule)");
  sched_config.migrate_cost.cost_margin = opts.get_double(
      "migrate-cost", 1.0,
      "cost-gate margin: locality win must exceed cost x this (--schedule)");
  sched_config.migrate_cost.precopy_rounds = static_cast<int>(opts.get_int(
      "precopy-rounds", 2,
      "pre-copy iterations before the stop-and-copy pause (--schedule)"));
  if (opts.finish("cbmpirun — launch an application on the simulated "
                  "container/VM cluster"))
    return 0;

  net::FabricConfig fabric;
  try {
    fabric = net::FabricConfig::parse(fabric_spec);
  } catch (const Error& e) {
    std::fprintf(stderr, "cbmpirun: %s\n", e.what());
    return 2;
  }
  fabric.link_bw_gbps = link_bw;
  fabric.vf_limit = vf_limit;

  // One TuningParams for both modes: a single job runs with it, a schedule
  // forwards it to every job it launches.
  fabric::TuningParams tuning;
  tuning.use_cma = !no_cma;
  tuning.two_level_collectives = !flat;
  if (reg_cache != "off") {
    try {
      tuning.reg_model = true;
      tuning.reg_cache_bytes = parse_size(reg_cache);
      tuning.reg_cost_scale = reg_cost;
      tuning.rndv_chunk = parse_size(rndv_chunk);
    } catch (const Error& e) {
      std::fprintf(stderr, "cbmpirun: %s\n", e.what());
      return 2;
    }
    if (tuning.rndv_chunk == 0) {
      std::fprintf(stderr, "cbmpirun: --rndv-chunk must be positive\n");
      return 2;
    }
  }

  if (!schedule.empty()) {
    if (!tuning_file.empty()) {
      std::fprintf(stderr, "cbmpirun: --tuning applies to single-job runs; "
                           "--schedule has no tuning-table slot\n");
      return 2;
    }
    const auto placement = sched::parse_policy(schedule);
    if (!placement) {
      std::fprintf(stderr,
                   "unknown --schedule policy '%s'; use packed | spread | "
                   "random | locality | topology\n",
                   schedule.c_str());
      return 2;
    }
    try {
      sched_config.migrate_policy = migrate::parse_policy(migrate_policy);
    } catch (const Error& e) {
      std::fprintf(stderr, "cbmpirun: %s\n", e.what());
      return 2;
    }
    sched_config.cluster_hosts = std::max(hosts, 2);
    sched_config.policy = *placement;
    sched_config.backfill = !no_backfill;
    sched_config.seed = plan.config.seed;
    sched_config.tuning = tuning;
    sched_config.fabric = fabric;
    sched_config.observe = plan.analyze;
    if (crash.crashes_enabled()) crash.crash_horizon = 100.0;
    return run_schedule(sched_config, schedule, jobs, crash, plan.report_file);
  }

  // Observability costs nothing in virtual time, so any output flag simply
  // switches it on; --trace-out additionally records the instant events.
  plan.config.observe = plan.show_metrics || plan.analyze ||
                        !plan.report_file.empty() || !plan.trace_file.empty();
  plan.config.record_trace = !plan.trace_file.empty();
  plan.config.fabric = fabric;
  plan.config.tuning = tuning;
  plan.policy_name = policy == "default" ? "default" : "aware";

  if (containers == 0) {
    plan.config.deployment = container::DeploymentSpec::native_hosts(hosts, procs);
  } else if (isolation == "vm") {
    plan.config.deployment =
        container::DeploymentSpec::virtual_machines(hosts, containers, procs, ivshmem);
  } else {
    plan.config.deployment =
        container::DeploymentSpec::containers(hosts, containers, procs);
    plan.config.deployment.share_host_ipc = !no_ipc;
    plan.config.deployment.share_host_pid = !no_pid;
  }
  plan.config.policy = policy == "default" ? fabric::LocalityPolicy::HostnameBased
                                           : fabric::LocalityPolicy::ContainerAware;
  if (!tuning_file.empty()) {
    // User entries append after the shipped container defaults, so a file
    // overrides exactly the (collective, size, ranks, cph) regions it names —
    // last match wins.
    try {
      plan.config.coll_tuning.merge(coll::TuningTable::load_file(tuning_file));
    } catch (const Error& e) {
      std::fprintf(stderr, "cbmpirun: %s\n", e.what());
      return 2;
    }
  }

  std::printf("cbmpirun: %s on %s, %d ranks, %s runtime\n", plan.app.c_str(),
              plan.config.deployment.label().c_str(),
              plan.config.deployment.total_ranks(),
              policy == "default" ? "default (hostname-based)"
                                  : "locality-aware (proposed)");

  if (plan.app == "graph500") return run_graph500(plan);
  if (plan.app == "ep" || plan.app == "cg" || plan.app == "mg" ||
      plan.app == "ft" || plan.app == "lu" || plan.app == "is")
    return run_npb(plan);
  if (plan.app.rfind("osu-", 0) == 0) return run_osu(plan);
  std::fprintf(stderr, "unknown --app '%s'; try --help\n", plan.app.c_str());
  return 2;
}
