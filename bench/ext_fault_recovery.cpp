// Extension experiment: job-level fault recovery — crash rate x checkpoint
// interval.
//
// A seeded mix of recoverable jobs (ring / cg / bfs bodies) runs on a small
// virtual cluster while crash faults kill attempts at deterministic virtual
// times. The scheduler requeues crashed jobs with exponential backoff; with
// coordinated checkpointing on, retries resume from the last committed
// snapshot instead of round 0, so the cluster wastes less virtual work and
// pushes more jobs through the same retry budget. A second section makes one
// physical host deterministically flaky (host-crash faults keyed to the
// cluster seed) and shows the blacklist policy routing placements around it.
// Everything — including the v2 run report — must be byte-identical across
// reruns with the same seed.
#include "bench_util.hpp"

#include "common/rng.hpp"
#include "obs/report.hpp"
#include "sched/scheduler.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

namespace {

/// Seeded mix of recoverable jobs with staggered arrivals. All three bodies
/// implement the save/restore hooks, so every retry can resume.
std::vector<sched::JobSpec> make_job_mix(int jobs, std::uint64_t seed,
                                         double crash_prob) {
  static const char* kBodies[] = {"ring", "cg", "bfs"};
  Xoshiro256 rng(mix64(seed ^ mix64(std::uint64_t{0xfa017})));
  std::vector<sched::JobSpec> mix;
  Micros t = 0.0;
  for (int i = 0; i < jobs; ++i) {
    sched::JobSpec job;
    job.body = kBodies[static_cast<std::size_t>(i) % std::size(kBodies)];
    job.ranks = 4 + 2 * static_cast<int>(rng.below(2));  // 4 or 6
    job.ranks_per_container = 2;
    job.params.rounds = 8 + static_cast<int>(rng.below(4));
    job.submit_time = t;
    job.faults.rank_crash_prob = crash_prob;
    job.faults.crash_horizon = 30.0;
    t += 3.0 + 2.0 * static_cast<double>(rng.below(3));
    mix.push_back(job);
  }
  return mix;
}

sched::SchedulerConfig cluster_of(int hosts, std::uint64_t seed,
                                  Micros checkpoint_interval) {
  sched::SchedulerConfig config;
  config.cluster_hosts = hosts;
  config.host_shape = topo::HostShape{2, 4, true};  // 8 cores per host
  config.policy = sched::PlacementPolicy::LocalityAware;
  config.seed = seed;
  config.max_restarts = 10;
  config.requeue_backoff = 25.0;
  config.blacklist_threshold = 0;  // section 2 turns this on
  config.checkpoint_interval = checkpoint_interval;
  return config;
}

sched::ClusterMetrics run_cell(int hosts, int jobs, std::uint64_t seed,
                               double crash_prob, Micros interval) {
  sched::Scheduler scheduler(cluster_of(hosts, seed, interval));
  for (auto& job : make_job_mix(jobs, seed, crash_prob))
    scheduler.submit(std::move(job));
  scheduler.run();
  return scheduler.metrics();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int hosts = static_cast<int>(opts.get_int("hosts", 2, "cluster hosts"));
  const int jobs = static_cast<int>(opts.get_int("jobs", 6, "jobs in the mix"));
  const std::uint64_t seed = declare_seed(opts);
  Figure fig(opts, "ext_fault_recovery",
             std::to_string(hosts) + " hosts x 8 cores, " + std::to_string(jobs) +
                 " jobs",
             seed);
  if (opts.finish("Extension: crash recovery — checkpoint interval sweep")) return 0;

  fig.banner("Extension", "crash faults x coordinated checkpoint/restart",
             "coordinated checkpointing turns a crash from 'rerun from "
             "scratch' into 'resume from the last snapshot': less virtual "
             "work lost, more jobs completed inside the same retry budget");

  const std::vector<double> crash_probs = {0.2, 0.4, 0.6};
  const std::vector<Micros> intervals = {0.0, 5.0, 15.0};
  Table table({"crash prob", "ckpt (us)", "crashes", "requeues", "resumed",
               "failed", "lost (us)", "completed (us)", "makespan (ms)"});
  // completed/lost virtual work per sweep cell, indexed [prob][interval]
  std::vector<std::vector<sched::ClusterMetrics>> cells;
  for (const double prob : crash_probs) {
    cells.emplace_back();
    for (const Micros interval : intervals) {
      const auto m = run_cell(hosts, jobs, seed, prob, interval);
      cells.back().push_back(m);
      table.add_row({Table::num(prob, 1), Table::num(interval, 0),
                     std::to_string(m.crashes), std::to_string(m.requeues),
                     std::to_string(m.restarts_from_checkpoint),
                     std::to_string(m.jobs_failed),
                     Table::num(m.lost_work_us, 1),
                     Table::num(m.completed_work_us, 1),
                     Table::num(to_millis(m.makespan), 3)});
      // The sweep's gated latency is the cell's makespan.
      std::string label = "p";
      label += Table::num(prob, 1);
      label += "/i";
      label += Table::num(interval, 0);
      fig.row(label, 0,
              {{"latency_us", m.makespan},
               {"crash_prob", prob},
               {"checkpoint_interval_us", interval},
               {"crashes", m.crashes},
               {"requeues", m.requeues},
               {"restarts_from_checkpoint", m.restarts_from_checkpoint},
               {"jobs_failed", m.jobs_failed},
               {"lost_work_us", m.lost_work_us},
               {"completed_work_us", m.completed_work_us},
               {"makespan_us", m.makespan}});
    }
  }
  table.print(std::cout);

  // Highest crash rate: checkpointing must bank strictly more completed
  // virtual work than interval = 0 (jobs that would exhaust the retry budget
  // from scratch finish when each retry resumes partway).
  const auto& hot = cells.back();
  bool more_work = true, less_lost = true;
  const bool crashes_happened = hot[0].crashes > 0;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (hot[i].completed_work_us <= hot[0].completed_work_us) more_work = false;
    if (hot[i].restarts_from_checkpoint == 0) more_work = false;
    if (hot[i].lost_work_us >= hot[0].lost_work_us) less_lost = false;
  }
  fig.check(crashes_happened, "crash faults actually fired");
  fig.check(more_work,
            "checkpointing completes strictly more virtual work than "
            "interval=0 under heavy crashes (and retries resume)");
  fig.check(less_lost,
            "checkpointing loses strictly less virtual work to "
            "crashes than interval=0");

  // --- host blacklisting ----------------------------------------------------
  std::printf("\n--- flaky-host blacklisting ---\n");
  auto config = cluster_of(hosts + 1, seed, 5.0);
  config.blacklist_threshold = 2;
  sched::Scheduler flaky(config);
  for (auto& job : make_job_mix(3 * jobs, seed, 0.0)) {
    // Host-crash eligibility hashes from the *cluster* seed, so the same
    // physical host is flaky for every job and the per-host crash count can
    // actually reach the threshold.
    job.faults.host_crash_prob = 0.6;
    job.faults.crash_horizon = 30.0;
    flaky.submit(std::move(job));
  }
  flaky.run();
  const auto& events = flaky.blacklist_events();
  std::printf("crashes %d, blacklisted hosts %d\n", flaky.metrics().crashes,
              flaky.metrics().blacklisted_hosts);
  bool no_placements_after = !events.empty();
  for (const auto& event : events) {
    std::printf("host %d blacklisted at t=%.2f us after %d crashes\n",
                event.host, event.at, event.crashes);
    for (const auto& record : flaky.jobs())
      if (record.start_time >= event.at)
        for (const auto host : record.hosts)
          if (host == event.host) no_placements_after = false;
  }
  fig.check(!events.empty(), "a flaky host crossed the blacklist threshold");
  fig.check(no_placements_after, "blacklisted hosts receive no further placements");

  // --- determinism, including the v2 run report -----------------------------
  const auto report_once = [&] {
    sched::Scheduler scheduler(cluster_of(hosts, seed, 5.0));
    for (auto& job : make_job_mix(jobs, seed, 0.5))
      scheduler.submit(std::move(job));
    scheduler.run();
    obs::ReportContext ctx;
    ctx.app = "ext_fault_recovery";
    ctx.deployment = std::to_string(hosts) + "x2x4";
    ctx.policy = "locality-aware";
    ctx.seed = seed;
    ctx.cluster = &scheduler.metrics();
    return obs::schedule_report_json(ctx, scheduler);
  };
  const std::string report = report_once();
  fig.check(report == report_once(),
            "crash-heavy schedule + v2 run report byte-identical "
            "across reruns");

  return fig.finish();
}
