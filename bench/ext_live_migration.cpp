// Extension experiment: live container migration — policy sweep under a
// fragmented schedule.
//
// A seeded mix of recoverable jobs lands on a small cluster under the
// Spread placer, which deliberately fragments each job across hosts. The
// elastic rebalancer then gets one shot per job start: with --migrate=off
// nothing moves (the baseline); defrag folds the stray container back onto
// a host already running the rest of the job; evacuate reacts to crash
// history; colocate chases the chattiest cross-host pair. Every proposal
// passes the pre-copy cost gate — the run report's migration section keeps
// the predicted win vs cost for audit — and the headline check is the
// acceptance shape from DESIGN.md §17: at least one defrag move whose
// predicted locality win exceeds its predicted cost, with the whole
// schedule (migration pauses included) byte-identical across reruns.
#include "bench_util.hpp"

#include "obs/report.hpp"
#include "sched/scheduler.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

namespace {

/// Recoverable bodies only (ring / cg / bfs): a migrated container resumes
/// from its quiesce snapshot, so the body must implement the restore hook.
std::vector<sched::JobSpec> make_job_mix(int jobs) {
  static const char* kBodies[] = {"ring", "cg", "bfs"};
  std::vector<sched::JobSpec> mix;
  Micros t = 0.0;
  for (int i = 0; i < jobs; ++i) {
    sched::JobSpec job;
    job.body = kBodies[static_cast<std::size_t>(i) % std::size(kBodies)];
    job.ranks = (i % 2 == 0) ? 6 : 4;
    job.ranks_per_container = 2;
    job.params.rounds = 8;
    job.params.message_size = 16_KiB;
    job.submit_time = t;
    t += 15.0;
    mix.push_back(job);
  }
  return mix;
}

sched::SchedulerConfig cluster_of(int hosts, std::uint64_t seed,
                                  migrate::MigrationPolicy policy) {
  sched::SchedulerConfig config;
  config.cluster_hosts = hosts;
  config.host_shape = topo::HostShape{2, 4, true};  // 8 cores per host
  config.policy = sched::PlacementPolicy::Spread;   // fragment on purpose
  config.seed = seed;
  config.migrate_policy = policy;
  return config;
}

sched::ClusterMetrics run_cell(int hosts, int jobs, std::uint64_t seed,
                               migrate::MigrationPolicy policy) {
  sched::Scheduler scheduler(cluster_of(hosts, seed, policy));
  for (auto& job : make_job_mix(jobs)) scheduler.submit(std::move(job));
  scheduler.run();
  return scheduler.metrics();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int hosts = static_cast<int>(opts.get_int("hosts", 4, "cluster hosts"));
  const int jobs = static_cast<int>(opts.get_int("jobs", 12, "jobs in the mix"));
  const std::uint64_t seed = declare_seed(opts);
  Figure fig(opts, "ext_live_migration",
             std::to_string(hosts) + " hosts x 8 cores, " + std::to_string(jobs) +
                 " jobs, spread placement",
             seed);
  if (opts.finish("Extension: live container migration — policy sweep")) return 0;

  fig.banner("Extension", "live migration x elastic rebalancing policies",
             "a quiesced container move costs a pause plus cold "
             "re-registration but buys SHM/CMA locality for every round "
             "still to come; the cost gate only lets moves through when "
             "the predicted win covers the bill");

  const migrate::MigrationPolicy policies[] = {
      migrate::MigrationPolicy::Off, migrate::MigrationPolicy::Defrag,
      migrate::MigrationPolicy::Evacuate, migrate::MigrationPolicy::Colocate};

  Table table({"policy", "proposed", "rejected", "executed", "pause (us)",
               "win (us)", "cost (us)", "makespan (ms)"});
  std::vector<sched::ClusterMetrics> cells;
  for (const auto policy : policies) {
    const auto m = run_cell(hosts, jobs, seed, policy);
    cells.push_back(m);
    table.add_row({migrate::to_string(policy),
                   std::to_string(m.migrations_proposed),
                   std::to_string(m.migrations_rejected),
                   std::to_string(m.migrations_executed),
                   Table::num(m.migration_pause_us, 1),
                   Table::num(m.migration_win_us, 1),
                   Table::num(m.migration_cost_us, 1),
                   Table::num(to_millis(m.makespan), 3)});
    fig.row(migrate::to_string(policy), 0,
            {{"latency_us", m.makespan},
             {"migrations_proposed", m.migrations_proposed},
             {"migrations_rejected", m.migrations_rejected},
             {"migrations_executed", m.migrations_executed},
             {"migration_pause_us", m.migration_pause_us},
             {"migration_win_us", m.migration_win_us},
             {"migration_cost_us", m.migration_cost_us},
             {"makespan_us", m.makespan}});
  }
  table.print(std::cout);

  const auto& off = cells[0];
  const auto& defrag = cells[1];
  fig.check(off.migrations_proposed == 0 && off.migrations_executed == 0,
            "--migrate=off never proposes, never moves (baseline)");
  fig.check(defrag.migrations_executed >= 1,
            "defrag folds at least one fragmented container back");
  fig.check(defrag.migration_win_us > defrag.migration_cost_us,
            "every executed defrag move cleared the cost gate: summed "
            "predicted win exceeds summed predicted cost");
  fig.check(defrag.migration_pause_us > 0.0,
            "migration pauses are charged to virtual time");

  // --- determinism, including the v6 migration report section ---------------
  const auto report_once = [&] {
    sched::Scheduler scheduler(
        cluster_of(hosts, seed, migrate::MigrationPolicy::Defrag));
    for (auto& job : make_job_mix(jobs)) scheduler.submit(std::move(job));
    scheduler.run();
    obs::ReportContext ctx;
    ctx.app = "ext_live_migration";
    ctx.deployment = std::to_string(hosts) + "x?x2";
    ctx.policy = "spread";
    ctx.seed = seed;
    ctx.cluster = &scheduler.metrics();
    return obs::schedule_report_json(ctx, scheduler);
  };
  const std::string report = report_once();
  fig.check(report == report_once(),
            "migrating schedule + v6 migration report byte-identical "
            "across reruns");
  fig.check(report.find("\"migration\"") != std::string::npos,
            "schedule report carries the v6 migration section");

  return fig.finish();
}
