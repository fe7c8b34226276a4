// Extension experiment: multi-job scheduling throughput vs placement policy.
//
// The paper shows the runtime can only move traffic onto SHM/CMA when
// communicating ranks are co-resident — which the *scheduler* decides. This
// bench submits one seeded job mix to the same virtual cluster under all
// four placement policies and compares makespan, utilization, queue wait and
// how much traffic stayed on intra-host channels. LocalityAware should beat
// Spread on both makespan and intra-host pair share, and the whole schedule
// must be bit-identical across reruns with the same seed.
#include "bench_util.hpp"

#include "common/rng.hpp"
#include "sched/scheduler.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

namespace {

/// Deterministic job mix: varied bodies, rank counts and staggered submit
/// times, all derived from the seed. Every 5th job is a wide job that blocks
/// the queue head, so backfill has something to do.
std::vector<sched::JobSpec> make_job_mix(int jobs, int cluster_cores,
                                         std::uint64_t seed) {
  static const char* kBodies[] = {"ring", "pairs", "shift", "allreduce", "alltoall"};
  Xoshiro256 rng(mix64(seed ^ mix64(std::uint64_t{0x5c4ed})));
  std::vector<sched::JobSpec> mix;
  Micros t = 0.0;
  for (int i = 0; i < jobs; ++i) {
    sched::JobSpec job;
    job.body = kBodies[static_cast<std::size_t>(i) % std::size(kBodies)];
    if (i > 0 && i % 5 == 0) {
      job.ranks = std::max(4, cluster_cores / 2);  // wide: blocks the head
    } else {
      job.ranks = 4 + 2 * static_cast<int>(rng.below(3));  // 4, 6 or 8
    }
    job.ranks_per_container = 2;
    job.params.message_size = 4_KiB << rng.below(3);  // 4..16 KiB
    job.params.rounds = 2 + static_cast<int>(rng.below(3));
    job.submit_time = t;
    // Generous walltime estimate (>= any actual runtime here), so EASY
    // backfill only ever uses spare cores and can never delay a queue head.
    job.est_runtime = millis(50.0);
    // Arrivals tighter than job runtimes, so the queue builds and the
    // policies compete for capacity rather than an idle cluster.
    if (i >= jobs / 3) t += 4.0 + 4.0 * static_cast<double>(rng.below(4));
    mix.push_back(job);
  }
  return mix;
}

sched::Scheduler make_scheduler(sched::PlacementPolicy policy, int hosts,
                                const std::vector<sched::JobSpec>& mix,
                                std::uint64_t seed) {
  sched::SchedulerConfig config;
  config.cluster_hosts = hosts;
  config.host_shape = topo::HostShape{2, 4, true};  // small hosts: 8 cores
  config.policy = policy;
  config.seed = seed;
  sched::Scheduler scheduler(config);
  for (const auto& job : mix) scheduler.submit(job);
  return scheduler;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int hosts = static_cast<int>(opts.get_int("hosts", 4, "cluster hosts"));
  const int jobs = static_cast<int>(opts.get_int("jobs", 20, "jobs in the mix"));
  const std::uint64_t seed = declare_seed(opts);
  Figure fig(opts, "ext_scheduler_throughput",
             std::to_string(hosts) + " hosts x 8 cores, " + std::to_string(jobs) +
                 " jobs",
             seed);
  if (opts.finish("Extension: scheduler throughput vs placement policy")) return 0;

  fig.banner("Extension", "cluster scheduling throughput vs placement policy",
             "locality-aware placement keeps communicating ranks "
             "co-resident, so jobs finish faster (SHM/CMA instead of HCA) "
             "and the same cluster drains the same queue sooner");

  const int cluster_cores = hosts * topo::HostShape{2, 4, true}.total_cores();
  const auto mix = make_job_mix(jobs, cluster_cores, seed);
  std::printf("cluster: %d hosts x 8 cores, %d jobs, seed %llu\n\n", hosts, jobs,
              static_cast<unsigned long long>(seed));

  const sched::PlacementPolicy policies[] = {
      sched::PlacementPolicy::Packed, sched::PlacementPolicy::Spread,
      sched::PlacementPolicy::Random, sched::PlacementPolicy::LocalityAware};

  Table table({"policy", "makespan (ms)", "jobs/s", "util", "mean wait (ms)",
               "intra-host pairs", "local ops", "backfilled"});
  sched::ClusterMetrics by_policy[4];
  for (std::size_t i = 0; i < 4; ++i) {
    auto scheduler = make_scheduler(policies[i], hosts, mix, seed);
    scheduler.run();
    const auto& m = scheduler.metrics();
    by_policy[i] = m;
    fig.row(sched::to_string(policies[i]), 0,
            {{"latency_us", m.makespan}, {"mean_queue_wait_us", m.mean_queue_wait},
             {"utilization", m.utilization}, {"backfilled_jobs", m.backfilled_jobs},
             {"intra_host_pair_share", m.intra_host_pair_share()},
             {"local_op_share", m.local_op_share()}});
    table.add_row({sched::to_string(policies[i]),
                   Table::num(to_millis(m.makespan), 3),
                   Table::num(static_cast<double>(jobs) / to_millis(m.makespan) * 1e3, 0),
                   Table::num(m.utilization * 100.0, 1) + "%",
                   Table::num(to_millis(m.mean_queue_wait), 3),
                   Table::num(m.intra_host_pair_share() * 100.0, 1) + "%",
                   Table::num(m.local_op_share() * 100.0, 1) + "%",
                   std::to_string(m.backfilled_jobs)});
  }
  table.print(std::cout);

  const auto& spread = by_policy[1];
  const auto& aware = by_policy[3];
  std::printf("\nlocality-aware vs spread: %.1f%% shorter makespan, "
              "intra-host pair share %.1f%% vs %.1f%%\n",
              percent_better(spread.makespan, aware.makespan),
              aware.intra_host_pair_share() * 100.0,
              spread.intra_host_pair_share() * 100.0);

  // Determinism: rerun the locality-aware schedule from scratch; every
  // aggregate (virtual times and op counts alike) must reproduce exactly.
  auto again = make_scheduler(sched::PlacementPolicy::LocalityAware, hosts, mix, seed);
  again.run();
  const auto& rerun = again.metrics();
  const bool identical =
      rerun.makespan == aware.makespan &&
      rerun.mean_queue_wait == aware.mean_queue_wait &&
      rerun.backfilled_jobs == aware.backfilled_jobs &&
      rerun.intra_host_pairs == aware.intra_host_pairs &&
      rerun.shm_ops == aware.shm_ops && rerun.cma_ops == aware.cma_ops &&
      rerun.hca_ops == aware.hca_ops;

  fig.check(aware.makespan < spread.makespan, "locality-aware beats spread on makespan");
  fig.check(aware.intra_host_pair_share() > spread.intra_host_pair_share(),
            "locality-aware beats spread on intra-host (SHM+CMA) pair share");
  fig.check(aware.local_op_share() >= spread.local_op_share(),
            "locality-aware keeps at least as many ops on SHM/CMA");
  fig.check(identical, "schedule is deterministic across reruns");
  return fig.finish();
}
