// Shared live-migration fixtures: a 6-rank ring fragmented over two hosts,
// the defrag move that heals it, and a spread cluster with a fragmented job
// mix for the scheduler's rebalancer. Used by migrate_test and by the report
// schema tests in obs_test.
#pragma once

#include "migrate/engine.hpp"
#include "mpi/job_registry.hpp"
#include "sched/scheduler.hpp"

namespace cbmpi {

inline topo::HostShape small_shape() { return topo::HostShape{2, 4, true}; }

/// 6-rank ring over two hosts: ranks {0..3} on host 0, {4,5} fragmented onto
/// host 1 — the classic defrag shape. Containers hold 2 ranks.
inline sched::Placement two_host_placement() {
  sched::Placement placement;
  placement.hosts.push_back({0, {0, 1, 2, 3}, {0, 1, 2, 3}});
  placement.hosts.push_back({1, {4, 5}, {0, 1}});
  return placement;
}

inline sched::JobSpec ring_job(int rounds, Bytes message_size) {
  sched::JobSpec job;
  job.id = 1;
  job.body = "ring";
  job.ranks = 6;
  job.ranks_per_container = 2;
  job.params.rounds = rounds;
  job.params.message_size = message_size;
  return job;
}

inline mpi::JobConfig config_for(const sched::JobSpec& job,
                                 const sched::Placement& placement) {
  auto config = sched::make_job_config(job, placement, small_shape());
  config.observe = true;
  config.seed = 42;
  return config;
}

/// Moves host 1's only container (ranks {4,5}) onto host 0, cores {4,5}.
inline migrate::MigrationPlan defrag_plan() {
  migrate::MigrationPlan plan;
  plan.policy = migrate::MigrationPolicy::Defrag;
  plan.move.src_host = 1;
  plan.move.container_index = 0;
  plan.move.dst_phys_host = 0;
  plan.move.ranks = {4, 5};
  plan.move.dst_cores = {4, 5};
  plan.epoch = 1.0;
  plan.cores_per_socket = small_shape().cores_per_socket;
  return plan;
}

inline mpi::JobResult run_migrated(const sched::JobSpec& job,
                                   const mpi::JobConfig& config,
                                   const migrate::MigrationPlan& plan) {
  return migrate::Engine::run(
      config, mpi::JobBodyRegistry::instance().make(job.body, job.params),
      plan);
}

inline sched::SchedulerConfig spread_cluster(migrate::MigrationPolicy policy) {
  sched::SchedulerConfig config;
  config.cluster_hosts = 4;
  config.host_shape = small_shape();
  config.policy = sched::PlacementPolicy::Spread;
  config.seed = 42;
  config.migrate_policy = policy;
  return config;
}

inline std::vector<sched::JobSpec> fragmented_mix() {
  std::vector<sched::JobSpec> mix;
  for (int i = 0; i < 4; ++i) {
    auto job = ring_job(8, 16_KiB);
    job.id = -1;
    job.ranks = 6;
    job.submit_time = 20.0 * i;
    mix.push_back(job);
  }
  return mix;
}

}  // namespace cbmpi
