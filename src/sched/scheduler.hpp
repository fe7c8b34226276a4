// Virtual-time cluster scheduler: FIFO with EASY-style backfill over a
// shared simulated cluster, executing each placed job through the normal
// cbmpi runtime (mpi::run_job) and folding per-job results into cluster
// metrics (makespan, utilization, queue wait, placement locality).
//
// Deterministic by construction: time is virtual, events are ordered by
// (time, kind, job id), placers are pure functions of (job, state, seed),
// and each job's runtime seed is derived from (scheduler seed, job id) — so
// the same submitted workload reproduces the same schedule, placements and
// job times, run after run.
#pragma once

#include <functional>
#include <vector>

#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "sched/cluster_state.hpp"
#include "sched/job.hpp"
#include "sched/placer.hpp"
#include "sched/rebalancer.hpp"
#include "topo/calibration.hpp"

namespace cbmpi::sched {

/// Everything a Scheduler needs to know before the first submit. Plain data;
/// copy freely. One config describes one simulated cluster.
struct SchedulerConfig {
  int cluster_hosts = 4;         ///< identical hosts in the cluster
  topo::HostShape host_shape{};  ///< defaults to the paper's 2x12 testbed
  PlacementPolicy policy = PlacementPolicy::LocalityAware;
  bool backfill = true;          ///< EASY backfill; false = pure FIFO
  std::uint64_t seed = 42;       ///< root of every placement / job seed
  fabric::TuningParams tuning{};             ///< forwarded to every job
  /// Collective-algorithm table copied into every job's JobConfig::coll_tuning.
  coll::TuningTable coll_tuning = coll::TuningTable::container_defaults();
  topo::MachineProfile profile = topo::MachineProfile::chameleon_fdr();

  /// Switch on per-job observability (metrics + spans on every JobResult) so
  /// schedule-mode runs can be analyzed (cbmpirun --analyze). Observation is
  /// free in virtual time; the schedule is byte-identical either way.
  bool observe = false;

  /// Fabric model shared by every job (spans the whole cluster, not just the
  /// hosts a job lands on). Also feeds the TopologyAware placer's hop matrix;
  /// with the model off, TopologyAware assumes the smallest fat-tree that
  /// holds cluster_hosts.
  net::FabricConfig fabric{};

  // --- crash recovery ------------------------------------------------------
  /// Requeue budget: a crashed job is resubmitted up to this many times
  /// before it is marked Failed. 0 = never requeue.
  int max_restarts = 3;
  /// Virtual delay before a crashed job's resubmission becomes eligible,
  /// growing by requeue_backoff_factor each attempt (exponential backoff).
  Micros requeue_backoff = 50.0;
  double requeue_backoff_factor = 2.0;
  /// Blacklist a host once this many crashed attempts are attributed to it
  /// (the placer then routes around it). 0 = never blacklist.
  int blacklist_threshold = 3;
  /// Default coordinated-checkpoint interval for jobs whose spec leaves
  /// JobSpec::checkpoint_interval negative. 0 = checkpoints off.
  Micros checkpoint_interval = 0.0;

  // --- live migration / elastic rebalancing (DESIGN.md §17) ----------------
  /// Rebalancing policy consulted at every job launch; Off (the default)
  /// leaves the schedule byte-identical to a scheduler without the feature.
  migrate::MigrationPolicy migrate_policy = migrate::MigrationPolicy::Off;
  /// Cost gate every proposal must pass (margin, pre-copy schedule).
  migrate::CostModel migrate_cost{};
};

/// One host removed from placement: when, and after how many crashes.
struct BlacklistEvent {
  topo::HostId host = 0;
  Micros at = 0.0;
  int crashes = 0;
};

/// The cluster control plane: submit jobs, then run() once to drain the
/// queue in virtual time. Not thread-safe; drive it from one thread.
class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config);

  /// Queues a job; returns its id. Jobs with equal submit times keep FIFO
  /// order by priority (higher first), then submission order. Throws if the
  /// job can never fit the cluster.
  int submit(JobSpec spec);

  /// Drains the queue: advances virtual time, places and executes every job,
  /// releases capacity at completions. Returns the per-job outcomes, in
  /// completion order. Call once after all submits.
  const std::vector<ScheduledJob>& run();

  /// Completed jobs, in completion order (empty before run()).
  const std::vector<ScheduledJob>& jobs() const { return done_; }
  /// Cluster-wide aggregates (makespan, utilization, waits, channel ops);
  /// meaningful after run().
  const ClusterMetrics& metrics() const { return metrics_; }
  /// The configuration this scheduler was built with (never changes).
  const SchedulerConfig& config() const { return config_; }
  /// Hosts blacklisted during the run, in blacklisting order.
  const std::vector<BlacklistEvent>& blacklist_events() const {
    return blacklist_events_;
  }

  /// Publishes the run's ClusterMetrics plus per-job wait/runtime figures
  /// into an obs::MetricsRegistry (names under "sched."). Call after run().
  void export_metrics(obs::MetricsRegistry& registry) const;

  /// Test seam: replaces mpi::run_job execution (e.g. with a canned-duration
  /// stub). The default runner instantiates the job's named body from the
  /// registry and runs it under the placed JobConfig.
  using Runner = std::function<mpi::JobResult(const mpi::JobConfig&, const JobSpec&)>;
  void set_runner(Runner runner) { runner_ = std::move(runner); }

 private:
  struct Running {
    int job_id = 0;
    Micros end_time = 0.0;
    int cores = 0;
  };

  bool try_start(const JobSpec& job, Micros now, bool backfilled);
  /// Crash bookkeeping for one attempt: record the outcome, attribute the
  /// crash to its host (possibly blacklisting it), account lost work, and
  /// requeue the job with backoff — or mark it Failed when the budget is
  /// spent. May insert into pending_ (callers must not hold references).
  void handle_crash(ScheduledJob& record, const JobSpec& job, Micros now,
                    const faults::CrashInfo& info,
                    std::shared_ptr<const mpi::CheckpointData> checkpoint,
                    int checkpoints_committed);
  /// Records a job the cluster can no longer place (e.g. after blacklisting)
  /// as Failed without running it.
  void fail_unplaceable(JobSpec job, Micros now);
  /// Earliest virtual time the blocked queue head could get its cores, plus
  /// how many cores beyond its need will then be free (the backfill window).
  void reservation_for(int cores_needed, Micros now, Micros* shadow_time,
                       int* spare_cores) const;

  SchedulerConfig config_;
  topo::Cluster cluster_;
  ClusterState state_;
  std::unique_ptr<Placer> placer_;
  Runner runner_;
  std::unique_ptr<ElasticRebalancer> rebalancer_;  ///< null when policy Off

  std::vector<JobSpec> pending_;   ///< submitted, not yet started
  std::vector<Running> running_;
  std::vector<ScheduledJob> done_;
  ClusterMetrics metrics_{};  ///< accumulated during run(), finished at its end
  int next_id_ = 0;
  bool ran_ = false;

  // Recovery bookkeeping; the aggregates accumulate in metrics_ directly.
  std::vector<int> host_crashes_;  ///< crashed attempts per physical host
  std::vector<BlacklistEvent> blacklist_events_;
};

}  // namespace cbmpi::sched
