// Job runtime: builds the simulated cluster, deploys containers, runs the
// Container Locality Detector, and executes the user's per-rank function as
// one fiber per rank on one worker thread per core (mpi/fiber.hpp).
//
//   mpi::JobConfig config;
//   config.deployment = container::DeploymentSpec::containers(1, 2, 16);
//   config.policy = fabric::LocalityPolicy::ContainerAware;
//   auto result = mpi::run_job(config, [](mpi::Process& p) {
//     p.world().barrier();
//     ...
//   });
//   // result.job_time is the virtual makespan.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "common/rng.hpp"
#include "container/deployment.hpp"
#include "fabric/reg_cache.hpp"
#include "fabric/selector.hpp"
#include "faults/fault.hpp"
#include "migrate/plan.hpp"
#include "mpi/checkpoint.hpp"
#include "mpi/coll/tuning_table.hpp"
#include "mpi/communicator.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "prof/profile.hpp"
#include "sim/trace.hpp"
#include "topo/calibration.hpp"

namespace cbmpi::mpi {

struct JobConfig {
  container::DeploymentSpec deployment;

  /// Explicit rank->host/container/core placement (scheduler-emitted). When
  /// set it replaces `plan_deployment(deployment)`; the deployment spec then
  /// only contributes container flags (privileged, --ipc=host, --pid=host,
  /// isolation kind). Hosts may carry different rank/container counts.
  std::optional<container::JobPlacement> placement;
  fabric::TuningParams tuning{};

  /// Collective-algorithm selection rules, the only source of a collective's
  /// algorithm. Ships the paper-derived container defaults; merge a parsed
  /// file over them (`cbmpirun --tuning=<file>`) to re-tune without a
  /// recompile, or `add()` a catch-all entry to pin one collective.
  coll::TuningTable coll_tuning = coll::TuningTable::container_defaults();
  fabric::LocalityPolicy policy = fabric::LocalityPolicy::HostnameBased;
  topo::MachineProfile profile = topo::MachineProfile::chameleon_fdr();

  /// Cluster size; 0 means "exactly the hosts the deployment needs".
  int cluster_hosts = 0;

  /// Forces all traffic onto one channel (Fig. 3 experiments).
  std::optional<fabric::ChannelKind> forced_channel;

  /// Fault injection (default: none). Faults are derived deterministically
  /// from `seed`, so the same seed reproduces the same failures, fallbacks,
  /// retry counts, and job time.
  faults::FaultPlan faults{};

  /// Coordinated checkpoints: > 0 asks the runtime to quiesce at body-round
  /// barriers and snapshot registered job-body state roughly every this many
  /// virtual microseconds (Process::checkpoint). 0 (default) = off, and the
  /// checkpoint hooks in job bodies cost nothing.
  Micros checkpoint_interval = 0.0;

  /// Resume from a previous attempt's committed snapshot: bodies see
  /// Process::start_round() / restored_state(), and each rank is charged the
  /// modelled snapshot-read cost at job start (a Fault/"restart" span).
  std::shared_ptr<const CheckpointData> restore;

  /// Job-local host index -> cluster-wide host id (scheduler-filled; empty =
  /// standalone run, local ids are the physical ids). Host-crash eligibility
  /// keys off the physical id so one flaky host misbehaves for every job
  /// placed on it (see FaultPlan::host_fault_seed).
  std::vector<int> physical_hosts;

  /// Fabric model for inter-host HCA traffic. FabricModel::Ideal (default)
  /// keeps the flat per-pair cost model bit-identically. Flat/FatTree route
  /// transfers over an explicit switch topology and run the job twice — a
  /// record pass logging every inter-host payload, then an apply pass with
  /// the settled link-contention factors — so congested runs are still pure
  /// functions of (config, seed) and rerun bit-identically.
  net::FabricConfig fabric{};

  /// Stops the job at the first checkpoint boundary (Process::checkpoint)
  /// after at least one completed round whose aligned time reaches this many
  /// virtual microseconds: every rank saves its state through the checkpoint
  /// path and unwinds, and JobResult::stop carries the image. 0 (default) =
  /// never. migrate::Engine sets it to the move's epoch.
  Micros stop_at = 0.0;

  /// Pin-down entries pre-pinned per rank ([rank][MRU..LRU]) before any rank
  /// starts, under TuningParams::reg_model. A migration's resume segment
  /// passes the stopped segment's entries minus the moved ranks'; empty (the
  /// default) = every cache starts cold.
  std::vector<std::vector<fabric::RegCacheEntry>> reg_warm;

  bool record_trace = false;

  /// Attaches the observability layer (obs::MetricsRegistry + span tracing)
  /// to the job: JobResult then carries a metrics snapshot and the recorded
  /// spans. All sampling is in virtual time, so enabling this never changes
  /// job_time and reruns stay bit-identical.
  bool observe = false;
  std::uint64_t seed = 42;
};

struct JobResult {
  Micros job_time = 0.0;           ///< max over ranks of the final clock
  std::vector<Micros> rank_times;  ///< per-rank final virtual clocks
  prof::JobProfile profile;        ///< aggregated over ranks
  std::size_t hca_queue_pairs = 0;
  std::vector<sim::TraceEvent> trace;  ///< empty unless record_trace; trace_less order
  /// Injected faults, degradation decisions, retry counts, recovery time.
  /// Empty when the job's FaultPlan is the default.
  faults::FaultReport fault_report;
  /// Observability (empty unless JobConfig::observe): the job's metrics
  /// registry snapshot and the recorded spans in canonical obs::span_less
  /// order, so every consumer (obs::run_report_json, obs::to_perfetto,
  /// obs::analysis::analyze) reads them in place.
  obs::MetricsSnapshot metrics;
  std::vector<obs::Span> spans;

  /// Fabric model outcome (report v3 "net" section): per-link utilization,
  /// congested-transfer count, hop histogram. `net.enabled` is false under
  /// FabricModel::Ideal.
  net::NetReport net;

  /// Pin-down cache outcome (report v4 "reg_cache" section). `enabled` is
  /// false unless TuningParams::reg_model was on.
  fabric::RegCacheStats reg_cache;

  /// Recovery bookkeeping (report v2 "recovery" section): checkpoints
  /// committed during this run, and what the run resumed from (if anything).
  std::vector<CheckpointEvent> checkpoints;
  bool restored = false;
  int restore_round = 0;
  Micros restore_progress_us = 0.0;

  /// Live-migration outcome (report v6 "migration" section). `enabled` is
  /// false unless a migrate::Engine drove this job.
  migrate::MigrationReport migration;

  /// Set when JobConfig::stop_at stopped the job: the image it resumes from.
  /// Comes from the run whose results stand (the fabric model's apply pass).
  std::optional<StopImage> stop;
};

/// The per-rank handle passed to the job body.
class Process {
 public:
  Process(JobState& job, int rank, osl::SimProcess& proc,
          std::shared_ptr<const CommGroup> world_group);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  int rank() const { return engine_.world_rank(); }
  int size() const { return engine_.job().nranks; }

  Communicator& world() { return world_; }

  /// Advances virtual time by a compute phase of `ops` abstract work units
  /// (profiled as computation for the Fig. 3a breakdown).
  void compute(double ops);

  /// Current virtual time in microseconds (the MPI_Wtime analogue).
  Micros now() const { return os_->clock().now(); }

  /// True while the fabric model's record pass runs (the job body executes
  /// twice under a non-Ideal fabric). Bodies with side effects beyond virtual
  /// time — printing, say — should skip them when this is set; the apply
  /// pass is the run whose results stand.
  bool fabric_probe() const;

  /// Job seed; combine with rank() for per-rank streams.
  std::uint64_t seed() const { return engine_.job().seed; }

  /// Deterministic per-rank RNG.
  Xoshiro256 make_rng(std::uint64_t salt = 0) const;

  /// Out-of-band phase alignment: blocks until all ranks arrive and aligns
  /// every clock to the maximum. For bench iteration boundaries — not an
  /// MPI_Barrier (costs nothing in virtual time beyond the alignment).
  void sync_time();

  /// First body round to execute: 0 for a fresh run, the restore snapshot's
  /// completed-round count when the job resumes from a checkpoint.
  int start_round() const;

  /// This rank's saved state bytes from the restore snapshot (empty span for
  /// a fresh run). Valid for the job's lifetime.
  std::span<const std::uint8_t> restored_state() const;

  /// Coordinated maybe-checkpoint, called by recoverable bodies once per
  /// round with `completed_rounds` rounds done and the rank's serialized
  /// state. Collective: every rank must call it the same number of times.
  /// When neither checkpointing nor JobConfig::stop_at is on this returns
  /// false at the cost of one pointer test; otherwise all ranks quiesce
  /// (align clocks) and make one uniform skip/take/stop decision from the
  /// aligned time. On take or stop each rank saves its state and is charged
  /// the modelled snapshot cost (a Fault/"checkpoint" or
  /// Migrate/"migrate-quiesce" span); on stop it then throws
  /// QuiesceInterrupt. Returns true when a checkpoint was taken this round.
  bool checkpoint(int completed_rounds, std::span<const std::uint8_t> state);

  Adi3Engine& engine() { return engine_; }
  const osl::SimProcess& os() const { return *os_; }

 private:
  osl::SimProcess* os_;
  Adi3Engine engine_;
  Communicator world_;
};

/// Runs one MPI job in the simulated cluster. Blocks until all ranks finish;
/// exceptions thrown by any rank are rethrown here. Throws DeadlockError
/// once every rank still running is blocked and none can wake another.
JobResult run_job(const JobConfig& config,
                  const std::function<void(Process&)>& body);

}  // namespace cbmpi::mpi
