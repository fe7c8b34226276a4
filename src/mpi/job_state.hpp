// Internal per-job shared state: channels, selector, payload homes, matchers,
// rank records.
//
// Created by the runtime before any rank starts; immutable topology-wise
// while the job runs. Payload homes, matchers and RankRecords are per-rank;
// channels and the selector are shared (internally synchronized where
// needed).
//
// Each rank's RankRecords is written only by that rank's fiber (a fiber never
// leaves its worker, src/mpi/fiber.hpp), or by run_job before any fiber
// starts, and read by run_job only after RankScheduler::run has joined every
// worker. Recording therefore takes no lock and no atomic; run_job
// concatenates each stream once at job end and sorts it by its total order.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "fabric/cma_channel.hpp"
#include "fabric/hca_channel.hpp"
#include "fabric/message.hpp"
#include "fabric/selector.hpp"
#include "fabric/shm_channel.hpp"
#include "fabric/tuning.hpp"
#include "faults/fault.hpp"
#include "mpi/coll/engine.hpp"
#include "mpi/matcher.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "prof/profile.hpp"
#include "sim/trace.hpp"
#include "topo/calibration.hpp"

namespace cbmpi::mpi {

class CheckpointStore;

/// Shared registry entry of one RMA window: each comm rank's exposed memory
/// plus a lock serializing concurrent remote accesses to it.
struct WindowInfo {
  Bytes elem_size = 1;
  std::vector<std::span<std::byte>> spans;          // indexed by comm rank
  std::vector<std::unique_ptr<std::mutex>> locks;   // per-op serialization
  /// Passive-target epoch holders per target (MPI_Win_lock), guarded by
  /// locks[t]: -1 = one exclusive holder, n >= 0 = n shared holders.
  std::vector<int> epoch_holders;
};

/// Everything one rank records while the job runs. The three streams stay
/// empty unless the job turned them on (JobState::record_trace, record_spans,
/// record_flows()).
struct RankRecords {
  prof::RankProfile profile;
  std::vector<obs::Span> spans;          // JobConfig::observe
  std::vector<sim::TraceEvent> trace;    // JobConfig::record_trace
  std::vector<net::FlowRecord> flows;    // the fabric's record pass
  /// One bit per world rank: the peers this rank opened an HCA queue pair
  /// to (Adi3Engine::connect_hca). Empty until the first one.
  std::vector<bool> hca_peers;
};

/// Out-of-band phase alignment (Process::sync_time and the checkpoint round
/// boundary). Each rank arrives with its clock; the last
/// arrival publishes the max, bumps the generation and pokes every matcher,
/// and the others wait in Adi3Engine::block_until until the generation moves.
struct PhaseAlignment {
  std::mutex mutex;
  int arrived = 0;
  Micros running_max = 0.0;
  Micros published_max = 0.0;
  std::uint64_t generation = 0;
};

struct JobState {
  const topo::MachineProfile* profile = nullptr;
  fabric::TuningParams tuning;

  /// Collective-algorithm engine; the runtime rebuilds it from the job's
  /// tuning table and placement before any rank starts.
  /// (Fully qualified: the member name shadows the `coll` namespace inside
  /// this class scope.)
  cbmpi::coll::Engine coll{cbmpi::coll::TuningTable::container_defaults(), 1};

  std::unique_ptr<fabric::ShmChannel> shm;
  std::unique_ptr<fabric::CmaChannel> cma;
  std::unique_ptr<fabric::HcaChannel> hca;
  std::unique_ptr<fabric::ChannelSelector> selector;

  /// One per world rank. Declared before `matchers`, so every message still
  /// pending in a matcher at job end is released while its home exists.
  std::vector<fabric::PayloadHome> payload_homes;
  std::vector<std::unique_ptr<Matcher>> matchers;   // one per world rank
  std::vector<RankRecords> rank_records;            // one per world rank

  bool record_trace = false;  ///< JobConfig::record_trace

  /// Fabric model (both null under FabricModel::Ideal — the flat cost model).
  /// `congestion` is set only during the apply pass, so a fabric without it
  /// is the record pass; `rank_phys_host` maps each rank to its cluster-wide
  /// host id and is filled whenever a fabric is attached.
  const net::Fabric* fabric = nullptr;
  const net::CongestionMap* congestion = nullptr;
  std::vector<int> rank_phys_host;

  /// Observability (JobConfig::observe): metrics is null and record_spans
  /// false when disabled. Metrics handles are resolved once per engine;
  /// spans carry virtual-time intervals only.
  obs::MetricsRegistry* metrics = nullptr;
  bool record_spans = false;

  /// Fault injection (null when the job's FaultPlan is empty — the common
  /// case — so the hot paths skip every injection check).
  const faults::FaultInjector* faults = nullptr;
  faults::FaultLog* fault_log = nullptr;            // non-null iff faults set

  /// Crash schedule (empty when no crash-class faults are planned): per rank,
  /// the virtual time its crash fires (infinity = survives), what kind of
  /// unit failure it is, and the rank's (physical) host for the CrashInfo.
  /// Computed once from the placement before any rank starts; each rank
  /// checks its own entry at op boundaries, so detection is deterministic.
  std::vector<Micros> crash_at;
  std::vector<faults::FaultKind> crash_kind;
  std::vector<int> crash_host;

  /// Coordinated checkpoint store: null unless the job checkpoints, stops
  /// at JobConfig::stop_at or restores. Process::checkpoint is a free no-op
  /// unless the store is active().
  CheckpointStore* checkpoint = nullptr;

  std::mutex windows_mutex;
  std::map<std::uint64_t, std::shared_ptr<WindowInfo>> windows;

  PhaseAlignment phase;

  int nranks = 0;
  std::uint64_t seed = 0;

  /// Set when any rank raised; blocking waits observe it and abort too, so a
  /// failing rank cannot deadlock the job.
  std::atomic<bool> aborted{false};

  Matcher& matcher(int world_rank) {
    return *matchers[static_cast<std::size_t>(world_rank)];
  }
  fabric::PayloadHome& payload_home(int world_rank) {
    return payload_homes[static_cast<std::size_t>(world_rank)];
  }
  RankRecords& records(int world_rank) {
    return rank_records[static_cast<std::size_t>(world_rank)];
  }
  /// True while the fabric's record pass runs: inter-host HCA payloads go
  /// to RankRecords::flows.
  bool record_flows() const { return fabric != nullptr && congestion == nullptr; }
};

}  // namespace cbmpi::mpi
