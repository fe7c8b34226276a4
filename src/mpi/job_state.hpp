// Internal per-job shared state: channels, selector, matchers, profiles.
//
// Created by the runtime before any rank starts; immutable topology-wise
// while the job runs. Matchers and profiles are per-rank; channels and the
// selector are shared (internally synchronized where needed).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "fabric/cma_channel.hpp"
#include "fabric/hca_channel.hpp"
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

  std::vector<std::unique_ptr<Matcher>> matchers;   // one per world rank
  std::vector<prof::RankProfile> rank_profiles;     // one per world rank

  sim::TraceRecorder* trace = nullptr;              // optional, may be null

  /// Fabric model (all null under FabricModel::Ideal — the flat cost model).
  /// `net_log` is set only during the record pass, `congestion` only during
  /// the apply pass; `rank_phys_host` maps each rank to its cluster-wide
  /// host id and is filled whenever a fabric is attached.
  const net::Fabric* fabric = nullptr;
  net::FlowLog* net_log = nullptr;
  const net::CongestionMap* congestion = nullptr;
  std::vector<int> rank_phys_host;
  bool net_probe = false;  ///< true while the record pass runs

  /// Observability (JobConfig::observe): both null when disabled, so hot
  /// paths pay a single pointer test. Metrics handles are resolved once per
  /// engine; spans carry virtual-time intervals only.
  obs::MetricsRegistry* metrics = nullptr;
  obs::SpanRecorder* spans = nullptr;

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
  prof::RankProfile& rank_profile(int world_rank) {
    return rank_profiles[static_cast<std::size_t>(world_rank)];
  }
};

}  // namespace cbmpi::mpi
