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
// The alltoall exchanges are the one piece of state ranks write for each
// other outside the matchers; each slot has one writer (see Exchange).
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/error.hpp"
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

/// One communicator's alltoall exchange (Adi3Engine::alltoall), shared by
/// its ranks. Each rank owns one slot and is its only writer: it stages its
/// outgoing blocks and their envelopes there and then arrives. Once every
/// rank has arrived, each one reads its own block out of every other slot
/// and counts itself off that slot's readers_left. A rank leaves only when
/// its own readers_left is zero, so no call overwrites a block that is still
/// being read, and the buffers are reused from call to call.
///
/// Publishing is sequentially consistent: a rank fills its slot, stores
/// readers_left and calls, then bumps `arrived`. A rank that sees `arrived`
/// reach k * size() therefore sees every slot of call k, and an owner that
/// sees readers_left at zero sees every read of its slot done. The arrival
/// that completes a call pokes every other member's matcher, and the reader
/// that takes a slot's readers_left to zero pokes its owner's, so every wait
/// parks in Adi3Engine::block_until and loses no wake-up.
struct Exchange {
  struct alignas(64) Slot {
    /// Calls this rank has arrived at: the one it is in, or last left.
    std::atomic<std::uint64_t> calls{0};
    /// Peers still reading this rank's blocks of its current call.
    std::atomic<int> readers_left{0};
    /// The eager blocks of the current call, packed in send order; a
    /// rendezvous block stays in the sender's buffer.
    std::vector<std::byte> staging;
    /// Per comm rank (its own unused): the envelope of its block and, for an
    /// eager one, where in `staging` its bytes start.
    std::vector<fabric::Envelope> envelopes;
    std::vector<std::size_t> staged_at;
  };

  Exchange(std::uint64_t id, std::vector<int> ranks)
      : comm_id(id),
        world_ranks(std::move(ranks)),
        slots(std::make_unique<Slot[]>(world_ranks.size())) {}

  int size() const { return static_cast<int>(world_ranks.size()); }
  Slot& slot(int comm_rank) { return slots[static_cast<std::size_t>(comm_rank)]; }
  const Slot& slot(int comm_rank) const {
    return slots[static_cast<std::size_t>(comm_rank)];
  }

  const std::uint64_t comm_id;
  const std::vector<int> world_ranks;  ///< comm rank -> world rank
  /// Arrivals over every call: call k is complete once this reaches k * size().
  alignas(64) std::atomic<std::uint64_t> arrived{0};
  std::unique_ptr<Slot[]> slots;
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

  /// One alltoall exchange per communicator id, made by its first caller.
  /// Comm ids are equal on every member and each Communicator keeps the
  /// pointer, so the lock is taken once per rank and communicator.
  std::mutex exchanges_mutex;
  std::map<std::uint64_t, std::unique_ptr<Exchange>> exchanges;

  Exchange& exchange(std::uint64_t comm_id, const std::vector<int>& world_ranks) {
    const std::scoped_lock lock(exchanges_mutex);
    auto& entry = exchanges[comm_id];
    if (entry == nullptr) entry = std::make_unique<Exchange>(comm_id, world_ranks);
    CBMPI_REQUIRE(entry->world_ranks == world_ranks,
                  "communicators of different groups share id ", comm_id);
    return *entry;
  }

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
