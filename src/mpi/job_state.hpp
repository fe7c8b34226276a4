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
// The exchanges are the one piece of state ranks write for each other
// outside the matchers; each slot has one writer (see Exchange).
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
#include "mpi/coll/tuning_table.hpp"
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

/// Everything one rank records while the job runs. The three streams and
/// the message metrics stay empty unless the job turned them on
/// (JobState::record_trace, record_spans, record_flows()).
struct RankRecords {
  prof::RankProfile profile;
  std::vector<obs::Span> spans;          // JobConfig::observe
  /// JobConfig::observe: each send's size and rendezvous sends
  /// (Adi3Engine::send_block), and each receive's post-to-completion time in
  /// whole virtual microseconds (Adi3Engine::receive). run_job turns them
  /// into the adi3.* metrics at job end.
  obs::Histogram message_bytes;
  std::uint64_t rndv_sends = 0;
  obs::Histogram recv_latency_us;
  std::vector<sim::TraceEvent> trace;    // JobConfig::record_trace
  std::vector<net::FlowRecord> flows;    // the fabric's record pass
  /// One bit per world rank: the peers this rank opened an HCA queue pair
  /// to (Adi3Engine::connect_hca). Empty until the first one.
  std::vector<bool> hca_peers;
};

/// Out-of-band phase alignment (Adi3Engine::align_clocks, for
/// Process::sync_time and the checkpoint quiesce). Each rank arrives with its
/// clock; the last arrival publishes the max, bumps the generation and pokes
/// every matcher, and the others wait in Adi3Engine::block_until until the
/// generation moves.
struct PhaseAlignment {
  std::mutex mutex;
  int arrived = 0;
  Micros running_max = 0.0;
  Micros published_max = 0.0;
  std::uint64_t generation = 0;
};

/// One communicator's exchange in host memory, shared by its ranks: every
/// collective moves its blocks through it. Each rank owns one slot and is
/// its only writer: it publishes its blocks there as entries (an envelope
/// and where the bytes sit), and peers copy each block out. A step's eager
/// block is copied once into its entry at publish, the copy a message block
/// made, so its owner may rewrite or free the range at once. A ring or
/// pairwise block (Step::in_place), an alltoall block and a rendezvous block
/// stay in the owner's send buffer, and the owner leaves the call or phase
/// only once they have been read. An owner
/// rewrites its slot only when its readers_left is zero
/// (Adi3Engine::claim_slot), so no call overwrites a block still being read.
///
/// Two forms share the slots. The alltoall form (Adi3Engine::alltoall)
/// publishes one entry per peer, stores readers_left and calls, then bumps
/// `arrived`; a rank that sees `arrived` reach k * size() sees every slot of
/// call k. The step form (Adi3Engine::exchange_steps) publishes one entry
/// per step that sends, and `published` names its phase by tag: a reader's
/// k-th read from an owner in a phase takes the k-th entry that owner
/// addressed to it, the per-sender FIFO order of the message path.
/// Publishing is sequentially consistent, so an owner that sees readers_left
/// at zero sees every read of its slot done. The arrival that completes a
/// call pokes every other member's matcher, a publish pokes its reader's,
/// and the reader that takes readers_left to zero while the owner waits for
/// it (owner_waits), or that pulls a rendezvous block, pokes the owner's, so
/// every wait parks in Adi3Engine::block_until and loses no wake-up.
///
/// An owner that unwinds past its send buffers withdraws the slot's guard
/// first, and a reader copies only through the guard, which then refuses.
/// The counters readers write sit on lines of their own.
struct Exchange {
  /// One step of a collective, in comm ranks: `send` goes to `to`, and the
  /// block from `from` lands in `recv`; a step without a peer (-1) on one
  /// side only receives or only sends. The receive is posted before the
  /// send's clock advance, as a sendrecv posts it, unless `recv_after_send`
  /// (an isend, then a recv). `in_place`: an eager block stays in `send`,
  /// which every rank of the phase sends from and receives into (a ring or
  /// pairwise step), so waiting for its reader ends with the phase.
  struct Step {
    std::span<const std::byte> send{};
    int to = -1;
    std::span<std::byte> recv{};
    int from = -1;
    bool in_place = false;
    bool recv_after_send = false;
  };

  /// One published block: its envelope and its bytes, in the owner's send
  /// buffer or in `copy`.
  struct Entry {
    fabric::Envelope env;
    std::span<const std::byte> send;
    std::vector<std::byte> copy;
  };

  struct alignas(64) Slot {
    /// Alltoall calls this rank has arrived at: the one it is in, or last left.
    std::atomic<std::uint64_t> calls{0};
    /// Step form: the phase's tag << 32 | the entries it has published.
    std::atomic<std::uint64_t> published{0};
    /// The collective the owner is in (its CollectiveScope kind), set before
    /// the first publish of each call or phase.
    const char* kind = nullptr;
    /// Per comm rank (alltoall, its own unused) or in publish order (step
    /// form). Sized by claim_slot, so no entry moves while read.
    std::vector<Entry> entries;
    /// Reads of the blocks this rank published that are not done yet.
    alignas(64) std::atomic<int> readers_left{0};
    /// Set while the owner waits for readers_left to reach zero.
    std::atomic<bool> owner_waits{false};
    /// Peers copy the owner's blocks (Adi3Engine::read_entry) and scan its
    /// entries through it; the owner withdraws it before it unwinds past
    /// them, and drains it before it rewrites them.
    alignas(64) fabric::WithdrawGuard guard;
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
  int world(int comm_rank) const {
    return world_ranks[static_cast<std::size_t>(comm_rank)];
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

  /// The job's collective tuning table (JobConfig::coll_tuning) and its
  /// locality-shape key: the densest container packing on any host (1 =
  /// native). Every collective call selects its algorithm from them.
  coll::TuningTable coll_tuning;
  int coll_cph = 1;

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

  /// Observability (JobConfig::observe): ranks record spans and message
  /// metrics into their RankRecords, in virtual time only.
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

  /// One exchange per communicator id, made by its first caller.
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
