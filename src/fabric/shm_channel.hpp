// SHM channel: user-space shared-memory communication between co-resident
// processes (double copy through a length queue).
//
// Eager protocol: the sender copies the message into a shared queue and the
// receiver copies it out. The *cost model* is MVAPICH2's per-pair length
// queue of SMPI_LENGTH_QUEUE bytes; the real bytes pass through one staging
// segment per sending rank (a real osl::ShmSegment in the sender's IPC
// namespace, opened once by its engine), and every staged message re-checks
// that both processes share the host and its IPC namespace — the enforcement
// point for the paper's namespace-sharing precondition. Cost model
// highlights:
//   * each message pays a fixed cell overhead on both sides;
//   * the sender pays a stall penalty inversely proportional to the number of
//     queue cells (small SMPI_LENGTH_QUEUE => frequent flow-control stalls);
//   * queues larger than the LLC-friendly size pay a cache-miss derate —
//     together these give the Fig. 7(b) optimum at 128 K;
//   * the double copy halves streaming bandwidth (both copies share the
//     memory bus), partially recovered by pipelining overlap.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fabric/channel_costs.hpp"
#include "fabric/tuning.hpp"
#include "osl/process.hpp"
#include "osl/shm.hpp"
#include "topo/calibration.hpp"

namespace cbmpi::fabric {

class ShmChannel {
 public:
  ShmChannel(const topo::MachineProfile& profile, const TuningParams& tuning);

  EagerCosts eager_costs(Bytes size, bool same_socket) const;

  /// Rendezvous over SHM (used when CMA is disabled): pipelined chunked
  /// double copy. Returns completion times given RTS send time and the
  /// receiver's match time.
  RndvTimes rndv_times(Bytes size, bool same_socket, Micros rts_sent_at,
                       Micros match_at) const;

  OneSidedCosts one_sided_costs(Bytes size, bool same_socket) const;

  /// Latency of a small control message (RTS/CTS/FIN riding the queue).
  Micros control_latency(bool same_socket) const;

  /// Opens `sender`'s staging segment — SMPI_LENGTH_QUEUE bytes in its
  /// host's /dev/shm, in its own IPC namespace, named after `sender_rank` —
  /// or returns it if it already exists. One per sending rank; every
  /// message that rank sends over SHM passes through it.
  std::shared_ptr<osl::ShmSegment> open_queue(const osl::SimProcess& sender,
                                              int sender_rank) const;

  /// Stages `data` through `queue` (the sender's segment from open_queue)
  /// and appends it to `out`. Both processes must share an IPC namespace on
  /// the same host (throws cbmpi::Error otherwise — the caller is expected
  /// to have selected channels correctly).
  void stage(const osl::SimProcess& sender, const osl::SimProcess& receiver,
             osl::ShmSegment& queue, std::span<const std::byte> data,
             std::vector<std::byte>& out) const;

  /// Number of queue cells implied by the current tuning.
  double queue_cells() const;

 private:
  /// One-side copy cost of `size` bytes (cache-tiered, cache derate applied).
  Micros copy_cost(Bytes size, bool same_socket) const;

  const topo::MachineProfile* profile_;
  TuningParams tuning_;
  double cache_factor_ = 1.0;  ///< >= 1; derate from oversized queues
};

}  // namespace cbmpi::fabric
