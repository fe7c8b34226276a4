// SHM channel: user-space shared-memory communication between co-resident
// processes (double copy through a length queue).
//
// Eager protocol: the sender copies the message into a shared queue and the
// receiver copies it out. The *cost model* is MVAPICH2's per-pair length
// queue of SMPI_LENGTH_QUEUE bytes. A message's real bytes are copied once,
// into its own block, as an HCA eager message's are; a collective's
// exchange block is copied once too, by its reader, straight from the
// sender's buffer. Both are priced as the double copy. Every eager transfer
// re-checks that both processes share the host and its IPC namespace
// (check_peers) — the enforcement point for the paper's namespace-sharing
// precondition. Cost model highlights:
//   * each message pays a fixed cell overhead on both sides;
//   * the sender pays a stall penalty inversely proportional to the number of
//     queue cells (small SMPI_LENGTH_QUEUE => frequent flow-control stalls);
//   * queues larger than the LLC-friendly size pay a cache-miss derate —
//     together these give the Fig. 7(b) optimum at 128 K;
//   * the double copy halves streaming bandwidth (both copies share the
//     memory bus), partially recovered by pipelining overlap.
#pragma once

#include "fabric/channel_costs.hpp"
#include "fabric/tuning.hpp"
#include "osl/process.hpp"
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

  /// Throws cbmpi::Error unless both processes share an IPC namespace on the
  /// same host (the caller is expected to have selected channels correctly).
  void check_peers(const osl::SimProcess& sender, const osl::SimProcess& receiver) const;

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
