// HCA channel: InfiniBand verbs-level communication.
//
// Paths:
//   * inter-host — NIC injection, wire, one switch hop;
//   * intra-host loopback — the path the default (hostname-based) runtime
//     forces co-resident containers onto: payload crosses PCIe down to the
//     NIC and back up, so both latency and bandwidth are far worse than SHM.
//
// Protocols:
//   * eager (size < MV2_IBA_EAGER_THRESHOLD): sender injects into the
//     receiver's eager ring, receiver pays a copy into the user buffer;
//   * rendezvous: RTS/CTS handshake, then zero-copy RDMA of the payload.
// The threshold trade-off (receiver copy grows with size vs. two extra
// handshake trips) is what produces the Fig. 7(c) optimum near 17 K.
//
// Queue pairs are created lazily per connected process pair, mirroring
// MVAPICH2's on-demand connection management. Each rank records the peers it
// opened one to (mpi::RankRecords::hca_peers) and the runtime counts the
// distinct pairs at job end, so the channel itself keeps no connection state.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fabric/channel_costs.hpp"
#include "fabric/reg_cache.hpp"
#include "fabric/tuning.hpp"
#include "net/fabric.hpp"
#include "topo/calibration.hpp"

namespace cbmpi::fabric {

class HcaChannel {
 public:
  HcaChannel(const topo::MachineProfile& profile, const TuningParams& tuning)
      : profile_(&profile), tuning_(tuning) {}

  /// Routes subsequent inter-host cost queries that carry a TransferCtx
  /// through the fabric model: delivery latency becomes the routed path
  /// latency, bandwidth the VF-capped narrowest link, and — when `congestion`
  /// is non-null (apply pass) — each transfer's bandwidth term is stretched
  /// by its settled contention factor. Queries without a ctx (estimates,
  /// loopback, Ideal model) keep the flat cost model bit-for-bit.
  void attach_fabric(const net::Fabric* fabric,
                     const net::CongestionMap* congestion) {
    fabric_ = fabric;
    congestion_ = congestion;
  }

  EagerCosts eager_costs(Bytes size, bool loopback, bool sriov = false,
                         const net::TransferCtx* ctx = nullptr) const;

  /// `posted_at` is when the receive was posted; `busy_until` is when the
  /// receiver finished its previous incoming transfer. When the receiver is
  /// transfer-bound (busy_until dominates) the RTS/CTS handshake of this
  /// message overlapped with the previous transfer and only a small residue
  /// remains on the critical path.
  ///
  /// Under the registration model (TuningParams::reg_model) both endpoints
  /// pin their buffers per `reg`, chunked at TuningParams::rndv_chunk so
  /// registration of chunk k+1 overlaps the RDMA of chunk k. The receiver's
  /// chunk-0 pin delays the CTS; the sender's overlaps the handshake. With
  /// the model off `reg` is ignored, both pin windows are empty and the
  /// payload moves as one chunk — the same timeline, nothing pinned.
  RndvTimes rndv_times(Bytes size, bool loopback, Micros rts_sent_at,
                       Micros posted_at, Micros busy_until, bool sriov,
                       const net::TransferCtx* ctx, const RegPlan& reg) const;

  OneSidedCosts one_sided_costs(Bytes size, bool loopback, bool sriov = false,
                                const net::TransferCtx* ctx = nullptr) const;

  /// Wire time the settled contention factor adds to `size` bytes on this
  /// routed path vs. the same path uncontended. Purely observational (feeds
  /// the Proto span `stall` field for src/obs/analysis); zero without a
  /// routed ctx or under a factor of 1.
  Micros contention_stall(Bytes size, bool loopback, bool sriov,
                          const net::TransferCtx* ctx) const;

  /// --- pin-down registration model (TuningParams::reg_model) --------------

  bool reg_model() const { return tuning_.reg_model; }

  /// Creates the per-rank pin-down cache; the runtime calls it once before
  /// any rank starts, with capacities already scaled by each host's
  /// SR-IOV VF share. No-op cost-wise when the model is off.
  void init_reg_cache(std::vector<Bytes> per_rank_capacity);

  /// Explicit reg/dereg cost of pinning `size` bytes (profile terms scaled
  /// by TuningParams::reg_cost_scale).
  RegCosts reg_costs(Bytes size) const;

  /// Cache consultation for one endpoint of a rendezvous: mutates `rank`'s
  /// shard (only that rank's fiber may call it) and converts any eviction
  /// or transient-unpin work into a virtual-time charge for the RegPlan.
  struct RegLookup {
    bool hit = false;
    Micros extra = 0.0;  ///< dereg time folded into the reg window
  };
  RegLookup reg_lookup(int rank, std::uint64_t buffer_id, Bytes size);

  const RegistrationCache* reg_cache() const { return reg_cache_.get(); }
  /// Pre-start warming hook (JobConfig::reg_warm); call only between
  /// init_reg_cache() and the first lookup by a rank fiber.
  RegistrationCache* mutable_reg_cache() { return reg_cache_.get(); }

  /// Job-level outcome; `enabled` is false when the model is off.
  RegCacheStats reg_cache_stats() const;

  /// One-way latency of a header-only control message.
  Micros control_latency(bool loopback) const;

 private:
  BytesPerMicro injection_bw(bool loopback, bool sriov) const;
  /// Fabric-aware variants: fall back to the flat model without a ctx.
  bool routed(bool loopback, const net::TransferCtx* ctx) const {
    return fabric_ != nullptr && ctx != nullptr && !loopback &&
           ctx->src_host != ctx->dst_host;
  }
  Micros delivery_latency(bool loopback, const net::TransferCtx* ctx) const;
  BytesPerMicro payload_bw(bool loopback, bool sriov,
                           const net::TransferCtx* ctx) const;
  double contention_factor(const net::TransferCtx* ctx) const;

  const topo::MachineProfile* profile_;
  TuningParams tuning_;
  const net::Fabric* fabric_ = nullptr;
  const net::CongestionMap* congestion_ = nullptr;
  std::unique_ptr<RegistrationCache> reg_cache_;
};

}  // namespace cbmpi::fabric
