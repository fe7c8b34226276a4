#include "fabric/hca_channel.hpp"

#include <algorithm>

namespace cbmpi::fabric {

BytesPerMicro HcaChannel::injection_bw(bool loopback, bool sriov) const {
  const BytesPerMicro base =
      loopback ? profile_->hca_loopback_bw : profile_->hca_link_bw;
  return sriov ? base * profile_->sriov_bw_derate : base;
}

Micros HcaChannel::control_latency(bool loopback) const {
  const auto& p = *profile_;
  return loopback ? p.hca_loopback_latency
                  : p.hca_wire_latency + p.hca_switch_latency;
}

Micros HcaChannel::delivery_latency(bool loopback,
                                    const net::TransferCtx* ctx) const {
  if (routed(loopback, ctx))
    return fabric_->path_latency(ctx->src_host, ctx->dst_host);
  return control_latency(loopback);
}

BytesPerMicro HcaChannel::payload_bw(bool loopback, bool sriov,
                                     const net::TransferCtx* ctx) const {
  if (routed(loopback, ctx))
    return fabric_->flow_rate_cap(ctx->src_host, ctx->dst_host, sriov);
  return injection_bw(loopback, sriov);
}

double HcaChannel::contention_factor(const net::TransferCtx* ctx) const {
  if (congestion_ == nullptr || ctx == nullptr) return 1.0;
  return congestion_->factor(ctx->key);
}

Micros HcaChannel::contention_stall(Bytes size, bool loopback, bool sriov,
                                    const net::TransferCtx* ctx) const {
  if (!routed(loopback, ctx)) return 0.0;
  const double factor = contention_factor(ctx);
  if (factor <= 1.0) return 0.0;
  return static_cast<double>(size) / payload_bw(loopback, sriov, ctx) *
         (factor - 1.0);
}

EagerCosts HcaChannel::eager_costs(Bytes size, bool loopback, bool sriov,
                                   const net::TransferCtx* ctx) const {
  const auto& p = *profile_;
  EagerCosts costs;
  costs.sender = p.hca_post_overhead +
                 static_cast<double>(size) / payload_bw(loopback, sriov, ctx) *
                     contention_factor(ctx);
  costs.delivery =
      delivery_latency(loopback, ctx) + (sriov ? p.sriov_latency_overhead : 0.0);
  // Receiver copies out of the eager ring into the user buffer. On the
  // loopback path the payload also re-crosses the host PCIe/NIC on ingress —
  // the same serialized resource — which is the heart of the intra-host
  // inter-container bottleneck.
  costs.receiver = 0.08 + static_cast<double>(size) / p.hca_eager_copy_bw;
  if (loopback)
    costs.receiver += static_cast<double>(size) / injection_bw(true, sriov);
  return costs;
}

RndvTimes HcaChannel::rndv_times(Bytes size, bool loopback, Micros rts_sent_at,
                                 Micros posted_at, Micros busy_until, bool sriov,
                                 const net::TransferCtx* ctx,
                                 const RegPlan& reg) const {
  const auto& p = *profile_;
  const Micros trip = p.hca_rndv_trip + delivery_latency(loopback, ctx) +
                      (sriov ? p.sriov_latency_overhead : 0.0);
  // Without the registration model nothing is pinned and the payload moves
  // as one chunk: the pin windows are empty and the loop below runs once.
  const bool model = tuning_.reg_model;
  const Bytes chunk = std::max<Bytes>(model ? tuning_.rndv_chunk : size, 1);
  const Micros hit_cost = p.hca_reg_cache_hit * tuning_.reg_cost_scale;
  const Bytes first = std::min<Bytes>(size, chunk);
  const Micros send_reg0 =
      model ? (reg.sender_hit ? hit_cost : reg_costs(first).reg) + reg.sender_extra
            : 0.0;
  const Micros recv_reg0 =
      model ? (reg.receiver_hit ? hit_cost : reg_costs(first).reg) +
                  reg.receiver_extra
            : 0.0;

  const Micros rts_arrive = rts_sent_at + trip;
  // The receiver pins its chunk-0 landing region before it can advertise the
  // destination in the CTS: that pin sits squarely on the critical path.
  RndvTimes times;
  times.recv_reg_begin = std::max(posted_at, rts_arrive);
  times.recv_reg_end = times.recv_reg_begin + recv_reg0;
  const Micros handshake_done = times.recv_reg_end + trip;
  // The sender pins chunk 0 concurrently with the handshake, starting the
  // moment it posted the RTS — a miss only shows when it outlasts the trips.
  const Micros sender_ready = std::max(handshake_done, rts_sent_at + send_reg0);
  // Pipelining: if the receiver was still moving the previous payload when
  // this handshake completed, the handshake cost is hidden behind it.
  const Micros cts_at_sender = busy_until > sender_ready
                                   ? busy_until + p.hca_rndv_pipeline_residue
                                   : sender_ready;

  const BytesPerMicro bw = payload_bw(loopback, sriov, ctx);
  const double cf = contention_factor(ctx);
  times.inject_begin = cts_at_sender + p.hca_post_overhead;
  times.reg_stall = recv_reg0 + std::max(0.0, sender_ready - handshake_done);

  // Chunked injection: while chunk k flows, both endpoints register chunk
  // k+1; each step costs the slower of the two. A cache hit on both sides
  // means everything is already pinned and the pipeline runs at pure RDMA
  // speed.
  Micros t = times.inject_begin;
  const bool pinned_ahead = reg.sender_hit && reg.receiver_hit;
  for (Bytes off = 0; off < size; off += chunk) {
    const Bytes len = std::min<Bytes>(chunk, size - off);
    const Micros xfer = static_cast<double>(len) / bw * cf;
    Micros next_reg = 0.0;
    if (!pinned_ahead && off + chunk < size)
      next_reg = reg_costs(std::min<Bytes>(chunk, size - off - chunk)).reg;
    t += std::max(xfer, next_reg);
    times.reg_stall += std::max(0.0, next_reg - xfer);
  }
  times.sender_done = t;

  // Loopback ingress re-crosses the host PCIe (see eager_costs); it is part
  // of the serialized receive path. The final control latency is pure wire
  // time and pipelines across back-to-back transfers.
  const Micros ingress =
      loopback ? static_cast<double>(size) / injection_bw(true, sriov) : 0.0;
  times.receiver_busy_until = times.sender_done + ingress;
  times.receiver_done = times.receiver_busy_until + delivery_latency(loopback, ctx);
  return times;
}

void HcaChannel::init_reg_cache(std::vector<Bytes> per_rank_capacity) {
  if (!tuning_.reg_model) return;
  reg_cache_ = std::make_unique<RegistrationCache>(std::move(per_rank_capacity));
}

RegCosts HcaChannel::reg_costs(Bytes size) const {
  const auto& p = *profile_;
  RegCosts costs;
  costs.reg = (p.hca_reg_base + static_cast<double>(size) / p.hca_reg_bw) *
              tuning_.reg_cost_scale;
  costs.dereg = (p.hca_dereg_base + static_cast<double>(size) / p.hca_dereg_bw) *
                tuning_.reg_cost_scale;
  return costs;
}

HcaChannel::RegLookup HcaChannel::reg_lookup(int rank, std::uint64_t buffer_id,
                                             Bytes size) {
  RegLookup out;
  if (!tuning_.reg_model || reg_cache_ == nullptr) return out;
  const auto& p = *profile_;
  const auto look = reg_cache_->lookup(rank, buffer_id, size);
  out.hit = look.hit;
  if (look.evictions > 0)
    out.extra += (p.hca_dereg_base * static_cast<double>(look.evictions) +
                  static_cast<double>(look.evicted_bytes) / p.hca_dereg_bw) *
                 tuning_.reg_cost_scale;
  // A buffer too large to cache is unpinned right after the transfer; the
  // dereg is CPU work of the same rendezvous, charged into its reg window.
  if (!look.cached) out.extra += reg_costs(size).dereg;
  return out;
}

RegCacheStats HcaChannel::reg_cache_stats() const {
  RegCacheStats stats;
  if (!tuning_.reg_model || reg_cache_ == nullptr) return stats;
  stats = reg_cache_->stats();
  stats.enabled = true;
  return stats;
}

OneSidedCosts HcaChannel::one_sided_costs(Bytes size, bool loopback, bool sriov,
                                          const net::TransferCtx* ctx) const {
  // One-sided ops take the routed latency and static VF-capped bandwidth but
  // are not fed through the contention engine (no per-op flow identity in
  // the window protocol); documented limitation of the fabric model.
  const auto& p = *profile_;
  const BytesPerMicro bw = payload_bw(loopback, sriov, ctx);
  OneSidedCosts costs;
  costs.gap = std::max(p.hca_pipelined_gap, static_cast<double>(size) / bw);
  costs.latency = p.hca_post_overhead + static_cast<double>(size) / bw +
                  delivery_latency(loopback, ctx) +
                  (sriov ? p.sriov_latency_overhead : 0.0);
  return costs;
}

}  // namespace cbmpi::fabric
