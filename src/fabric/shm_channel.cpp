#include "fabric/shm_channel.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace cbmpi::fabric {

ShmChannel::ShmChannel(const topo::MachineProfile& profile, const TuningParams& tuning)
    : profile_(&profile), tuning_(tuning) {
  CBMPI_REQUIRE(tuning_.smp_eager_size > 0, "SMP_EAGER_SIZE must be positive");
  CBMPI_REQUIRE(tuning_.smpi_length_queue > 0, "SMPI_LENGTH_QUEUE must be positive");
  if (tuning_.smpi_length_queue > profile.llc_friendly_bytes) {
    const double doublings =
        std::log2(static_cast<double>(tuning_.smpi_length_queue) /
                  static_cast<double>(profile.llc_friendly_bytes));
    cache_factor_ = 1.0 + profile.shm_cache_derate * doublings;
  }
}

double ShmChannel::queue_cells() const {
  return std::max(1.0, static_cast<double>(tuning_.smpi_length_queue) /
                           static_cast<double>(tuning_.smp_eager_size));
}

Micros ShmChannel::copy_cost(Bytes size, bool same_socket) const {
  const auto& p = *profile_;
  BytesPerMicro bw = same_socket ? p.memcpy_bw_intra_socket : p.memcpy_bw_inter_socket;
  if (size < p.memcpy_cached_limit) {
    bw *= p.memcpy_cached_boost;  // L2-resident copies fly
  } else {
    bw /= p.shm_bus_contention;  // both copy sides share the memory bus
  }
  return static_cast<double>(size) / bw * cache_factor_;
}

EagerCosts ShmChannel::eager_costs(Bytes size, bool same_socket) const {
  const auto& p = *profile_;
  EagerCosts costs;
  const double cells = queue_cells();
  const Micros stall = p.shm_stall_penalty / (cells * cells);
  const Micros cell = p.shm_cell_overhead * cache_factor_;
  costs.sender = cell + stall + copy_cost(size, same_socket);
  costs.delivery = p.shm_base_latency + (same_socket ? 0.0 : p.inter_socket_hop);
  costs.receiver = cell + copy_cost(size, same_socket);
  return costs;
}

Micros ShmChannel::control_latency(bool same_socket) const {
  const auto& p = *profile_;
  // A header-only message: cell overhead + queue flag propagation.
  return p.shm_cell_overhead + p.shm_base_latency +
         (same_socket ? 0.0 : p.inter_socket_hop);
}

RndvTimes ShmChannel::rndv_times(Bytes size, bool same_socket, Micros rts_sent_at,
                                 Micros match_at) const {
  const auto& p = *profile_;
  const Micros ctrl = control_latency(same_socket);
  const Micros start = std::max(match_at, rts_sent_at + ctrl);

  // Chunked double copy: both copies stream through the memory bus (payloads
  // this large do not stay cache-resident, so no cached-copy boost), each
  // side effectively sees half the copy bandwidth, partially recovered by
  // chunk-level pipelining (shm_copy_overlap).
  const double chunks = std::max(
      1.0, static_cast<double>(size) / static_cast<double>(tuning_.smpi_length_queue));
  const BytesPerMicro stream_bw =
      (same_socket ? p.memcpy_bw_intra_socket : p.memcpy_bw_inter_socket);
  const Micros per_copy = static_cast<double>(size) / stream_bw * cache_factor_;
  const Micros xfer =
      2.0 * per_copy / p.shm_copy_overlap + chunks * 2.0 * p.shm_cell_overhead;

  RndvTimes times;
  times.receiver_done = start + xfer;
  times.sender_done = times.receiver_done + ctrl;  // FIN back to the sender
  return times;
}

OneSidedCosts ShmChannel::one_sided_costs(Bytes size, bool same_socket) const {
  const auto& p = *profile_;
  OneSidedCosts costs;
  costs.gap = std::max(p.shm_pipelined_gap, copy_cost(size, same_socket));
  costs.latency = p.shm_cell_overhead + p.shm_base_latency +
                  copy_cost(size, same_socket) +
                  (same_socket ? 0.0 : p.inter_socket_hop);
  return costs;
}

std::shared_ptr<osl::ShmSegment> ShmChannel::open_queue(const osl::SimProcess& sender,
                                                        int sender_rank) const {
  return sender.host().shm().open(sender.namespaces().get(osl::NamespaceType::Ipc),
                                  "cbmpi_shmq_" + std::to_string(sender_rank),
                                  tuning_.smpi_length_queue);
}

void ShmChannel::stage(const osl::SimProcess& sender, const osl::SimProcess& receiver,
                       osl::ShmSegment& queue, std::span<const std::byte> data,
                       std::vector<std::byte>& out) const {
  CBMPI_REQUIRE(sender.same_host(receiver),
                "SHM channel selected across hosts — selector bug");
  CBMPI_REQUIRE(sender.namespaces().shares(osl::NamespaceType::Ipc, receiver.namespaces()),
                "SHM channel requires a shared IPC namespace (containers must be "
                "started with --ipc=host)");

  // Stage through the bounded queue chunk by chunk: write in, read out. The
  // double copy is real; only its *duration* comes from the cost model.
  const std::size_t prior = out.size();
  out.resize(prior + data.size());
  std::span<std::byte> dst(out.data() + prior, data.size());
  const Bytes chunk_max = tuning_.smpi_length_queue;
  Bytes offset = 0;
  while (offset < data.size()) {
    const Bytes chunk = std::min<Bytes>(chunk_max, data.size() - offset);
    queue.write(0, data.subspan(offset, chunk));
    queue.read(0, dst.subspan(offset, chunk));
    offset += chunk;
  }
}

}  // namespace cbmpi::fabric
