#include "migrate/engine.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "topo/hardware.hpp"

namespace cbmpi::migrate {

namespace {

/// Flat-model time for one image chunk over the HCA path (two switch hops,
/// the calibration default when no fabric topology is attached).
Micros flat_transfer_us(const topo::MachineProfile& profile, Bytes bytes) {
  return profile.hca_post_overhead + profile.hca_wire_latency +
         2.0 * profile.hca_switch_latency +
         static_cast<double>(bytes) / profile.hca_link_bw;
}

obs::Span shift_span(obs::Span span, Micros offset) {
  span.begin += offset;
  span.end += offset;
  if (span.posted_at >= 0.0) span.posted_at += offset;
  if (span.sent_at >= 0.0) span.sent_at += offset;
  if (span.avail_at >= 0.0) span.avail_at += offset;
  return span;
}

/// Counters sum, gauges take the resumed segment's value (they are
/// last-state-wins by nature), histograms merge bucket-wise. Rebuilding
/// through std::map keeps every vector name-sorted, as snapshot() does.
obs::MetricsSnapshot merge_metrics(const obs::MetricsSnapshot& a,
                                   const obs::MetricsSnapshot& b) {
  std::map<std::string, std::uint64_t> counters(a.counters.begin(),
                                                a.counters.end());
  for (const auto& [name, value] : b.counters) counters[name] += value;
  std::map<std::string, double> gauges(a.gauges.begin(), a.gauges.end());
  for (const auto& [name, value] : b.gauges) gauges[name] = value;
  std::map<std::string, obs::HistogramSnapshot> histograms(
      a.histograms.begin(), a.histograms.end());
  for (const auto& [name, hist] : b.histograms) {
    auto [it, fresh] = histograms.emplace(name, hist);
    if (fresh) continue;
    auto& merged = it->second;
    merged.count += hist.count;
    merged.sum += hist.sum;
    std::map<std::uint64_t, std::uint64_t> buckets;
    for (const auto& bucket : merged.buckets) buckets[bucket.upper] += bucket.count;
    for (const auto& bucket : hist.buckets) buckets[bucket.upper] += bucket.count;
    merged.buckets.clear();
    for (const auto& [upper, count] : buckets)
      merged.buckets.push_back({upper, count});
  }
  obs::MetricsSnapshot out;
  out.counters.assign(counters.begin(), counters.end());
  out.gauges.assign(gauges.begin(), gauges.end());
  out.histograms.assign(histograms.begin(), histograms.end());
  return out;
}

faults::FaultReport merge_faults(const faults::FaultReport& a,
                                 const faults::FaultReport& b, Micros offset) {
  faults::FaultReport out = a;
  for (faults::FaultEvent event : b.injected) {
    if (event.at > 0.0) event.at += offset;
    out.injected.push_back(std::move(event));
  }
  out.degradations.insert(out.degradations.end(), b.degradations.begin(),
                          b.degradations.end());
  out.shm_retries += b.shm_retries;
  out.cma_retries += b.cma_retries;
  out.hca_retries += b.hca_retries;
  out.time_lost += b.time_lost;
  return out;
}

}  // namespace

CostEstimate Engine::estimate(const topo::MachineProfile& profile,
                              const fabric::TuningParams& tuning,
                              const CostModel& cost, Bytes image_bytes,
                              int moved_ranks, const TrafficForecast& forecast) {
  CBMPI_REQUIRE(moved_ranks > 0, "a move needs at least one rank");
  CBMPI_REQUIRE(cost.precopy_rounds >= 0, "precopy_rounds must be >= 0, got ",
                cost.precopy_rounds);
  CBMPI_REQUIRE(cost.dirty_rate >= 0.0 && cost.dirty_rate <= 1.0,
                "dirty_rate must be in [0, 1], got ", cost.dirty_rate);
  CostEstimate out;
  out.image_bytes = image_bytes;
  out.precopy_rounds = cost.precopy_rounds;
  // Pre-copy: round i re-sends the image fraction dirtied during round i-1;
  // those copies overlap execution, only the residue stops the job.
  double dirty = 1.0;
  for (int i = 0; i < cost.precopy_rounds; ++i) {
    out.precopy_us += flat_transfer_us(
        profile, static_cast<Bytes>(static_cast<double>(image_bytes) * dirty));
    dirty *= cost.dirty_rate;
  }
  out.stop_copy_bytes =
      static_cast<Bytes>(static_cast<double>(image_bytes) * dirty);
  const Bytes per_rank =
      image_bytes / static_cast<Bytes>(std::max(moved_ranks, 1));
  // Pause = snapshot write + stop-and-copy + snapshot read on the far side.
  out.pause_us = 2.0 * mpi::CheckpointStore::snapshot_cost(per_rank) +
                 flat_transfer_us(profile, out.stop_copy_bytes);
  if (tuning.reg_model)
    out.rereg_us = static_cast<double>(moved_ranks) * tuning.reg_cost_scale *
                   (profile.hca_reg_base +
                    static_cast<double>(per_rank) / profile.hca_reg_bw);
  out.total_us = out.pause_us + out.rereg_us;
  // Locality win: every message a formerly-remote pair still exchanges saves
  // the HCA-vs-SHM latency gap, every byte the bandwidth gap.
  const Micros msg_delta = profile.hca_post_overhead + profile.hca_wire_latency +
                           2.0 * profile.hca_switch_latency -
                           profile.shm_base_latency;
  const double byte_delta =
      1.0 / profile.hca_link_bw - 1.0 / profile.memcpy_bw_intra_socket;
  out.predicted_win_us =
      static_cast<double>(forecast.messages) * std::max(msg_delta, 0.0) +
      static_cast<double>(forecast.bytes) * std::max(byte_delta, 0.0);
  out.worthwhile = out.predicted_win_us > out.total_us * cost.cost_margin;
  return out;
}

mpi::JobResult Engine::run(const mpi::JobConfig& config,
                           const std::function<void(mpi::Process&)>& body,
                           const MigrationPlan& plan) {
  const MoveSpec& move = plan.move;
  CBMPI_REQUIRE(config.stop_at == 0.0 && config.reg_warm.empty(),
                "migration engines cannot nest");
  CBMPI_REQUIRE(plan.epoch > 0.0, "quiesce epoch must be positive, got ",
                plan.epoch);
  CBMPI_REQUIRE(!move.ranks.empty(), "a migration moves at least one rank");
  CBMPI_REQUIRE(move.dst_cores.size() == move.ranks.size(),
                "need one destination core per moved rank (",
                move.dst_cores.size(), " cores for ", move.ranks.size(),
                " ranks)");

  // --- segment 1: original placement, stopping at the epoch -----------------
  mpi::JobConfig seg1_config = config;
  seg1_config.stop_at = plan.epoch;
  // A crash before the stop propagates unchanged: the scheduler's normal
  // requeue path handles it and may re-propose the move on the next attempt.
  mpi::JobResult seg1 = mpi::run_job(seg1_config, body);

  MigrationReport report;
  report.enabled = true;
  report.policy = plan.policy;
  report.proposed = 1;
  report.predicted_win_us = plan.estimate.predicted_win_us;
  report.predicted_cost_us = plan.estimate.total_us;

  if (!seg1.stop) {
    // The job finished before the epoch (or its body never checkpoints):
    // there was nothing left to migrate.
    seg1.migration = std::move(report);
    return seg1;
  }
  mpi::StopImage image = std::move(*seg1.stop);

  // --- mutate the placement: move the container ------------------------------
  const int hosts_needed = config.placement ? config.placement->num_hosts()
                                            : config.deployment.num_hosts;
  const container::JobPlacement base =
      config.placement
          ? *config.placement
          : container::plan_deployment(
                topo::ClusterBuilder()
                    .hosts(std::max(config.cluster_hosts, hosts_needed))
                    .build(),
                config.deployment);

  CBMPI_REQUIRE(move.src_host >= 0 && move.src_host < base.num_hosts(),
                "move source host ", move.src_host, " outside the placement");
  CBMPI_REQUIRE(
      move.container_index >= 0 &&
          move.container_index < base.containers_on(move.src_host),
      "move source container ", move.container_index, " not on host ",
      move.src_host, " (native ranks cannot migrate)");
  for (const int r : move.ranks) {
    CBMPI_REQUIRE(r >= 0 && r < base.total_ranks(), "moved rank ", r,
                  " outside the job");
    const auto& slot = base.slots[static_cast<std::size_t>(r)];
    CBMPI_REQUIRE(slot.host == move.src_host &&
                      slot.container_index == move.container_index,
                  "rank ", r, " is not in the moved container");
  }

  // Destination: an existing local host when the physical id is already part
  // of the job, else a fresh local id appended to the placement.
  std::vector<int> physical = config.physical_hosts;
  auto phys_of = [&](int local) {
    return physical.empty() ? local
                            : physical[static_cast<std::size_t>(local)];
  };
  const int src_phys = phys_of(move.src_host);
  CBMPI_REQUIRE(move.dst_phys_host >= 0 && move.dst_phys_host != src_phys,
                "move destination must be a different physical host");
  int dst_local = -1;
  for (int h = 0; h < base.num_hosts(); ++h)
    if (phys_of(h) == move.dst_phys_host) dst_local = h;
  container::JobPlacement mutated = base;
  if (dst_local < 0) {
    if (physical.empty()) {
      // Standalone job: local ids are physical ids, so growing the placement
      // up to the destination id keeps that identity.
      while (static_cast<int>(mutated.host_cpusets.size()) <=
             move.dst_phys_host)
        mutated.host_cpusets.emplace_back();
      dst_local = move.dst_phys_host;
    } else {
      dst_local = static_cast<int>(mutated.host_cpusets.size());
      mutated.host_cpusets.emplace_back();
      physical.push_back(move.dst_phys_host);
    }
  }

  auto& src_containers =
      mutated.host_cpusets[static_cast<std::size_t>(move.src_host)];
  CBMPI_REQUIRE(move.dst_cores.size() ==
                    src_containers[static_cast<std::size_t>(move.container_index)]
                        .size(),
                "destination cpuset size must match the moved container's");
  src_containers.erase(src_containers.begin() + move.container_index);
  mutated.host_cpusets[static_cast<std::size_t>(dst_local)].push_back(
      move.dst_cores);
  const int new_container =
      static_cast<int>(
          mutated.host_cpusets[static_cast<std::size_t>(dst_local)].size()) -
      1;
  const int cores_per_socket = plan.cores_per_socket > 0
                                   ? plan.cores_per_socket
                                   : topo::HostShape{}.cores_per_socket;
  for (auto& slot : mutated.slots)
    if (slot.host == move.src_host && slot.container_index > move.container_index)
      --slot.container_index;
  for (const int r : move.ranks) {
    auto& slot = mutated.slots[static_cast<std::size_t>(r)];
    slot.host = dst_local;
    slot.container_index = new_container;
    const int flat = move.dst_cores[static_cast<std::size_t>(slot.core_slot)];
    slot.core = topo::CoreId{flat / cores_per_socket, flat % cores_per_socket};
  }

  // --- the stop-and-copy pause ----------------------------------------------
  const Bytes image_bytes = image.checkpoint.total_bytes();
  double dirty = 1.0;
  for (int i = 0; i < plan.cost.precopy_rounds; ++i) dirty *= plan.cost.dirty_rate;
  const Bytes stop_copy_bytes =
      static_cast<Bytes>(static_cast<double>(image_bytes) * dirty);
  Micros transfer_pause;
  std::unique_ptr<net::Fabric> fabric;
  if (config.fabric.enabled()) {
    // Charge the image over the modelled fabric: the routed path's latency
    // plus its (VF-capped) uncontended rate between the two hosts.
    net::FabricConfig fabric_config = config.fabric;
    if (fabric_config.hosts <= 0)
      fabric_config.hosts = std::max(src_phys, move.dst_phys_host) + 1;
    std::vector<int> vfs(static_cast<std::size_t>(fabric_config.hosts), 1);
    fabric = std::make_unique<net::Fabric>(fabric_config, config.profile,
                                           std::move(vfs));
    transfer_pause =
        fabric->path_latency(src_phys, move.dst_phys_host) +
        static_cast<double>(stop_copy_bytes) /
            fabric->flow_rate_cap(src_phys, move.dst_phys_host, /*sriov=*/true);
  } else {
    transfer_pause = flat_transfer_us(config.profile, stop_copy_bytes);
  }
  const Micros offset = seg1.job_time + transfer_pause;

  // --- segment 2: resume on the destination ---------------------------------
  mpi::JobConfig seg2_config = config;
  seg2_config.placement = mutated;
  seg2_config.physical_hosts = physical;
  seg2_config.cluster_hosts =
      std::max(config.cluster_hosts, mutated.num_hosts());
  MigrationRecord record;
  record.move = move;
  record.cost = plan.estimate;
  record.quiesce_round = image.checkpoint.round;
  record.quiesce_at = image.checkpoint.at;
  record.resume_at = offset;
  record.snapshot_bytes = image_bytes;
  record.drained_msgs = image.pending_msgs;
  // The moved ranks' registrations die with the source container; their cold
  // re-registration on the destination is the blame delta the analyzer
  // attributes to the migration. Every other rank resumes warm.
  for (const int r : move.ranks) {
    if (r >= static_cast<int>(image.reg_entries.size())) continue;
    auto& entries = image.reg_entries[static_cast<std::size_t>(r)];
    record.invalidated_reg_entries += entries.size();
    for (const auto& entry : entries) record.invalidated_reg_bytes += entry.bytes;
    entries.clear();
  }
  seg2_config.reg_warm = std::move(image.reg_entries);
  const auto snapshot =
      std::make_shared<const mpi::CheckpointData>(std::move(image.checkpoint));
  seg2_config.restore = snapshot;

  mpi::JobResult seg2;
  try {
    seg2 = mpi::run_job(seg2_config, body);
  } catch (const mpi::JobCrashedError& e) {
    // Re-time the crash onto the stitched timeline before rethrowing, so the
    // scheduler's lost-work accounting spans both segments.
    faults::CrashInfo info = e.info();
    info.at += offset;
    if (info.last_checkpoint > 0.0) info.last_checkpoint += offset;
    std::ostringstream os;
    os << e.what() << " (after live migration at t=" << offset << " us)";
    throw mpi::JobCrashedError(os.str(), info, e.checkpoint(),
                               e.checkpoints_committed());
  }

  // --- stitch the two segments into one timeline -----------------------------
  mpi::JobResult out;
  out.job_time = offset + seg2.job_time;
  out.rank_times.reserve(seg2.rank_times.size());
  for (const Micros t : seg2.rank_times) out.rank_times.push_back(offset + t);
  out.profile = seg1.profile;
  out.profile.total.merge(seg2.profile.total);
  for (std::size_t i = 0; i < move.ranks.size(); ++i)
    out.profile.total.add_recovery(transfer_pause);
  out.hca_queue_pairs = seg2.hca_queue_pairs;
  out.trace = std::move(seg1.trace);
  for (sim::TraceEvent event : seg2.trace) {
    event.at += offset;
    out.trace.push_back(std::move(event));
  }
  std::ranges::sort(out.trace, sim::trace_less);
  out.fault_report = merge_faults(seg1.fault_report, seg2.fault_report, offset);
  out.net = seg2.net;
  if (seg1.net.enabled) {
    out.net.transfers += seg1.net.transfers;
    out.net.congested_transfers += seg1.net.congested_transfers;
    out.net.max_factor = std::max(out.net.max_factor, seg1.net.max_factor);
    out.net.max_peak_util = std::max(out.net.max_peak_util, seg1.net.max_peak_util);
  }
  out.reg_cache = seg2.reg_cache;
  if (seg1.reg_cache.enabled) {
    out.reg_cache.hits += seg1.reg_cache.hits;
    out.reg_cache.misses += seg1.reg_cache.misses;
    out.reg_cache.evictions += seg1.reg_cache.evictions;
    out.reg_cache.registered_bytes += seg1.reg_cache.registered_bytes;
    out.reg_cache.peak_pinned_bytes = std::max(seg1.reg_cache.peak_pinned_bytes,
                                               seg2.reg_cache.peak_pinned_bytes);
  }
  out.checkpoints = std::move(seg1.checkpoints);
  for (mpi::CheckpointEvent event : seg2.checkpoints) {
    event.at += offset;
    out.checkpoints.push_back(event);
  }
  // "Restored" describes what the *caller* asked for; the engine's internal
  // resume snapshot is migration bookkeeping, not a crash restart.
  out.restored = config.restore != nullptr;
  if (config.restore) {
    out.restore_round = config.restore->round;
    out.restore_progress_us = config.restore->progress_us;
  }
  if (config.observe) {
    out.spans = std::move(seg1.spans);
    for (const int r : move.ranks)
      out.spans.push_back({"migrate-transfer", obs::SpanCat::Migrate, r, -1, -1,
                           stop_copy_bytes, seg1.job_time, offset,
                           std::string("host ") + std::to_string(src_phys) +
                               " -> " + std::to_string(move.dst_phys_host)});
    for (obs::Span& span : seg2.spans)
      out.spans.push_back(shift_span(std::move(span), offset));
    // Each segment is canonical, but a segment-1 span can begin at the stop
    // where the transfer spans begin, and the shift can round two distinct
    // segment-2 begins together.
    obs::sort_spans(out.spans);
    out.metrics = merge_metrics(seg1.metrics, seg2.metrics);
    for (auto& [name, value] : out.metrics.gauges)
      if (name == "job.virtual_time_us") value = out.job_time;
  }

  // --- locality transitions + the report -------------------------------------
  const int nranks = base.total_ranks();
  auto phys2_of = [&](int local) {
    return physical.empty() ? local
                            : physical[static_cast<std::size_t>(local)];
  };
  for (int i = 0; i < nranks; ++i) {
    for (int j = i + 1; j < nranks; ++j) {
      const bool before =
          phys_of(static_cast<int>(base.slots[static_cast<std::size_t>(i)].host)) ==
          phys_of(static_cast<int>(base.slots[static_cast<std::size_t>(j)].host));
      const bool after =
          phys2_of(static_cast<int>(
              mutated.slots[static_cast<std::size_t>(i)].host)) ==
          phys2_of(static_cast<int>(
              mutated.slots[static_cast<std::size_t>(j)].host));
      if (!before && after) ++record.pairs_to_local;
      if (before && !after) ++record.pairs_to_remote;
    }
  }
  // The stop-the-world interval: the slowest rank's snapshot write + the
  // stop-and-copy transfer + the matching restore read at resume.
  Micros snap_cost = 0.0;
  for (const auto& state : snapshot->rank_state)
    snap_cost = std::max(snap_cost,
                         mpi::CheckpointStore::snapshot_cost(state.size()));
  record.pause_us = 2.0 * snap_cost + transfer_pause;
  report.executed = 1;
  report.total_pause_us = record.pause_us;
  report.records.push_back(std::move(record));
  out.migration = std::move(report);
  return out;
}

}  // namespace cbmpi::migrate
