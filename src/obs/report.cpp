#include "obs/report.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <string_view>

#include "common/table.hpp"
#include "sim/trace_export.hpp"

namespace cbmpi::obs {

namespace {

void write_profile(JsonWriter& w, const prof::JobProfile& profile) {
  w.key("profile").begin_object();
  w.field("ranks", profile.ranks);
  w.field("comm_fraction", profile.comm_fraction());
  w.field("comm_time_us", profile.total.comm_time());
  w.field("compute_time_us", profile.total.compute_time());
  w.field("recovery_time_us", profile.total.recovery_time());

  w.key("calls").begin_array();
  for (std::size_t i = 0; i < prof::kCallKinds; ++i) {
    const auto kind = static_cast<prof::CallKind>(i);
    const auto& stats = profile.total.call(kind);
    if (stats.count == 0) continue;
    w.begin_object();
    w.field("name", prof::to_string(kind));
    w.field("count", stats.count);
    w.field("time_us", stats.time);
    w.end_object();
  }
  w.end_array();

  w.key("channels").begin_array();
  for (auto kind : {fabric::ChannelKind::Shm, fabric::ChannelKind::Cma,
                    fabric::ChannelKind::Hca}) {
    w.begin_object();
    w.field("name", fabric::to_string(kind));
    w.field("ops", profile.total.channel_ops(kind));
    w.field("bytes", profile.total.channel_bytes(kind));
    w.end_object();
  }
  w.end_array();

  w.key("coll_algos").begin_array();
  for (std::size_t c = 0; c < coll::kColls; ++c) {
    for (std::size_t a = 0; a < coll::kAlgos; ++a) {
      const auto n = profile.total.coll_algo(static_cast<coll::Coll>(c),
                                             static_cast<coll::Algo>(a));
      if (n == 0) continue;
      w.begin_object();
      w.field("collective", coll::to_string(static_cast<coll::Coll>(c)));
      w.field("algorithm", coll::to_string(static_cast<coll::Algo>(a)));
      w.field("calls", n);
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
}

void write_metrics(JsonWriter& w, const MetricsSnapshot& snapshot) {
  w.key("metrics").begin_object();
  w.key("counters").begin_array();
  for (const auto& [name, value] : snapshot.counters) {
    w.begin_object();
    w.field("name", name);
    w.field("value", value);
    w.end_object();
  }
  w.end_array();
  w.key("gauges").begin_array();
  for (const auto& [name, value] : snapshot.gauges) {
    w.begin_object();
    w.field("name", name);
    w.field("value", value);
    w.end_object();
  }
  w.end_array();
  w.key("histograms").begin_array();
  for (const auto& [name, hist] : snapshot.histograms) {
    w.begin_object();
    w.field("name", name);
    w.field("count", hist.count);
    w.field("sum", hist.sum);
    w.field("p50", hist.percentile(0.50));
    w.field("p95", hist.percentile(0.95));
    w.field("p99", hist.percentile(0.99));
    w.key("buckets").begin_array();
    for (const auto& bucket : hist.buckets) {
      w.begin_object();
      w.field("le", bucket.upper);
      w.field("count", bucket.count);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_span_summary(JsonWriter& w, std::span<const Span> spans) {
  std::array<std::uint64_t, kSpanCats> counts{};
  std::array<Micros, kSpanCats> times{};
  for (const auto& span : spans) {
    const auto i = static_cast<std::size_t>(span.cat);
    ++counts[i];
    times[i] += span.duration();
  }
  w.key("spans").begin_object();
  w.field("count", static_cast<std::uint64_t>(spans.size()));
  w.key("by_category").begin_array();
  for (std::size_t i = 0; i < kSpanCats; ++i) {
    if (counts[i] == 0) continue;
    w.begin_object();
    w.field("category", to_string(static_cast<SpanCat>(i)));
    w.field("count", counts[i]);
    w.field("time_us", times[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_faults(JsonWriter& w, const faults::FaultReport& report) {
  w.key("faults").begin_object();
  w.field("injected", static_cast<std::uint64_t>(report.injected.size()));
  w.field("degradations", static_cast<std::uint64_t>(report.degradations.size()));
  w.key("retries").begin_object();
  w.field("shm", report.shm_retries);
  w.field("cma", report.cma_retries);
  w.field("hca", report.hca_retries);
  w.end_object();
  w.field("time_lost_us", report.time_lost);
  w.end_object();
}

void write_recovery(JsonWriter& w, const mpi::JobResult& result) {
  w.key("recovery").begin_object();
  w.field("checkpoints", static_cast<std::uint64_t>(result.checkpoints.size()));
  w.field("restored", result.restored);
  w.field("restore_round", result.restore_round);
  w.field("restore_progress_us", result.restore_progress_us);
  w.key("events").begin_array();
  for (const auto& event : result.checkpoints) {
    w.begin_object();
    w.field("round", event.round);
    w.field("at_us", event.at);
    w.field("bytes", event.bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_net(JsonWriter& w, const net::NetReport& report) {
  w.key("net").begin_object();
  w.field("model", net::to_string(report.model));
  w.field("arity", report.arity);
  w.field("hosts", report.hosts);
  w.field("switches", report.switches);
  w.field("links", report.links);
  w.field("transfers", report.transfers);
  w.field("congested_transfers", report.congested_transfers);
  w.field("max_factor", report.max_factor);
  w.field("max_peak_util", report.max_peak_util);
  w.field("mean_util", report.mean_util);
  w.key("hop_histogram").begin_array();
  for (const auto count : report.hop_histogram) w.value(count);
  w.end_array();
  w.key("link_utils").begin_array();
  for (const auto& link : report.link_utils) {
    w.begin_object();
    w.field("link", link.link);
    w.field("peak", link.peak);
    w.field("mean", link.mean);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_reg_cache(JsonWriter& w, const fabric::RegCacheStats& stats) {
  w.key("reg_cache").begin_object();
  w.field("capacity_bytes", stats.capacity_bytes);
  w.field("hits", stats.hits);
  w.field("misses", stats.misses);
  w.field("evictions", stats.evictions);
  w.field("pinned_bytes", stats.pinned_bytes);
  w.field("peak_pinned_bytes", stats.peak_pinned_bytes);
  w.field("registered_bytes", stats.registered_bytes);
  w.end_object();
}

void write_migration_record(JsonWriter& w, const migrate::MigrationRecord& rec) {
  w.begin_object();
  w.key("move").begin_object();
  w.field("src_host", rec.move.src_host);
  w.field("container", rec.move.container_index);
  w.field("dst_phys_host", rec.move.dst_phys_host);
  w.key("ranks").begin_array();
  for (const int r : rec.move.ranks) w.value(std::int64_t{r});
  w.end_array();
  w.end_object();
  w.field("quiesce_round", rec.quiesce_round);
  w.field("quiesce_at_us", rec.quiesce_at);
  w.field("resume_at_us", rec.resume_at);
  w.field("snapshot_bytes", rec.snapshot_bytes);
  w.field("drained_msgs", rec.drained_msgs);
  w.field("pause_us", rec.pause_us);
  w.field("pairs_to_local", rec.pairs_to_local);
  w.field("pairs_to_remote", rec.pairs_to_remote);
  w.field("invalidated_reg_entries", rec.invalidated_reg_entries);
  w.field("invalidated_reg_bytes", rec.invalidated_reg_bytes);
  w.key("estimate").begin_object();
  w.field("image_bytes", rec.cost.image_bytes);
  w.field("precopy_rounds", rec.cost.precopy_rounds);
  w.field("stop_copy_bytes", rec.cost.stop_copy_bytes);
  w.field("precopy_us", rec.cost.precopy_us);
  w.field("pause_us", rec.cost.pause_us);
  w.field("rereg_us", rec.cost.rereg_us);
  w.field("total_us", rec.cost.total_us);
  w.field("predicted_win_us", rec.cost.predicted_win_us);
  w.field("worthwhile", rec.cost.worthwhile);
  w.end_object();
  w.end_object();
}

/// The v6 "migration" section body, shared by both report flavors. Callers
/// gate emission (single: a migration engine drove the job; schedule: a
/// migration policy was on), so off-policy reports stay byte-identical to
/// v5 documents apart from the version field.
void write_migration(JsonWriter& w, const migrate::MigrationReport& report) {
  w.key("migration").begin_object();
  w.field("policy", migrate::to_string(report.policy));
  w.field("proposed", report.proposed);
  w.field("rejected", report.rejected);
  w.field("executed", report.executed);
  w.field("total_pause_us", report.total_pause_us);
  w.field("predicted_win_us", report.predicted_win_us);
  w.field("predicted_cost_us", report.predicted_cost_us);
  w.key("records").begin_array();
  for (const auto& rec : report.records) write_migration_record(w, rec);
  w.end_array();
  w.end_object();
}

void write_header(JsonWriter& w, const ReportContext& ctx, const char* mode) {
  w.field("schema", "cbmpi.run_report");
  w.field("version", std::int64_t{kRunReportVersion});
  w.field("mode", mode);
  w.key("job").begin_object();
  w.field("app", ctx.app);
  w.field("deployment", ctx.deployment);
  w.field("policy", ctx.policy);
  w.field("seed", ctx.seed);
  w.end_object();
}

}  // namespace

void write_cluster_metrics(JsonWriter& w, const sched::ClusterMetrics& metrics) {
  w.begin_object();
  w.field("makespan_us", metrics.makespan);
  w.field("utilization", metrics.utilization);
  w.field("mean_queue_wait_us", metrics.mean_queue_wait);
  w.field("max_queue_wait_us", metrics.max_queue_wait);
  w.field("backfilled_jobs", metrics.backfilled_jobs);
  w.field("intra_host_pairs", metrics.intra_host_pairs);
  w.field("inter_host_pairs", metrics.inter_host_pairs);
  w.field("intra_host_pair_share", metrics.intra_host_pair_share());
  w.key("channel_ops").begin_object();
  w.field("shm", metrics.shm_ops);
  w.field("cma", metrics.cma_ops);
  w.field("hca", metrics.hca_ops);
  w.end_object();
  w.field("local_op_share", metrics.local_op_share());
  w.key("recovery").begin_object();
  w.field("crashes", metrics.crashes);
  w.field("requeues", metrics.requeues);
  w.field("restarts_from_checkpoint", metrics.restarts_from_checkpoint);
  w.field("checkpoints", metrics.checkpoints);
  w.field("jobs_failed", metrics.jobs_failed);
  w.field("blacklisted_hosts", metrics.blacklisted_hosts);
  w.field("lost_work_us", metrics.lost_work_us);
  w.field("completed_work_us", metrics.completed_work_us);
  w.end_object();
  w.end_object();
}

std::string run_report_json(const ReportContext& ctx, const mpi::JobResult& result) {
  JsonWriter w;
  w.begin_object();
  write_header(w, ctx, "single");

  w.key("result").begin_object();
  w.field("job_time_us", result.job_time);
  w.key("rank_times_us").begin_array();
  for (const Micros t : result.rank_times) w.value(t);
  w.end_array();
  w.field("hca_queue_pairs", static_cast<std::uint64_t>(result.hca_queue_pairs));
  w.end_object();

  write_profile(w, result.profile);
  write_metrics(w, result.metrics);
  {
    std::vector<Span> storage;
    write_span_summary(w, canonical_spans(result.spans, storage));
  }
  write_faults(w, result.fault_report);
  write_recovery(w, result);
  if (result.net.enabled) write_net(w, result.net);
  if (result.reg_cache.enabled) write_reg_cache(w, result.reg_cache);
  if (result.migration.enabled) write_migration(w, result.migration);
  if (ctx.analysis != nullptr) {
    w.key("analysis");
    analysis::write_analysis(w, *ctx.analysis);
  }
  if (ctx.cluster) {
    w.key("cluster");
    write_cluster_metrics(w, *ctx.cluster);
  }
  w.end_object();
  return w.str();
}

std::string schedule_report_json(const ReportContext& ctx,
                                 const sched::Scheduler& scheduler) {
  JsonWriter w;
  w.begin_object();
  write_header(w, ctx, "schedule");
  w.key("cluster");
  write_cluster_metrics(w, scheduler.metrics());
  if (scheduler.config().migrate_policy != migrate::MigrationPolicy::Off) {
    // Aggregate the per-job migration outcomes into one v6 section; the
    // per-move records ride along so the locality-win-vs-cost story of each
    // executed move is auditable from the schedule report alone.
    migrate::MigrationReport aggregate;
    aggregate.enabled = true;
    aggregate.policy = scheduler.config().migrate_policy;
    const auto& metrics = scheduler.metrics();
    aggregate.proposed = metrics.migrations_proposed;
    aggregate.rejected = metrics.migrations_rejected;
    aggregate.executed = metrics.migrations_executed;
    aggregate.total_pause_us = metrics.migration_pause_us;
    aggregate.predicted_win_us = metrics.migration_win_us;
    aggregate.predicted_cost_us = metrics.migration_cost_us;
    for (const auto& job : scheduler.jobs()) {
      for (const auto& rec : job.result.migration.records)
        aggregate.records.push_back(rec);
    }
    write_migration(w, aggregate);
  }
  w.key("jobs").begin_array();
  for (const auto& job : scheduler.jobs()) {
    w.begin_object();
    w.field("name", job.spec.name);
    w.field("body", job.spec.body);
    w.field("ranks", job.spec.ranks);
    w.field("hosts_used", job.placement.hosts_used);
    w.field("submit_us", job.spec.submit_time);
    w.field("start_us", job.start_time);
    w.field("end_us", job.end_time);
    w.field("queue_wait_us", job.queue_wait());
    w.field("backfilled", job.backfilled);
    w.field("intra_host_share", job.placement.intra_host_share());
    w.field("job_time_us", job.result.job_time);
    w.field("attempt", job.attempt);
    w.field("outcome", sched::to_string(job.outcome));
    if (job.outcome != sched::JobOutcome::Completed && job.crash.rank >= 0) {
      w.key("crash").begin_object();
      w.field("kind", faults::to_string(job.crash.kind));
      w.field("rank", job.crash.rank);
      w.field("host", job.crash.host);
      w.field("at_us", job.crash.at);
      w.field("last_checkpoint_us", job.crash.last_checkpoint);
      w.end_object();
    }
    if (job.restored_progress > 0.0)
      w.field("restored_progress_us", job.restored_progress);
    if (ctx.job_analyses != nullptr) {
      const auto it = ctx.job_analyses->find(job.spec.name);
      if (it != ctx.job_analyses->end()) {
        w.key("analysis");
        analysis::write_analysis(w, it->second);
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string to_perfetto(std::span<const Span> spans,
                        std::span<const sim::TraceEvent> events,
                        const analysis::Analysis* analysis) {
  // Track layout: pid = rank for rank timelines, pid = kChannelPidBase +
  // channel ordinal for per-channel transfer tracks, pid = kPathPid for the
  // computed critical path.
  constexpr int kChannelPidBase = 1000;
  constexpr int kPathPid = 2000;

  std::vector<Span> storage;
  const std::span<const Span> sorted = canonical_spans(spans, storage);

  // Name every track we are about to emit (process_name metadata events).
  std::array<bool, fabric::kChannelKinds> channel_seen{};
  int max_rank = -1;
  for (const Span& span : sorted) {
    if (span.cat == SpanCat::Proto && span.channel >= 0 &&
        span.channel < static_cast<int>(fabric::kChannelKinds))
      channel_seen[static_cast<std::size_t>(span.channel)] = true;
    max_rank = std::max(max_rank, span.rank);
  }
  for (const auto& event : events)
    if (event.src >= 0) max_rank = std::max(max_rank, event.src);

  // Upper-end bytes per span (a transfer slice is ~170 plus ~110 for its two
  // flow events), per legacy instant and per path segment, so the document
  // is built without reallocating.
  std::string out;
  out.reserve(4096 + 320 * sorted.size() + 128 * events.size() +
              (analysis != nullptr ? 160 * analysis->segments.size() : 0));
  out += "{\"traceEvents\":[";
  bool first = true;
  auto open_event = [&](std::string_view name) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, name);
    out += '"';
  };
  auto int_field = [&](std::string_view key, std::int64_t v) {
    out += key;
    append_integer(out, v);
  };
  auto number_field = [&](std::string_view key, double v) {
    out += key;
    append_number(out, v);
  };
  auto meta = [&](int pid, const std::string& name) {
    open_event("process_name");
    int_field(",\"ph\":\"M\",\"pid\":", pid);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    append_escaped(out, name);
    out += "\"}}";
  };
  for (int r = 0; r <= max_rank; ++r) meta(r, "rank " + std::to_string(r));
  for (std::size_t c = 0; c < fabric::kChannelKinds; ++c)
    if (channel_seen[c])
      meta(kChannelPidBase + static_cast<int>(c),
           std::string("channel ") +
               fabric::to_string(static_cast<fabric::ChannelKind>(c)));
  if (analysis != nullptr && !analysis->segments.empty())
    meta(kPathPid, "critical path");

  for (const Span& span : sorted) {
    const bool channel_track = span.cat == SpanCat::Proto && span.channel >= 0;
    const int pid = channel_track ? kChannelPidBase + span.channel : span.rank;
    open_event(span.name);
    out += ",\"cat\":\"";
    out += to_string(span.cat);
    int_field("\",\"ph\":\"X\",\"pid\":", pid);
    int_field(",\"tid\":", span.rank);
    number_field(",\"ts\":", span.begin);
    number_field(",\"dur\":", span.duration());
    out += ",\"args\":{\"bytes\":";
    append_integer(out, span.bytes);
    int_field(",\"peer\":", span.peer);
    if (!span.note.empty()) {
      out += ",\"note\":\"";
      append_escaped(out, span.note);
      out += '"';
    }
    out += "}}";
    // Flow arrow: sender's hand-off ("s" on the sender's rank track) binds
    // to this receive-side transfer slice ("f", enclosing-slice binding).
    const bool transfer = span.cat == SpanCat::Proto && span.xfer >= 0 &&
                          (span.name == "eager" || span.name == "rndv") &&
                          span.sent_at >= 0.0 && span.peer >= 0;
    if (transfer) {
      int_field(",{\"name\":\"xfer\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":", span.xfer);
      int_field(",\"pid\":", span.peer);
      int_field(",\"tid\":", span.peer);
      number_field(",\"ts\":", span.sent_at);
      int_field("},{\"name\":\"xfer\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":",
                span.xfer);
      int_field(",\"pid\":", pid);
      int_field(",\"tid\":", span.rank);
      number_field(",\"ts\":", span.begin);
      out += '}';
    }
  }

  if (analysis != nullptr) {
    // The computed path, one slice per segment, ascending and adjacent —
    // drop zero-width segments so the track stays strictly renderable.
    for (const auto& seg : analysis->segments) {
      if (seg.duration() <= 0.0) continue;
      open_event(seg.name);
      int_field(",\"cat\":\"critical-path\",\"ph\":\"X\",\"pid\":", kPathPid);
      out += ",\"tid\":0";
      number_field(",\"ts\":", seg.begin);
      number_field(",\"dur\":", seg.duration());
      int_field(",\"args\":{\"rank\":", seg.rank);
      out += ",\"category\":\"";
      out += analysis::to_string(seg.blame);
      out += "\"}}";
    }
  }

  sim::append_chrome_events(out, events, first);
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

std::string metrics_summary(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "metrics registry (" << snapshot.counters.size() << " counters, "
     << snapshot.gauges.size() << " gauges, " << snapshot.histograms.size()
     << " histograms)\n";
  if (!snapshot.counters.empty()) {
    Table counters({"counter", "value"});
    for (const auto& [name, value] : snapshot.counters)
      counters.add_row({name, std::to_string(value)});
    counters.print(os);
  }
  if (!snapshot.gauges.empty()) {
    Table gauges({"gauge", "value"});
    for (const auto& [name, value] : snapshot.gauges)
      gauges.add_row({name, Table::num(value, 3)});
    gauges.print(os);
  }
  if (!snapshot.histograms.empty()) {
    Table hists({"histogram", "count", "sum", "p50<=", "p95<=", "p99<="});
    for (const auto& [name, hist] : snapshot.histograms)
      hists.add_row({name, std::to_string(hist.count), std::to_string(hist.sum),
                     std::to_string(hist.percentile(0.50)),
                     std::to_string(hist.percentile(0.95)),
                     std::to_string(hist.percentile(0.99))});
    hists.print(os);
  }
  return os.str();
}

}  // namespace cbmpi::obs
