// Run-report emitter: serializes one job's profile + metrics + span summary
// + fault report (+ optional scheduler ClusterMetrics) into a single
// versioned JSON document, and renders the Perfetto trace that pairs with
// it.
//
// Determinism: every section is emitted in a fixed order, metrics come from
// a name-sorted MetricsSnapshot, spans are sorted into canonical
// virtual-time order, and numbers use obs::format_double — so the same job
// config and seed produce byte-identical documents (the acceptance test for
// the whole observability layer). Every field is declared, and reports are
// checked, in obs/analysis/report_schema.hpp.
#pragma once

#include <map>
#include <span>
#include <string>

#include "mpi/runtime.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/analysis/report_schema.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace.hpp"

namespace cbmpi::obs {

/// What the emitter cannot read off a JobResult: how the job was launched.
struct ReportContext {
  std::string app;         ///< application / bench label
  std::string deployment;  ///< deployment label (hosts x containers x procs)
  std::string policy;      ///< locality policy name
  std::uint64_t seed = 0;

  /// Optional scheduler aggregates (multi-job runs); emitted as the
  /// "cluster" section when non-null.
  const sched::ClusterMetrics* cluster = nullptr;

  /// Critical-path analysis (--analyze); emitted as the "analysis" section
  /// when non-null.
  const analysis::Analysis* analysis = nullptr;

  /// Schedule mode with --analyze: per-job analyses keyed by job name.
  const std::map<std::string, analysis::Analysis>* job_analyses = nullptr;
};

/// The versioned single-job run report (schema "cbmpi.run_report").
std::string run_report_json(const ReportContext& ctx, const mpi::JobResult& result);

/// Multi-job (scheduler) run report: cluster metrics plus one row per
/// scheduled job. Same schema id, "mode":"schedule".
std::string schedule_report_json(const ReportContext& ctx,
                                 const sched::Scheduler& scheduler);

/// Perfetto / chrome://tracing document: spans become duration events
/// ("ph":"X") on one track per rank plus one per channel; the legacy
/// instant TraceEvents ride along unchanged ("ph":"i"). Transfers carry
/// flow arrows ("ph":"s"/"f") from the sender's hand-off to the receiver's
/// Proto slice. With a non-null `analysis`, its segments are rendered on a
/// dedicated "critical path" track. `spans` may be in any order; they are
/// canonically sorted here.
std::string to_perfetto(std::span<const Span> spans,
                        std::span<const sim::TraceEvent> events,
                        const analysis::Analysis* analysis = nullptr);

/// Human-readable one-screen rendering of a metrics snapshot (cbmpirun
/// --metrics).
std::string metrics_summary(const MetricsSnapshot& snapshot);

/// Emits the ClusterMetrics object body (shared by both report flavors).
void write_cluster_metrics(JsonWriter& w, const sched::ClusterMetrics& metrics);

}  // namespace cbmpi::obs
