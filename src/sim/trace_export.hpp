// Chrome-trace (chrome://tracing / Perfetto) export of recorded trace events.
//
// Usage:
//   config.record_trace = true;
//   auto result = mpi::run_job(config, body);
//   std::ofstream("job.json") << sim::to_chrome_trace(result.trace);
// then load job.json in chrome://tracing or ui.perfetto.dev. Each rank
// appears as a process row; protocol events are instant events ("ph":"i")
// at their virtual timestamps. For the richer duration-span export that
// combines these instants with obs::Span duration tracks, see
// obs::to_perfetto (obs/report.hpp) — it reuses append_chrome_events so the
// two documents render the instant events identically.
#pragma once

#include <span>
#include <string>

#include "sim/trace.hpp"

namespace cbmpi::sim {

/// Renders events as a Chrome Trace Event Format JSON array document.
std::string to_chrome_trace(std::span<const TraceEvent> events);

/// Appends the instant-event objects for `events` to an open traceEvents
/// array: comma-separated, `first` tracking whether a separator is needed
/// (shared between this and any objects the caller already wrote). All
/// strings are fully JSON-escaped, including control characters.
void append_chrome_events(std::string& out, std::span<const TraceEvent> events,
                          bool& first);

}  // namespace cbmpi::sim
