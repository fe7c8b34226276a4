// Chrome-trace (chrome://tracing / Perfetto) rendering of recorded trace
// events: each becomes an instant event ("ph":"i") at its virtual timestamp
// on its source rank's process row. obs::to_perfetto (obs/report.hpp) writes
// the trace document and renders its legacy instants through this.
#pragma once

#include <span>
#include <string>

#include "sim/trace.hpp"

namespace cbmpi::sim {

/// Appends the instant-event objects for `events` to an open traceEvents
/// array: comma-separated, `first` tracking whether a separator is needed
/// (shared with any objects the caller already wrote). All strings are
/// fully JSON-escaped, including control characters.
void append_chrome_events(std::string& out, std::span<const TraceEvent> events,
                          bool& first);

}  // namespace cbmpi::sim
