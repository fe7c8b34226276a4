// Event trace (optional, off by default: JobConfig::record_trace).
//
// Channels and the MPI progress engine emit TraceEvents into the executing
// rank's own buffer (mpi::RankRecords); mpi::run_job concatenates the
// buffers at job end and sorts them by trace_less into JobResult::trace.
// Tests use it to assert protocol structure (e.g. "a rendezvous transfer
// emitted RTS, CTS and DATA") and benches can dump it for debugging.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace cbmpi::sim {

enum class TraceKind : std::uint8_t {
  SendEager,
  SendRndvRts,
  SendRndvData,
  RecvRndvCts,
  RecvComplete,
  Put,
  Get,
  Compute,
  FaultInject,  ///< an injected fault fired at this point
  Retry,        ///< a transfer attempt was retried after a transient fault
  Degrade,      ///< a fallback decision (locality or channel) was taken
  CollAlgo,     ///< a collective resolved to an algorithm ("bcast/binomial")
  NetCongest,   ///< a fabric transfer was slowed by link contention
};

const char* to_string(TraceKind kind);

struct TraceEvent {
  TraceKind kind;
  int src = -1;
  int dst = -1;
  Bytes size = 0;
  Micros at = 0.0;
  std::string note;
};

/// Canonical order (at, src, dst, kind, size, note): total, so a job's
/// events sort the same however its ranks' fibers interleaved.
bool trace_less(const TraceEvent& a, const TraceEvent& b);

}  // namespace cbmpi::sim
