#include "sim/trace.hpp"

#include <algorithm>
#include <tuple>

namespace cbmpi::sim {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::SendEager: return "send-eager";
    case TraceKind::SendRndvRts: return "send-rndv-rts";
    case TraceKind::SendRndvData: return "send-rndv-data";
    case TraceKind::RecvRndvCts: return "recv-rndv-cts";
    case TraceKind::RecvComplete: return "recv-complete";
    case TraceKind::Put: return "put";
    case TraceKind::Get: return "get";
    case TraceKind::Compute: return "compute";
    case TraceKind::ChannelSelect: return "channel-select";
    case TraceKind::FaultInject: return "fault-inject";
    case TraceKind::Retry: return "retry";
    case TraceKind::Degrade: return "degrade";
    case TraceKind::CollAlgo: return "coll-algo";
    case TraceKind::NetCongest: return "net-congest";
  }
  return "?";
}

bool trace_less(const TraceEvent& a, const TraceEvent& b) {
  return std::tie(a.at, a.src, a.dst, a.kind, a.size, a.note) <
         std::tie(b.at, b.src, b.dst, b.kind, b.size, b.note);
}

void TraceRecorder::record(TraceEvent event) {
  const std::scoped_lock lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::events() const {
  const std::scoped_lock lock(mutex_);
  std::vector<TraceEvent> out = events_;
  std::ranges::sort(out, trace_less);
  return out;
}

std::size_t TraceRecorder::count(TraceKind kind) const {
  const std::scoped_lock lock(mutex_);
  std::size_t n = 0;
  for (const auto& e : events_)
    if (e.kind == kind) ++n;
  return n;
}

void TraceRecorder::clear() {
  const std::scoped_lock lock(mutex_);
  events_.clear();
}

}  // namespace cbmpi::sim
