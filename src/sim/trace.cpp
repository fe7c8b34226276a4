#include "sim/trace.hpp"

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

}  // namespace cbmpi::sim
