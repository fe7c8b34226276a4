// Link-contention engine: exact max-min fair sharing in virtual time.
//
// Transfers are modelled as fluid flows. At every flow start/finish event the
// engine recomputes the rate of each in-flight flow by progressive filling
// (water-filling): all unfrozen flows grow at the same rate until a link
// saturates or a flow hits its own rate cap, the constrained flows freeze,
// and filling continues with the rest. Between events every flow drains at
// its computed rate.
//
// Determinism: settle() is a pure function of the flow set — flows are
// canonically sorted by (start, key) first, events are processed in virtual
// time, and no wall-clock or iteration-order effect can leak in. The same
// flow set always produces bit-identical finish times.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace cbmpi::net {

/// Identity of one recorded transfer: the sender's (world rank, per-sender
/// sequence number). Unique per job and identical across reruns.
struct FlowKey {
  int src_rank = -1;
  std::uint64_t seq = 0;
  friend bool operator==(const FlowKey& a, const FlowKey& b) {
    return a.src_rank == b.src_rank && a.seq == b.seq;
  }
  friend bool operator<(const FlowKey& a, const FlowKey& b) {
    if (a.src_rank != b.src_rank) return a.src_rank < b.src_rank;
    return a.seq < b.seq;
  }
};

/// One fluid flow: `bytes` injected starting at `start`, traversing the
/// directed links in `path`, never faster than `rate_cap`.
struct Flow {
  FlowKey key;
  std::vector<int> path;  ///< directed LinkIds (may be empty: host-local)
  double bytes = 0.0;
  Micros start = 0.0;
  double rate_cap = 0.0;  ///< bytes/us; must be > 0
};

struct FlowOutcome {
  FlowKey key;
  Micros finish = 0.0;
  /// Contended duration over uncontended duration (bytes / rate_cap); >= 1,
  /// exactly 1.0 when the flow never shared a saturated link.
  double factor = 1.0;
  int hops = 0;
};

/// Per-link utilization as a fraction of capacity: `peak` is the largest
/// instantaneous allocation, `mean` averages over [busy_begin, busy_end].
struct LinkStats {
  double peak = 0.0;
  double mean = 0.0;
};

struct SettleResult {
  std::vector<FlowOutcome> flows;  ///< sorted by key
  std::vector<LinkStats> links;    ///< indexed by LinkId
  Micros busy_begin = 0.0;         ///< earliest flow start
  Micros busy_end = 0.0;           ///< latest flow finish
};

/// Runs the fluid simulation over one job's flows. `link_caps[l]` is link
/// l's capacity in bytes/us; every path entry must index into it. Throws
/// cbmpi::Error when two flows share a key.
SettleResult settle(std::vector<Flow> flows, const std::vector<double>& link_caps);

}  // namespace cbmpi::net
