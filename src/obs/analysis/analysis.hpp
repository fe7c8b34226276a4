// Post-run critical-path & wait-state analysis (DESIGN.md §16).
//
// Consumes the deterministic span stream of one job (JobResult::spans) and
// answers "which rank/channel/protocol made this job slow" mechanically:
//
//   * reconstructs per-rank virtual-time timelines from the Mpi / Compute /
//     Fault spans, with happens-before edges recovered from the dependency
//     payload on Proto spans (xfer id, posted_at / sent_at / avail_at);
//   * walks the job's critical path backward from the last rank to finish,
//     hopping send->recv edges (eager delivery, rendezvous RTS->done) so the
//     returned segments tile [0, critical_path] exactly;
//   * attributes every path microsecond to one blame category (compute /
//     eager / rndv / registration / contention / retry-backoff /
//     checkpoint-restart / other-MPI / idle);
//   * classifies Scalasca-style wait states per rank: late-sender,
//     late-receiver, collective imbalance (max - avg per Coll span group),
//     HCA link-contention stall (vs. the uncontended fabric time) and
//     registration stall (reg time the rendezvous pipeline could not hide).
//
// Everything is computed from virtual-time payloads over canonically sorted
// spans, so the result — and its JSON rendering in the v5 run report — is
// bit-identical across reruns of the same seed.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace cbmpi::obs::analysis {

/// Where a critical-path microsecond went. Order is the fixed emission order
/// of the report's blame table.
enum class Blame : std::uint8_t {
  Compute,       ///< application compute phases
  Eager,         ///< eager protocol: staging, delivery, receiver copy
  Rndv,          ///< rendezvous handshake + payload (net of carve-outs)
  Registration,  ///< pin-down registration time the pipeline could not hide
  Contention,    ///< link-contention stretch vs. the uncontended fabric
  Retry,         ///< HCA transient-fault retry backoff
  Recovery,      ///< checkpoint / restart / crash handling
  MpiOther,      ///< MPI call time with no transfer evidence (overheads)
  Idle,          ///< no span covers the path here (startup, skew)
};

inline constexpr std::size_t kBlames = 9;

const char* to_string(Blame blame);

/// One maximal interval of the critical path on one rank's timeline.
struct PathSegment {
  int rank = -1;
  Micros begin = 0.0;
  Micros end = 0.0;
  Blame blame = Blame::Idle;
  std::string name;  ///< span / transfer label ("MPI_Send", "rndv HCA", ...)

  Micros duration() const { return end - begin; }
};

/// Per-rank wait-state totals, summed over the whole run (not only the
/// critical path).
struct RankWaitStates {
  Micros late_sender = 0.0;     ///< recv posted, data/RTS not yet available
  Micros late_receiver = 0.0;   ///< rndv RTS posted, recv not yet posted
  Micros coll_imbalance = 0.0;  ///< max-duration minus own per Coll group
  Micros contention = 0.0;      ///< link-contention stall on own transfers
  Micros registration = 0.0;    ///< unhidden registration on own transfers

  Micros total() const {
    return late_sender + late_receiver + coll_imbalance + contention +
           registration;
  }
};

/// Aggregated imbalance of one collective (all its Coll span groups).
struct CollGroupStat {
  std::string name;          ///< collective label ("bcast", "allreduce", ...)
  std::uint64_t calls = 0;   ///< number of groups (one per call site x round)
  Micros imbalance = 0.0;    ///< sum over groups of (max - avg) duration
};

struct Analysis {
  int nranks = 0;
  int end_rank = -1;          ///< rank whose finish time ends the path
  Micros critical_path = 0.0; ///< == sum of segment durations
  std::vector<PathSegment> segments;       ///< ascending, tiles [0, end]
  std::array<Micros, kBlames> blame{};     ///< per-category path time
  std::vector<RankWaitStates> wait_states; ///< indexed by rank
  std::vector<CollGroupStat> coll_groups;  ///< sorted by collective name

  double blame_fraction(Blame b) const {
    return critical_path > 0.0
               ? blame[static_cast<std::size_t>(b)] / critical_path
               : 0.0;
  }

  /// The k longest segments, duration-descending (ties break on begin, then
  /// rank — deterministic).
  std::vector<PathSegment> top_segments(std::size_t k) const;
};

struct AnalyzeOptions {
  std::size_t top_k = 10;  ///< segments kept in reports / stderr tables
};

/// Runs the whole analysis. `rank_times` are the per-rank completion times
/// from the JobResult; when empty they are derived from span maxima. Spans
/// may be in any order (they are canonically sorted here).
Analysis analyze(std::span<const Span> spans, int nranks,
                 std::span<const Micros> rank_times,
                 const AnalyzeOptions& options = {});

/// Emits the v5 run-report "analysis" object body (caller writes the key).
void write_analysis(JsonWriter& w, const Analysis& analysis,
                    std::size_t top_k = 10);

/// Human-readable blame table + top segments + per-rank wait states, the
/// cbmpirun --analyze stderr rendering.
std::string analysis_summary(const Analysis& analysis, std::size_t top_k = 10);

}  // namespace cbmpi::obs::analysis
