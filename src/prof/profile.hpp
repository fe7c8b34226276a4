// mpiP-style profiling: per-MPI-call virtual time, per-channel transfer
// operation counters, and the communication/computation breakdown used by
// the paper's bottleneck analysis (Fig. 3a and Table I).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "fabric/message.hpp"
#include "mpi/coll/types.hpp"

namespace cbmpi::prof {

enum class CallKind : std::uint8_t {
  Send, Recv, Isend, Irecv, Test, Wait, Probe,
  Barrier, Bcast, Reduce, Allreduce, Gather, Allgather, Scatter,
  Alltoall, Alltoallv, AllgatherV, Gatherv, Scatterv,
  ReduceScatter, Scan, Exscan,
  Put, Get, Accumulate, Fence, Flush, WinCreate,
  Count_,
};

inline constexpr std::size_t kCallKinds = static_cast<std::size_t>(CallKind::Count_);

const char* to_string(CallKind kind);

struct CallStats {
  std::uint64_t count = 0;
  Micros time = 0.0;
};

/// Per-rank accumulator; owned and written by exactly one rank's fiber.
class RankProfile {
 public:
  void add_call(CallKind kind, Micros elapsed);
  void add_channel_op(fabric::ChannelKind channel, Bytes bytes);
  /// One user-level collective resolved to `algo` (TwoLevel for hierarchical
  /// paths; never Auto). Pairs with the channel counters so placement quality
  /// and algorithm quality are observable together.
  void add_coll_algo(coll::Coll coll, coll::Algo algo);
  void add_compute(Micros elapsed);
  /// Virtual time spent recovering from injected faults (retry backoff,
  /// fallback detection) — reported separately from comm/compute.
  void add_recovery(Micros elapsed);

  const CallStats& call(CallKind kind) const;
  /// How many calls of `coll` ran with `algo` on this rank.
  std::uint64_t coll_algo(coll::Coll coll, coll::Algo algo) const;
  std::uint64_t channel_ops(fabric::ChannelKind channel) const;
  Bytes channel_bytes(fabric::ChannelKind channel) const;
  Micros comm_time() const;    ///< sum over all MPI calls
  Micros compute_time() const;
  Micros recovery_time() const;

  void merge(const RankProfile& other);

 private:
  std::array<CallStats, kCallKinds> calls_{};
  std::array<std::array<std::uint64_t, coll::kAlgos>, coll::kColls> coll_algos_{};
  std::array<std::uint64_t, fabric::kChannelKinds> channel_ops_{};
  std::array<Bytes, fabric::kChannelKinds> channel_bytes_{};
  Micros compute_time_ = 0.0;
  Micros recovery_time_ = 0.0;
};

/// Job-wide aggregate (sum over ranks).
struct JobProfile {
  RankProfile total;
  int ranks = 0;

  void merge_rank(const RankProfile& rank_profile);

  /// Fraction of (comm + compute) time spent communicating, as mpiP reports.
  double comm_fraction() const;

  /// Renders an mpiP-like report for humans / EXPERIMENTS.md.
  std::string report() const;
};

}  // namespace cbmpi::prof
