// Collective-algorithm vocabulary shared by the tuning table, the
// collective dispatch, the profiler and the trace layer.
//
// `Coll` names the six tunable collectives; `Algo` names every interchangeable
// implementation the communicator can execute. Not every algorithm is valid
// for every collective — `algorithms_for()` / `valid_for()` describe the legal
// pairs, and the tuning-table parser rejects illegal ones with a line number.
//
// `Algo::TwoLevel` is the leader-based hierarchical variant layered on top of
// the flat algorithms — its local/leader phases select again from the tuning
// table with the sub-list size to pick their own flat algorithm.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace cbmpi::coll {

enum class Coll : std::uint8_t {
  Barrier, Bcast, Reduce, Allreduce, Allgather, Alltoall,
  Count_,
};

inline constexpr std::size_t kColls = static_cast<std::size_t>(Coll::Count_);

enum class Algo : std::uint8_t {
  TwoLevel,           ///< leader-based hierarchy over locality groups
  Dissemination,      ///< barrier: log2(n) rounds of pairwise tokens
  FlatTree,           ///< linear through the root (bcast/reduce/barrier)
  Binomial,           ///< binomial tree (bcast/reduce)
  VanDeGeijn,         ///< bcast: scatter + ring allgather (large payloads)
  RecursiveDoubling,  ///< allreduce: XOR exchange, power-of-two lists
  Rabenseifner,       ///< allreduce: reduce-scatter + allgather (large)
  ReduceBcast,        ///< allreduce: reduce to list head, then bcast
  Ring,               ///< allgather: bandwidth-optimal ring
  GatherBcast,        ///< allgather: linear gather + binomial bcast
  Pairwise,           ///< alltoall: n-1 pairwise exchange rounds
  Bruck,              ///< alltoall: log2(n) combined-block rounds (small msgs)
  Spread,             ///< alltoall: every block in flight at once
  Count_,
};

inline constexpr std::size_t kAlgos = static_cast<std::size_t>(Algo::Count_);

/// Lower-case token used in tuning files (e.g. "flat_tree").
const char* to_string(Coll coll);
const char* to_string(Algo algo);

std::optional<Coll> parse_coll(std::string_view token);
std::optional<Algo> parse_algo(std::string_view token);

/// The algorithms a tuning entry may legally name for `coll` (TwoLevel
/// where a hierarchical variant exists — i.e. everything except alltoall).
std::span<const Algo> algorithms_for(Coll coll);

bool valid_for(Coll coll, Algo algo);

}  // namespace cbmpi::coll
