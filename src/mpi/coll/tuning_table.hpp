// TuningTable: declarative algorithm selection for collectives.
//
// A table is an ordered list of entries, each matching a (collective, rank
// count, containers-per-host, message size) region and naming the algorithm
// to run there. Selection scans the entries in order and the *last* match
// wins, so a table reads like a layered config: broad defaults first, narrow
// overrides after. Pinning one collective to one algorithm is a catch-all
// entry (`bcast * * * flat_tree`) appended last.
//
// Text format (one entry per line, '#' starts a comment):
//
//   # collective  ranks  containers/host  msg-size   algorithm
//   bcast         *      *                0-64K      binomial
//   bcast         *      *                64K-       vandegeijn
//   allreduce     16-    2-               -32K       two_level
//
// Range syntax for the three numeric fields: `*` (any), `N` (exactly N),
// `A-B` (inclusive), `A-` (at least A), `-B` (at most B). Sizes take K/M/G
// suffixes (powers of 1024). `parse()` rejects malformed lines with their
// line number; `serialize()` emits the same format back (round-trips).
//
// The shipped `container_defaults()` table encodes the paper-derived choices
// for container deployments; `bench/ablation_collectives --autotune` sweeps
// the real algorithms and emits a fresh best-of table in this format.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "mpi/coll/types.hpp"

namespace cbmpi::coll {

/// Payloads at or above this switch MPI_Bcast from the binomial tree to the
/// bandwidth-optimal scatter + ring-allgather (van de Geijn) scheme, both in
/// the shipped table and in the engine's Auto heuristic
/// (MV2_KNOMIAL_2LEVEL_BCAST_THRESHOLD analogue).
inline constexpr Bytes kBcastLargeThreshold = 64_KiB;

/// Payloads at or above this switch MPI_Allreduce from recursive doubling to
/// Rabenseifner's reduce-scatter + allgather scheme, in the same two places
/// (MV2_ALLREDUCE_SHORT_MSG analogue).
inline constexpr Bytes kAllreduceLargeThreshold = 32_KiB;

/// One selection rule. All bounds are inclusive; the defaults match anything.
struct TuningEntry {
  Coll coll = Coll::Bcast;
  int min_ranks = 0;
  int max_ranks = std::numeric_limits<int>::max();
  int min_cph = 0;                      ///< containers per host (1 = native)
  int max_cph = std::numeric_limits<int>::max();
  Bytes min_size = 0;
  Bytes max_size = std::numeric_limits<Bytes>::max();
  Algo algo = Algo::Auto;

  bool matches(Coll c, Bytes size, int ranks, int cph) const {
    return c == coll && ranks >= min_ranks && ranks <= max_ranks &&
           cph >= min_cph && cph <= max_cph && size >= min_size &&
           size <= max_size;
  }
};

class TuningTable {
 public:
  /// Paper-derived defaults for container deployments: hierarchy wherever
  /// locality groups exist, bandwidth algorithms past the large-message
  /// switch points, Bruck for small alltoalls.
  static TuningTable container_defaults();

  /// Parses the text format above; throws Error naming `origin` and the
  /// 1-based line number on any malformed line.
  static TuningTable parse(const std::string& text,
                           const std::string& origin = "<string>");

  /// Reads and parses a tuning file; throws Error if unreadable or malformed.
  static TuningTable load_file(const std::string& path);

  /// Appends one rule; later rules beat earlier ones. Throws Error if the
  /// rule names an algorithm that is not valid for its collective.
  void add(TuningEntry entry);

  /// Appends all of `other`'s entries after ours — i.e. `other` wins
  /// wherever both tables speak.
  void merge(const TuningTable& other);

  /// The algorithm for this call site: the last matching entry, else
  /// Algo::Auto. `cph` is containers per host (1 = native).
  Algo select(Coll coll, Bytes size, int ranks, int cph) const;

  /// Emits the parseable text form.
  std::string serialize() const;

  const std::vector<TuningEntry>& entries() const { return entries_; }

 private:
  std::vector<TuningEntry> entries_;
};

}  // namespace cbmpi::coll
