// TuningTable: declarative algorithm selection for collectives, and the only
// place an algorithm is chosen.
//
// A table is an ordered list of entries, each matching a (collective, rank
// count, containers-per-host, message size) region and naming the algorithm
// to run there. Selection scans the entries in order and the *last* match
// wins, so a table reads like a layered config: broad defaults first, narrow
// overrides after. Pinning one collective to one algorithm is a catch-all
// entry (`bcast * * * flat_tree`) appended last. A `two_level` entry counts
// only where the call has a locality hierarchy to run it on; elsewhere the
// last matching entry beneath it answers. A call that no entry matches is an
// error, so a table a job runs must cover every call it makes; the shipped
// defaults cover every collective at every size.
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
// the real algorithms and emits a fresh best-of table in this format. A
// flat-collectives job (MV2_USE_SHMEM_COLL=0) runs `flat()` of its table.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "mpi/coll/types.hpp"

namespace cbmpi::coll {

/// Payloads at or above this switch MPI_Bcast from the binomial tree to the
/// bandwidth-optimal scatter + ring-allgather (van de Geijn) scheme in the
/// shipped table (MV2_KNOMIAL_2LEVEL_BCAST_THRESHOLD analogue).
inline constexpr Bytes kBcastLargeThreshold = 64_KiB;

/// Payloads at or above this switch MPI_Allreduce from recursive doubling to
/// Rabenseifner's reduce-scatter + allgather scheme in the shipped table
/// (MV2_ALLREDUCE_SHORT_MSG analogue).
inline constexpr Bytes kAllreduceLargeThreshold = 32_KiB;

/// One selection rule. All bounds are inclusive; the defaults match any bcast
/// and run it binomial.
struct TuningEntry {
  Coll coll = Coll::Bcast;
  int min_ranks = 0;
  int max_ranks = std::numeric_limits<int>::max();
  int min_cph = 0;                      ///< containers per host (1 = native)
  int max_cph = std::numeric_limits<int>::max();
  Bytes min_size = 0;
  Bytes max_size = std::numeric_limits<Bytes>::max();
  Algo algo = Algo::Binomial;

  bool matches(Coll c, Bytes size, int ranks, int cph) const {
    return c == coll && ranks >= min_ranks && ranks <= max_ranks &&
           cph >= min_cph && cph <= max_cph && size >= min_size &&
           size <= max_size;
  }
};

class TuningTable {
 public:
  /// Paper-derived defaults for container deployments: hierarchy wherever
  /// locality groups exist, with a flat row beneath each two_level row,
  /// bandwidth algorithms past the large-message switch points, spread
  /// alltoall.
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

  /// A copy without the TwoLevel entries: every call chooses what it would
  /// with no hierarchy available.
  TuningTable flat() const;

  /// The algorithm for this call: the last matching entry, skipping
  /// TwoLevel entries unless `two_level` (a locality hierarchy is available
  /// to run them). `ranks` is the size of the rank list the collective runs
  /// over and `cph` containers per host (1 = native). Throws Error naming
  /// the call when no entry matches.
  Algo select(Coll coll, Bytes size, int ranks, int cph, bool two_level) const;

  /// Emits the parseable text form.
  std::string serialize() const;

  const std::vector<TuningEntry>& entries() const { return entries_; }

 private:
  std::vector<TuningEntry> entries_;
};

}  // namespace cbmpi::coll
