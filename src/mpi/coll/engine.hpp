// The collective-algorithm engine: one per job, consulted by every
// communicator at every collective call site.
//
// The engine separates *what* a collective does (semantics, implemented once
// over bytes in coll/algorithms.cpp) from *how* it executes (which
// algorithm runs for this message size / rank count / locality shape). It
// owns the job's TuningTable — shipped container defaults, merged with an
// optional `--tuning=<file>` table — the only source of an algorithm choice,
// plus the job's containers-per-host figure from the placement.
//
// `choose()` resolves a call site to a concrete algorithm:
//   1. table selection (TuningTable::select);
//   2. TwoLevel demoted to Auto when the caller has no usable locality
//      hierarchy (trivial groups, uneven allgather groups, or a sub-phase);
//   3. Auto resolved through the same size/rank heuristics the collectives
//      hard-wired before the engine existed (switching at
//      kBcastLargeThreshold / kAllreduceLargeThreshold), so an empty table
//      reproduces the legacy behaviour bit-for-bit.
//
// The returned algorithm may still be *downgraded* at the dispatch site for
// datatype/shape reasons the engine cannot see (e.g. Rabenseifner needs a
// power-of-two list and an operation with a zero identity); dispatch records
// the algorithm that actually ran.
#pragma once

#include "common/units.hpp"
#include "mpi/coll/tuning_table.hpp"
#include "mpi/coll/types.hpp"

namespace cbmpi::coll {

class Engine {
 public:
  /// `cph` is the job's containers-per-host (max over hosts, >= 1), the
  /// locality-shape key of the tuning table.
  Engine(TuningTable table, int cph)
      : table_(std::move(table)), cph_(cph < 1 ? 1 : cph) {}

  /// Resolves the call site to a concrete algorithm (never Auto; TwoLevel
  /// only when `two_level_available`). `ranks` is the size of the rank list
  /// the collective runs over (sub-phases pass their sub-list size).
  Algo choose(Coll coll, Bytes bytes, int ranks, bool two_level_available) const;

 private:
  /// The Auto fallback (step 3 of choose()).
  Algo heuristic(Coll coll, Bytes bytes, int ranks) const;

  TuningTable table_;
  int cph_;
};

}  // namespace cbmpi::coll
