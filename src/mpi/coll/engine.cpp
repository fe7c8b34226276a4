#include "mpi/coll/engine.hpp"

namespace cbmpi::coll {

Algo Engine::choose(Coll coll, Bytes bytes, int ranks,
                    bool two_level_available) const {
  Algo algo = table_.select(coll, bytes, ranks, cph_);
  if (algo == Algo::TwoLevel && !two_level_available) algo = Algo::Auto;
  if (algo == Algo::Auto) algo = heuristic(coll, bytes, ranks);
  return algo;
}

Algo Engine::heuristic(Coll coll, Bytes bytes, int ranks) const {
  // These are the pre-engine hard-wired choices, so Auto (and therefore an
  // empty tuning table on a trivial-locality job) reproduces the legacy
  // schedule exactly.
  switch (coll) {
    case Coll::Barrier:
      return Algo::Dissemination;
    case Coll::Bcast:
      return (bytes >= kBcastLargeThreshold && ranks >= 4)
                 ? Algo::VanDeGeijn
                 : Algo::Binomial;
    case Coll::Reduce:
      return Algo::Binomial;
    case Coll::Allreduce: {
      const bool pow2 = ranks > 0 && (ranks & (ranks - 1)) == 0;
      if (!pow2) return Algo::ReduceBcast;
      return (bytes >= kAllreduceLargeThreshold && ranks >= 4)
                 ? Algo::Rabenseifner
                 : Algo::RecursiveDoubling;
    }
    case Coll::Allgather:
      return Algo::Ring;
    case Coll::Alltoall:
      return Algo::Pairwise;
    case Coll::Count_:
      break;
  }
  return Algo::Auto;  // unreachable
}

}  // namespace cbmpi::coll
