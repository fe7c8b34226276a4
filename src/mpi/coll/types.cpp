#include "mpi/coll/types.hpp"

#include <array>

namespace cbmpi::coll {

const char* to_string(Coll coll) {
  switch (coll) {
    case Coll::Barrier: return "barrier";
    case Coll::Bcast: return "bcast";
    case Coll::Reduce: return "reduce";
    case Coll::Allreduce: return "allreduce";
    case Coll::Allgather: return "allgather";
    case Coll::Alltoall: return "alltoall";
    case Coll::Count_: break;
  }
  return "?";
}

const char* to_string(Algo algo) {
  switch (algo) {
    case Algo::TwoLevel: return "two_level";
    case Algo::Dissemination: return "dissemination";
    case Algo::FlatTree: return "flat_tree";
    case Algo::Binomial: return "binomial";
    case Algo::VanDeGeijn: return "vandegeijn";
    case Algo::RecursiveDoubling: return "recursive_doubling";
    case Algo::Rabenseifner: return "rabenseifner";
    case Algo::ReduceBcast: return "reduce_bcast";
    case Algo::Ring: return "ring";
    case Algo::GatherBcast: return "gather_bcast";
    case Algo::Pairwise: return "pairwise";
    case Algo::Bruck: return "bruck";
    case Algo::Spread: return "spread";
    case Algo::Count_: break;
  }
  return "?";
}

std::optional<Coll> parse_coll(std::string_view token) {
  for (std::size_t i = 0; i < kColls; ++i) {
    const auto coll = static_cast<Coll>(i);
    if (token == to_string(coll)) return coll;
  }
  return std::nullopt;
}

std::optional<Algo> parse_algo(std::string_view token) {
  for (std::size_t i = 0; i < kAlgos; ++i) {
    const auto algo = static_cast<Algo>(i);
    if (token == to_string(algo)) return algo;
  }
  return std::nullopt;
}

namespace {

constexpr std::array kBarrierAlgos{Algo::TwoLevel, Algo::Dissemination,
                                   Algo::FlatTree};
constexpr std::array kBcastAlgos{Algo::TwoLevel, Algo::Binomial, Algo::FlatTree,
                                 Algo::VanDeGeijn};
constexpr std::array kReduceAlgos{Algo::TwoLevel, Algo::Binomial, Algo::FlatTree};
constexpr std::array kAllreduceAlgos{Algo::TwoLevel, Algo::RecursiveDoubling,
                                     Algo::Rabenseifner, Algo::ReduceBcast};
constexpr std::array kAllgatherAlgos{Algo::TwoLevel, Algo::Ring, Algo::GatherBcast};
constexpr std::array kAlltoallAlgos{Algo::Pairwise, Algo::Bruck, Algo::Spread};

}  // namespace

std::span<const Algo> algorithms_for(Coll coll) {
  switch (coll) {
    case Coll::Barrier: return kBarrierAlgos;
    case Coll::Bcast: return kBcastAlgos;
    case Coll::Reduce: return kReduceAlgos;
    case Coll::Allreduce: return kAllreduceAlgos;
    case Coll::Allgather: return kAllgatherAlgos;
    case Coll::Alltoall: return kAlltoallAlgos;
    case Coll::Count_: break;
  }
  return {};
}

bool valid_for(Coll coll, Algo algo) {
  for (const Algo a : algorithms_for(coll))
    if (a == algo) return true;
  return false;
}

}  // namespace cbmpi::coll
