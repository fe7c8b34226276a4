// The collective-algorithm engine: every algorithm of every collective gives
// the reference result at every containers-per-host shape, the tuning-file
// parser round-trips and rejects garbage with line numbers, and selection is
// one table lookup: the last matching row wins, a two_level row yields to the
// row beneath it where no hierarchy is available, and a call no row matches
// fails naming the call.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "mpi/coll/tuning_table.hpp"
#include "mpi/runtime.hpp"

namespace cbmpi {
namespace {

using container::DeploymentSpec;
using fabric::LocalityPolicy;
using mpi::JobConfig;
using mpi::ReduceOp;
using mpi::run_job;

JobConfig config_for(int hosts, int cph, int procs) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::containers(hosts, cph, procs);
  cfg.policy = LocalityPolicy::ContainerAware;
  return cfg;
}

// ---------------------------------------------------------------------------
// Result equivalence: each algorithm is pinned in turn via the tuning table
// and must reproduce the analytically known result. Two deployments cover
// pow2 (8) and non-pow2 (12) rank counts — the latter exercises the
// deterministic downgrades (Rabenseifner / recursive doubling ->
// reduce_bcast, etc.). Every collective runs over int, std::uint8_t and
// double (integral values, so sums are exact and uint8 wraps the same way
// in any order); the data-moving ones also run over a 12-byte struct, whose
// size catches byte-offset slips that 4-byte ints hide.
// ---------------------------------------------------------------------------

struct Elem12 {
  std::int32_t a;
  std::int32_t b;
  std::int32_t c;
  bool operator==(const Elem12&) const = default;
};
static_assert(sizeof(Elem12) == 12);

template <typename T>
T val(int x) {
  if constexpr (std::is_arithmetic_v<T>)
    return static_cast<T>(x);
  else
    return T{x, -x, 3 * x};
}

template <typename T>
T& at(std::vector<T>& v, int i) {
  return v[static_cast<std::size_t>(i)];
}

class CollEngineShapes : public testing::TestWithParam<int> {};  // cph

template <typename T>
void check_collective(const JobConfig& base, coll::Coll c, coll::Algo algo,
                      std::size_t elems) {
  auto cfg = base;
  cfg.coll_tuning.add({.coll = c, .algo = algo});
  const int n = cfg.deployment.total_ranks();
  run_job(cfg, [&, n](mpi::Process& p) {
    auto& comm = p.world();
    const int r = p.rank();
    const int ni = static_cast<int>(elems);
    switch (c) {
      case coll::Coll::Barrier:
        for (int i = 0; i < 3; ++i) comm.barrier();
        break;
      case coll::Coll::Bcast: {
        const int root = 1 % n;
        std::vector<T> data(elems, val<T>(-1));
        if (r == root)
          for (int i = 0; i < ni; ++i) at(data, i) = val<T>(i * 7 + 3);
        comm.bcast(std::span<T>(data), root);
        for (int i = 0; i < ni; ++i)
          ASSERT_EQ(at(data, i), val<T>(i * 7 + 3));
        break;
      }
      case coll::Coll::Reduce:
        if constexpr (std::is_arithmetic_v<T>) {
          const int root = n - 1;
          std::vector<T> in(elems), out(elems);
          for (int i = 0; i < ni; ++i) at(in, i) = val<T>(r + i);
          comm.reduce(std::span<const T>(in), std::span<T>(out), ReduceOp::Sum, root);
          if (r == root) {
            for (int i = 0; i < ni; ++i)
              ASSERT_EQ(at(out, i), val<T>(n * (n - 1) / 2 + n * i));
          }
        }
        break;
      case coll::Coll::Allreduce:
        if constexpr (std::is_arithmetic_v<T>) {
          std::vector<T> in(elems), out(elems);
          for (int i = 0; i < ni; ++i) at(in, i) = val<T>(r + i);
          comm.allreduce(std::span<const T>(in), std::span<T>(out), ReduceOp::Sum);
          for (int i = 0; i < ni; ++i)
            ASSERT_EQ(at(out, i), val<T>(n * (n - 1) / 2 + n * i));
        }
        break;
      case coll::Coll::Allgather: {
        std::vector<T> mine(elems), all(elems * static_cast<std::size_t>(n));
        for (int i = 0; i < ni; ++i) at(mine, i) = val<T>(r * 1000 + i);
        comm.allgather(std::span<const T>(mine), std::span<T>(all));
        for (int peer = 0; peer < n; ++peer)
          for (int i = 0; i < ni; ++i)
            ASSERT_EQ(at(all, peer * ni + i), val<T>(peer * 1000 + i));
        break;
      }
      case coll::Coll::Alltoall: {
        std::vector<T> send(elems * static_cast<std::size_t>(n));
        std::vector<T> recv(send.size());
        for (int peer = 0; peer < n; ++peer)
          for (int i = 0; i < ni; ++i)
            at(send, peer * ni + i) = val<T>(r * 10000 + peer * 100 + i);
        comm.alltoall(std::span<const T>(send), std::span<T>(recv));
        for (int peer = 0; peer < n; ++peer)
          for (int i = 0; i < ni; ++i)
            ASSERT_EQ(at(recv, peer * ni + i),
                      val<T>(peer * 10000 + r * 100 + i));
        break;
      }
      case coll::Coll::Count_:
        break;
    }
  });
}

TEST_P(CollEngineShapes, EveryAlgorithmMatchesReference) {
  const int cph = GetParam();
  // 2x4 = 8 ranks (pow2) and 3x4 = 12 ranks (non-pow2, forces the downgrade
  // paths); 16 and 3000 elements straddle the small/large size classes.
  for (const auto& base :
       {config_for(2, cph, 4), config_for(3, cph, 4)}) {
    for (std::size_t ci = 0; ci < coll::kColls; ++ci) {
      const auto c = static_cast<coll::Coll>(ci);
      const bool moves_data = c == coll::Coll::Bcast || c == coll::Coll::Allgather ||
                              c == coll::Coll::Alltoall;
      for (const coll::Algo algo : coll::algorithms_for(c)) {
        for (const std::size_t elems : {std::size_t{16}, std::size_t{3000}}) {
          const std::string where =
              std::string(to_string(c)) + "/" + to_string(algo) + " elems=" +
              std::to_string(elems) + " ranks=" +
              std::to_string(base.deployment.total_ranks()) + " cph=" + std::to_string(cph);
          {
            SCOPED_TRACE(where + " int");
            check_collective<int>(base, c, algo, elems);
          }
          {
            SCOPED_TRACE(where + " uint8");
            check_collective<std::uint8_t>(base, c, algo, elems);
          }
          {
            SCOPED_TRACE(where + " double");
            check_collective<double>(base, c, algo, elems);
          }
          if (moves_data) {
            SCOPED_TRACE(where + " 12-byte struct");
            check_collective<Elem12>(base, c, algo, elems);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ContainersPerHost, CollEngineShapes,
                         testing::Values(1, 2, 4));

// ---------------------------------------------------------------------------
// Buffer sizes are checked at each collective's entry, before an algorithm is
// chosen: a short output raises the same error under every algorithm,
// two-level included, on a group leader (rank 0) and on a non-leader (rank 1)
// alike, whether the output is one element short or empty. Reduce is rooted
// at the short rank, whose output is the only one that counts.
// ---------------------------------------------------------------------------

/// Runs `c` under `algo` on 2 hosts x 2 containers x 4 procs with rank
/// `short_rank`'s output one element short (or empty); returns the error.
std::string short_output_error(coll::Coll c, coll::Algo algo, int short_rank,
                               bool empty) {
  auto cfg = config_for(2, 2, 4);
  cfg.coll_tuning.add({.coll = c, .algo = algo});
  const auto n = static_cast<std::size_t>(cfg.deployment.total_ranks());
  constexpr std::size_t kElems = 16;
  try {
    run_job(cfg, [&](mpi::Process& p) {
      const std::vector<int> in(kElems, p.rank());
      std::size_t out_size = c == coll::Coll::Allgather ? kElems * n : kElems;
      if (p.rank() == short_rank) out_size = empty ? 0 : out_size - 1;
      std::vector<int> out(out_size);
      const std::span<const int> in_span(in);
      const std::span<int> out_span(out);
      if (c == coll::Coll::Reduce)
        p.world().reduce(in_span, out_span, ReduceOp::Sum, short_rank);
      else if (c == coll::Coll::Allreduce)
        p.world().allreduce(in_span, out_span, ReduceOp::Sum);
      else
        p.world().allgather(in_span, out_span);
    });
  } catch (const Error& e) {
    return e.what();
  }
  return "no error";
}

TEST(CollEngineArguments, ShortOutputFailsUnderEveryAlgorithm) {
  for (const coll::Coll c :
       {coll::Coll::Reduce, coll::Coll::Allreduce, coll::Coll::Allgather}) {
    for (const coll::Algo algo : coll::algorithms_for(c)) {
      for (const bool empty : {false, true}) {
        for (const int short_rank : {1, 0}) {
          const std::string error = short_output_error(c, algo, short_rank, empty);
          EXPECT_NE(error.find("output buffer too small"), std::string::npos)
              << to_string(c) << "/" << to_string(algo) << " short rank "
              << short_rank << (empty ? " (empty)" : " (one short)")
              << ": " << error;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Selection is observable: the pinned algorithm shows up in the profile's
// per-collective algorithm counters and as coll-algo trace events.
// ---------------------------------------------------------------------------

TEST(CollEngineObservability, PinnedAlgorithmShowsInProfileAndTrace) {
  auto cfg = config_for(2, 2, 4);
  cfg.coll_tuning.add({.coll = coll::Coll::Bcast, .algo = coll::Algo::FlatTree});
  cfg.record_trace = true;
  const auto result = run_job(cfg, [](mpi::Process& p) {
    std::vector<int> data(64, p.rank() == 0 ? 7 : 0);
    p.world().bcast(std::span<int>(data), 0);
  });
  EXPECT_EQ(result.profile.total.coll_algo(coll::Coll::Bcast,
                                           coll::Algo::FlatTree),
            8u);  // one per rank
  EXPECT_EQ(result.profile.total.coll_algo(coll::Coll::Bcast,
                                           coll::Algo::TwoLevel),
            0u);
  bool saw_event = false;
  for (const auto& e : result.trace)
    if (e.kind == sim::TraceKind::CollAlgo && e.note == "bcast/flat_tree")
      saw_event = true;
  EXPECT_TRUE(saw_event);
}

// ---------------------------------------------------------------------------
// Parser: round-trips, line-numbered rejection, precedence.
// ---------------------------------------------------------------------------

TEST(CollTuningTable, SerializeParseRoundTrip) {
  const auto shipped = coll::TuningTable::container_defaults();
  const auto reparsed = coll::TuningTable::parse(shipped.serialize());
  EXPECT_EQ(reparsed.serialize(), shipped.serialize());

  const std::string custom =
      "# comment line\n"
      "bcast 2-8 1-4 1K-64K binomial\n"
      "allreduce 4- * 32K- rabenseifner  # trailing comment\n"
      "alltoall * -2 -4095 bruck\n"
      "barrier 2 * * dissemination\n";
  const auto parsed = coll::TuningTable::parse(custom);
  ASSERT_EQ(parsed.entries().size(), 4u);
  EXPECT_EQ(coll::TuningTable::parse(parsed.serialize()).serialize(),
            parsed.serialize());
}

TEST(CollTuningTable, RejectsMalformedEntriesWithLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    try {
      coll::TuningTable::parse(text, "t.conf");
      FAIL() << "expected parse error for: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << "message was: " << e.what();
    }
  };
  expect_error("bcast * *\n", "t.conf:1: expected 5 fields");
  expect_error("\nbcast * * * binomial extra\n", "t.conf:2: trailing token 'extra'");
  expect_error("frobnicate * * * binomial\n", "t.conf:1: unknown collective");
  expect_error("bcast 8-2 * * binomial\n", "t.conf:1: bad ranks range");
  expect_error("bcast * x * binomial\n", "t.conf:1: bad containers/host range");
  expect_error("bcast * * 1Q binomial\n", "t.conf:1: bad msg-size range");
  expect_error("bcast * * * warp_drive\n", "t.conf:1: unknown algorithm");
  expect_error("bcast * * * ring\n", "t.conf:1: algorithm 'ring' is not valid");
  expect_error("ok-is-not-checked-first * *\n# line 2\nbcast * * * pairwise\n",
               "t.conf:1:");
}

TEST(CollTuningTable, RejectsAnAutoRowWithItsFileAndLine) {
  // The table is the only source of a choice: no token defers to code.
  try {
    coll::TuningTable::parse("bcast * * * binomial\nreduce * * * auto\n", "t.conf");
    FAIL() << "expected a parse error for an auto row";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("t.conf:2: unknown algorithm 'auto'"),
              std::string::npos)
        << e.what();
  }
}

TEST(CollTuningTable, LastMatchWinsAndRangesFilter) {
  const auto t = coll::TuningTable::parse(
      "bcast * * * binomial\n"
      "bcast * * 64K- vandegeijn\n"
      "bcast 2-4 * * flat_tree\n");
  // ranks=8: last matching row for small sizes is the first one.
  EXPECT_EQ(t.select(coll::Coll::Bcast, 1_KiB, 8, 1, false), coll::Algo::Binomial);
  EXPECT_EQ(t.select(coll::Coll::Bcast, 64_KiB, 8, 1, false), coll::Algo::VanDeGeijn);
  // ranks=4: the last row shadows both earlier ones.
  EXPECT_EQ(t.select(coll::Coll::Bcast, 64_KiB, 4, 1, false), coll::Algo::FlatTree);
  // No row for another collective: an Error (its text is checked end to end).
  EXPECT_THROW((void)t.select(coll::Coll::Reduce, 1_KiB, 8, 1, true), Error);
  // Appended rows are held to the same collective/algorithm pairing.
  coll::TuningTable pinned;
  EXPECT_THROW(pinned.add({.coll = coll::Coll::Bcast, .algo = coll::Algo::Ring}),
               Error);
}

TEST(CollEngineEndToEnd, AmbientEnvironmentDoesNotChangeTheJob) {
  // The job's tuning table is the only source of an algorithm: a variable
  // named like an MVAPICH2-style algorithm pin changes neither the choice
  // nor the job time.
  const auto cfg = config_for(2, 2, 4);
  const auto body = [](mpi::Process& p) {
    const auto sum = p.world().allreduce_value<std::int64_t>(1, ReduceOp::Sum);
    ASSERT_EQ(sum, p.size());
  };
  const auto clean = run_job(cfg, body);
  ASSERT_EQ(setenv("CBMPI_ALLREDUCE_ALGORITHM", "reduce_bcast", 1), 0);
  const auto ambient = run_job(cfg, body);
  unsetenv("CBMPI_ALLREDUCE_ALGORITHM");
  const auto table_algo = cfg.coll_tuning.select(
      coll::Coll::Allreduce, sizeof(std::int64_t), 8, 2, true);
  ASSERT_EQ(table_algo, coll::Algo::RecursiveDoubling);
  EXPECT_EQ(ambient.profile.total.coll_algo(coll::Coll::Allreduce, table_algo),
            8u);  // one per rank
  EXPECT_EQ(ambient.profile.total.coll_algo(coll::Coll::Allreduce,
                                            coll::Algo::ReduceBcast),
            0u);
  EXPECT_EQ(ambient.job_time, clean.job_time);
}

TEST(CollEngineEndToEnd, JobWithoutARowForACallFailsNamingIt) {
  // A table that speaks only for bcast cannot answer the barrier.
  auto cfg = config_for(2, 2, 4);
  cfg.coll_tuning = coll::TuningTable::parse("bcast * * * binomial\n");
  try {
    run_job(cfg, [](mpi::Process& p) { p.world().barrier(); });
    ADD_FAILURE() << "expected an Error for a barrier no row matches";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "no tuning-table row for barrier of 0 bytes over 8 ranks at 2 "
                  "containers per host"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Hierarchy: a two_level row counts only where a locality hierarchy can run
// it; elsewhere the last matching row beneath it answers.
// ---------------------------------------------------------------------------

TEST(CollTuningTable, TwoLevelYieldsToTheRowBeneathWhenUnavailable) {
  const auto shipped = coll::TuningTable::container_defaults();
  EXPECT_EQ(shipped.select(coll::Coll::Barrier, 0, 8, 2, true), coll::Algo::TwoLevel);
  EXPECT_EQ(shipped.select(coll::Coll::Barrier, 0, 8, 2, false),
            coll::Algo::Dissemination);
  EXPECT_EQ(shipped.select(coll::Coll::Reduce, 1_KiB, 8, 2, false),
            coll::Algo::Binomial);
  EXPECT_EQ(shipped.select(coll::Coll::Bcast, 1_KiB, 8, 2, false),
            coll::Algo::Binomial);
  // The row beneath, not the first one: rows above a two_level row still
  // follow last-match order among themselves.
  const auto t = coll::TuningTable::parse(
      "bcast * * * binomial\n"
      "bcast * * * flat_tree\n"
      "bcast * * * two_level\n");
  EXPECT_EQ(t.select(coll::Coll::Bcast, 1_KiB, 8, 2, true), coll::Algo::TwoLevel);
  EXPECT_EQ(t.select(coll::Coll::Bcast, 1_KiB, 8, 2, false), coll::Algo::FlatTree);
}

// A flat-collectives job runs table.flat(): with the hierarchy available it
// must choose exactly what the full table chooses without it. A parsed table
// runs merged over the shipped defaults, as cbmpirun --tuning merges it.
TEST(CollTuningTable, FlatTableChoosesWhatAnUnavailableHierarchyDoes) {
  auto merged = coll::TuningTable::container_defaults();
  merged.merge(coll::TuningTable::parse(
      "bcast * * * two_level\n"
      "allreduce 4- 2- -8K two_level\n"
      "allgather * * 1K- two_level\n"
      "alltoall * * -4K bruck\n"
      "reduce 8 * * binomial\n"));
  for (const auto& table : {coll::TuningTable::container_defaults(), merged}) {
    const auto flat = table.flat();
    for (const int cph : {1, 2, 4}) {
      for (std::size_t c = 0; c < coll::kColls; ++c) {
        const auto coll = static_cast<coll::Coll>(c);
        for (const Bytes size : {Bytes{0}, 1_KiB, 8_KiB, 32_KiB, 64_KiB, 1_MiB}) {
          for (const int ranks : {2, 3, 4, 8, 12, 16, 64}) {
            EXPECT_EQ(flat.select(coll, size, ranks, cph, true),
                      table.select(coll, size, ranks, cph, false))
                << coll::to_string(coll) << " " << size << " B, " << ranks
                << " ranks, cph " << cph;
          }
        }
      }
    }
  }
  // The user's bcast pin at 64 KiB over a 2-rank group (the local bcast of
  // a two-level allgather): the shipped large-message row beneath answers.
  EXPECT_EQ(merged.select(coll::Coll::Bcast, 64_KiB, 2, 2, true), coll::Algo::TwoLevel);
  EXPECT_EQ(merged.select(coll::Coll::Bcast, 64_KiB, 2, 2, false),
            coll::Algo::VanDeGeijn);
  EXPECT_EQ(merged.flat().select(coll::Coll::Bcast, 64_KiB, 2, 2, true),
            coll::Algo::VanDeGeijn);
}

}  // namespace
}  // namespace cbmpi
