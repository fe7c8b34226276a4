// The collective-algorithm engine: every algorithm of every collective gives
// the reference result at every containers-per-host shape, the tuning-file
// parser round-trips and rejects garbage with line numbers, and selection
// precedence (file entry > shipped default > heuristic) holds with the table
// as the only source of a choice.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mpi/coll/engine.hpp"
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
// and must reproduce the analytically known result (int payloads, so no
// reduction-order ambiguity). Two deployments cover pow2 (8) and non-pow2
// (9) rank counts — the latter exercises the deterministic downgrades
// (Rabenseifner / recursive doubling -> reduce_bcast, etc.).
// ---------------------------------------------------------------------------

class CollEngineShapes : public testing::TestWithParam<int> {};  // cph

void check_collective(const JobConfig& base, coll::Coll c, coll::Algo algo,
                      std::size_t elems) {
  auto cfg = base;
  cfg.coll_tuning.add({.coll = c, .algo = algo});
  const int n = cfg.deployment.total_ranks();
  run_job(cfg, [&, n](mpi::Process& p) {
    auto& comm = p.world();
    const int r = p.rank();
    switch (c) {
      case coll::Coll::Barrier:
        for (int i = 0; i < 3; ++i) comm.barrier();
        break;
      case coll::Coll::Bcast: {
        const int root = 1 % n;
        std::vector<int> data(elems, -1);
        if (r == root)
          for (std::size_t i = 0; i < elems; ++i)
            data[i] = static_cast<int>(i) * 7 + 3;
        comm.bcast(std::span<int>(data), root);
        for (std::size_t i = 0; i < elems; ++i)
          ASSERT_EQ(data[i], static_cast<int>(i) * 7 + 3);
        break;
      }
      case coll::Coll::Reduce: {
        const int root = n - 1;
        std::vector<int> in(elems), out(elems);
        for (std::size_t i = 0; i < elems; ++i) in[i] = r + static_cast<int>(i);
        comm.reduce(std::span<const int>(in), std::span<int>(out),
                    ReduceOp::Sum, root);
        if (r == root) {
          for (std::size_t i = 0; i < elems; ++i)
            ASSERT_EQ(out[i], n * (n - 1) / 2 + n * static_cast<int>(i));
        }
        break;
      }
      case coll::Coll::Allreduce: {
        std::vector<int> in(elems), out(elems);
        for (std::size_t i = 0; i < elems; ++i) in[i] = r + static_cast<int>(i);
        comm.allreduce(std::span<const int>(in), std::span<int>(out),
                       ReduceOp::Sum);
        for (std::size_t i = 0; i < elems; ++i)
          ASSERT_EQ(out[i], n * (n - 1) / 2 + n * static_cast<int>(i));
        break;
      }
      case coll::Coll::Allgather: {
        std::vector<int> mine(elems), all(elems * static_cast<std::size_t>(n));
        for (std::size_t i = 0; i < elems; ++i)
          mine[i] = r * 1000 + static_cast<int>(i);
        comm.allgather(std::span<const int>(mine), std::span<int>(all));
        for (int peer = 0; peer < n; ++peer)
          for (std::size_t i = 0; i < elems; ++i)
            ASSERT_EQ(all[static_cast<std::size_t>(peer) * elems + i],
                      peer * 1000 + static_cast<int>(i));
        break;
      }
      case coll::Coll::Alltoall: {
        std::vector<int> send(elems * static_cast<std::size_t>(n));
        std::vector<int> recv(send.size());
        for (int peer = 0; peer < n; ++peer)
          for (std::size_t i = 0; i < elems; ++i)
            send[static_cast<std::size_t>(peer) * elems + i] =
                r * 10000 + peer * 100 + static_cast<int>(i);
        comm.alltoall(std::span<const int>(send), std::span<int>(recv));
        for (int peer = 0; peer < n; ++peer)
          for (std::size_t i = 0; i < elems; ++i)
            ASSERT_EQ(recv[static_cast<std::size_t>(peer) * elems + i],
                      peer * 10000 + r * 100 + static_cast<int>(i));
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
      for (const coll::Algo algo : coll::algorithms_for(c)) {
        if (algo == coll::Algo::Auto) continue;
        for (const std::size_t elems : {std::size_t{16}, std::size_t{3000}}) {
          SCOPED_TRACE(std::string(to_string(c)) + "/" + to_string(algo) +
                       " elems=" + std::to_string(elems) + " ranks=" +
                       std::to_string(base.deployment.total_ranks()) +
                       " cph=" + std::to_string(cph));
          check_collective(base, c, algo, elems);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ContainersPerHost, CollEngineShapes,
                         testing::Values(1, 2, 4));

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

TEST(CollTuningTable, LastMatchWinsAndRangesFilter) {
  const auto t = coll::TuningTable::parse(
      "bcast * * * binomial\n"
      "bcast * * 64K- vandegeijn\n"
      "bcast 2-4 * * flat_tree\n");
  // ranks=8: last matching row for small sizes is the first one.
  EXPECT_EQ(t.select(coll::Coll::Bcast, 1_KiB, 8, 1), coll::Algo::Binomial);
  EXPECT_EQ(t.select(coll::Coll::Bcast, 64_KiB, 8, 1), coll::Algo::VanDeGeijn);
  // ranks=4: the last row shadows both earlier ones.
  EXPECT_EQ(t.select(coll::Coll::Bcast, 64_KiB, 4, 1), coll::Algo::FlatTree);
  // no entry for other collectives -> Auto.
  EXPECT_EQ(t.select(coll::Coll::Reduce, 1_KiB, 8, 1), coll::Algo::Auto);
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
      coll::Coll::Allreduce, sizeof(std::int64_t), 8, 2);
  ASSERT_EQ(table_algo, coll::Algo::RecursiveDoubling);
  EXPECT_EQ(ambient.profile.total.coll_algo(coll::Coll::Allreduce, table_algo),
            8u);  // one per rank
  EXPECT_EQ(ambient.profile.total.coll_algo(coll::Coll::Allreduce,
                                            coll::Algo::ReduceBcast),
            0u);
  EXPECT_EQ(ambient.job_time, clean.job_time);
}

// ---------------------------------------------------------------------------
// Engine resolution: TwoLevel demotes to the heuristic when the hierarchy is
// unavailable, and the heuristic preserves the pre-engine thresholds.
// ---------------------------------------------------------------------------

TEST(CollEngine, TwoLevelDemotesToHeuristicWhenUnavailable) {
  const coll::Engine engine(coll::TuningTable::container_defaults(), 2);
  EXPECT_EQ(engine.choose(coll::Coll::Barrier, 0, 8, true),
            coll::Algo::TwoLevel);
  EXPECT_EQ(engine.choose(coll::Coll::Barrier, 0, 8, false),
            coll::Algo::Dissemination);
}

TEST(CollEngine, EmptyTableFallsBackToLegacyHeuristic) {
  // Bcast heuristic: binomial small, van de Geijn large (>= threshold, >= 4
  // ranks), never van de Geijn on tiny communicators.
  const coll::Engine engine(coll::TuningTable{}, 1);
  EXPECT_EQ(engine.choose(coll::Coll::Bcast, 1_KiB, 8, false),
            coll::Algo::Binomial);
  EXPECT_EQ(engine.choose(coll::Coll::Bcast, coll::kBcastLargeThreshold, 8,
                          false),
            coll::Algo::VanDeGeijn);
  EXPECT_EQ(engine.choose(coll::Coll::Bcast, coll::kBcastLargeThreshold, 2,
                          false),
            coll::Algo::Binomial);
  EXPECT_EQ(engine.choose(coll::Coll::Allreduce, 1_KiB, 8, false),
            coll::Algo::RecursiveDoubling);
  EXPECT_EQ(engine.choose(coll::Coll::Allreduce, 1_KiB, 6, false),
            coll::Algo::ReduceBcast);  // non-pow2
  EXPECT_EQ(engine.choose(coll::Coll::Allreduce,
                          coll::kAllreduceLargeThreshold, 8, false),
            coll::Algo::Rabenseifner);
  EXPECT_EQ(engine.choose(coll::Coll::Allgather, 1_KiB, 8, false),
            coll::Algo::Ring);
  EXPECT_EQ(engine.choose(coll::Coll::Alltoall, 1_KiB, 8, false),
            coll::Algo::Pairwise);
}

}  // namespace
}  // namespace cbmpi
