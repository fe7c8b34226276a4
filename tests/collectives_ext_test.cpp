// Tests for the extended collectives: v-variants, reduce_scatter, prefix
// scans, and the size-based algorithm switches (van de Geijn broadcast,
// Rabenseifner allreduce).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>

#include "mpi/runtime.hpp"

namespace cbmpi {
namespace {

using container::DeploymentSpec;
using fabric::LocalityPolicy;
using mpi::JobConfig;
using mpi::ReduceOp;
using mpi::run_job;

struct ExtCase {
  int hosts;
  int containers;
  int procs_per_host;
  LocalityPolicy policy;
};

class ExtCollectives : public testing::TestWithParam<ExtCase> {
 protected:
  JobConfig config() const {
    const auto& c = GetParam();
    JobConfig cfg;
    cfg.deployment =
        c.containers == 0
            ? DeploymentSpec::native_hosts(c.hosts, c.procs_per_host)
            : DeploymentSpec::containers(c.hosts, c.containers, c.procs_per_host);
    cfg.policy = c.policy;
    return cfg;
  }
  int nranks() const { return GetParam().hosts * GetParam().procs_per_host; }
};

TEST_P(ExtCollectives, GathervVariableBlocks) {
  const int n = nranks();
  run_job(config(), [n](mpi::Process& p) {
    // Rank r contributes r+1 copies of r.
    std::vector<int> counts(static_cast<std::size_t>(n)), displs(counts.size());
    int total = 0;
    for (int r = 0; r < n; ++r) {
      counts[static_cast<std::size_t>(r)] = r + 1;
      displs[static_cast<std::size_t>(r)] = total;
      total += r + 1;
    }
    std::vector<int> mine(static_cast<std::size_t>(p.rank() + 1), p.rank());
    std::vector<int> all(static_cast<std::size_t>(total), -1);
    p.world().gatherv(std::span<const int>(mine), std::span<int>(all),
                      std::span<const int>(counts), std::span<const int>(displs),
                      n - 1);
    if (p.rank() == n - 1) {
      for (int r = 0; r < n; ++r)
        for (int k = 0; k <= r; ++k)
          ASSERT_EQ(all[static_cast<std::size_t>(
                        displs[static_cast<std::size_t>(r)] + k)],
                    r);
    }
  });
}

TEST_P(ExtCollectives, ScattervRoundTripsGatherv) {
  const int n = nranks();
  run_job(config(), [n](mpi::Process& p) {
    std::vector<int> counts(static_cast<std::size_t>(n)), displs(counts.size());
    int total = 0;
    for (int r = 0; r < n; ++r) {
      counts[static_cast<std::size_t>(r)] = (r % 3) + 1;
      displs[static_cast<std::size_t>(r)] = total;
      total += (r % 3) + 1;
    }
    std::vector<int> all(static_cast<std::size_t>(total));
    if (p.rank() == 0) std::iota(all.begin(), all.end(), 100);
    std::vector<int> mine(static_cast<std::size_t>((p.rank() % 3) + 1), -1);
    p.world().scatterv(std::span<const int>(all), std::span<const int>(counts),
                       std::span<const int>(displs), std::span<int>(mine), 0);
    for (std::size_t k = 0; k < mine.size(); ++k)
      ASSERT_EQ(mine[k],
                100 + displs[static_cast<std::size_t>(p.rank())] + static_cast<int>(k));

    // Round-trip back with gatherv.
    std::vector<int> regathered(static_cast<std::size_t>(total), -1);
    p.world().gatherv(std::span<const int>(mine), std::span<int>(regathered),
                      std::span<const int>(counts), std::span<const int>(displs), 0);
    if (p.rank() == 0) {
      for (int k = 0; k < total; ++k)
        ASSERT_EQ(regathered[static_cast<std::size_t>(k)], 100 + k);
    }
  });
}

TEST_P(ExtCollectives, AllgathervAssemblesInRankOrder) {
  const int n = nranks();
  run_job(config(), [n](mpi::Process& p) {
    std::vector<int> counts(static_cast<std::size_t>(n)), displs(counts.size());
    int total = 0;
    for (int r = 0; r < n; ++r) {
      counts[static_cast<std::size_t>(r)] = r % 2 == 0 ? 2 : 3;
      displs[static_cast<std::size_t>(r)] = total;
      total += counts[static_cast<std::size_t>(r)];
    }
    std::vector<int> mine(
        static_cast<std::size_t>(counts[static_cast<std::size_t>(p.rank())]),
        p.rank() * 11);
    std::vector<int> all(static_cast<std::size_t>(total), -1);
    p.world().allgatherv(std::span<const int>(mine), std::span<int>(all),
                         std::span<const int>(counts), std::span<const int>(displs));
    for (int r = 0; r < n; ++r)
      for (int k = 0; k < counts[static_cast<std::size_t>(r)]; ++k)
        ASSERT_EQ(all[static_cast<std::size_t>(displs[static_cast<std::size_t>(r)] + k)],
                  r * 11);
  });
}

TEST_P(ExtCollectives, ReduceScatterBlockSumsPerBlock) {
  const int n = nranks();
  run_job(config(), [n](mpi::Process& p) {
    constexpr std::size_t kBlock = 5;
    std::vector<std::int64_t> in(kBlock * static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = p.rank() + static_cast<std::int64_t>(i);
    std::vector<std::int64_t> out(kBlock, -1);
    p.world().reduce_scatter_block(std::span<const std::int64_t>(in),
                                   std::span<std::int64_t>(out), ReduceOp::Sum);
    const std::int64_t rank_sum = static_cast<std::int64_t>(n) * (n - 1) / 2;
    for (std::size_t k = 0; k < kBlock; ++k) {
      const auto idx = static_cast<std::int64_t>(
          kBlock * static_cast<std::size_t>(p.rank()) + k);
      ASSERT_EQ(out[k], rank_sum + idx * n);
    }
  });
}

TEST_P(ExtCollectives, ScanIsInclusivePrefix) {
  const int n = nranks();
  run_job(config(), [n](mpi::Process& p) {
    (void)n;
    const std::int64_t mine[2] = {p.rank() + 1, 10};
    std::int64_t out[2] = {0, 0};
    p.world().scan(std::span<const std::int64_t>(mine, 2),
                   std::span<std::int64_t>(out, 2), ReduceOp::Sum);
    const std::int64_t r = p.rank();
    ASSERT_EQ(out[0], (r + 1) * (r + 2) / 2);
    ASSERT_EQ(out[1], 10 * (r + 1));
    ASSERT_EQ(p.world().scan_value<std::int64_t>(1, ReduceOp::Sum), r + 1);
  });
}

TEST_P(ExtCollectives, ExscanIsExclusivePrefix) {
  run_job(config(), [](mpi::Process& p) {
    const std::int64_t mine = p.rank() + 1;
    std::int64_t out = -1;
    p.world().exscan(std::span<const std::int64_t>(&mine, 1),
                     std::span<std::int64_t>(&out, 1), ReduceOp::Sum);
    const std::int64_t r = p.rank();
    if (r == 0)
      ASSERT_EQ(out, 0);  // value-initialized by our convention
    else
      ASSERT_EQ(out, r * (r + 1) / 2);
    ASSERT_EQ(p.world().exscan_value<std::int64_t>(2, ReduceOp::Sum), 2 * r);
  });
}

TEST_P(ExtCollectives, ScanMaxAndProd) {
  run_job(config(), [](mpi::Process& p) {
    const std::int64_t v = (p.rank() % 3) + 1;
    const auto mx = p.world().scan_value(v, ReduceOp::Max);
    std::int64_t expect = 0;
    for (int r = 0; r <= p.rank(); ++r) expect = std::max<std::int64_t>(expect, (r % 3) + 1);
    ASSERT_EQ(mx, expect);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, ExtCollectives,
    testing::Values(ExtCase{1, 0, 4, LocalityPolicy::HostnameBased},
                    ExtCase{1, 2, 4, LocalityPolicy::ContainerAware},
                    ExtCase{2, 2, 4, LocalityPolicy::ContainerAware},
                    ExtCase{3, 1, 3, LocalityPolicy::HostnameBased}));

TEST(LargeAlgorithms, BcastVanDeGeijnMatchesBinomial) {
  // Same payload, each algorithm pinned by a catch-all table row: results
  // must be identical, and the ring-based algorithm should be faster for
  // large payloads.
  auto run_with = [&](coll::Algo algo) {
    JobConfig cfg;
    cfg.deployment = DeploymentSpec::native_hosts(4, 2);
    cfg.coll_tuning.add({.coll = coll::Coll::Bcast, .algo = algo});
    Micros time = 0.0;
    std::uint64_t checksum = 0;
    run_job(cfg, [&](mpi::Process& p) {
      std::vector<std::uint64_t> data(64 * 1024);  // 512 KiB
      if (p.rank() == 0)
        for (std::size_t i = 0; i < data.size(); ++i) data[i] = i * 7 + 3;
      p.sync_time();
      const Micros start = p.now();
      p.world().bcast(std::span<std::uint64_t>(data), 0);
      const Micros elapsed =
          p.world().allreduce_value(p.now() - start, ReduceOp::Max);
      std::uint64_t sum = 0;
      for (const auto v : data) sum += v;
      if (p.rank() == p.size() - 1) {
        time = elapsed;
        checksum = sum;
      }
    });
    return std::pair{time, checksum};
  };
  const auto [ring_time, ring_sum] = run_with(coll::Algo::VanDeGeijn);
  const auto [tree_time, tree_sum] = run_with(coll::Algo::Binomial);
  EXPECT_EQ(ring_sum, tree_sum);
  EXPECT_LT(ring_time, tree_time)
      << "scatter+allgather must beat the binomial tree at 512 KiB";
}

TEST(LargeAlgorithms, AllreduceRabenseifnerMatchesRecursiveDoubling) {
  auto run_with = [&](coll::Algo algo) {
    JobConfig cfg;
    cfg.deployment = DeploymentSpec::native_hosts(4, 2);
    cfg.coll_tuning.add({.coll = coll::Coll::Allreduce, .algo = algo});
    Micros time = 0.0;
    double checksum = 0.0;
    run_job(cfg, [&](mpi::Process& p) {
      std::vector<double> in(32 * 1024);  // 256 KiB
      for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<double>(p.rank()) + static_cast<double>(i) * 0.25;
      std::vector<double> out(in.size());
      p.sync_time();
      const Micros start = p.now();
      p.world().allreduce(std::span<const double>(in), std::span<double>(out),
                          ReduceOp::Sum);
      const Micros elapsed =
          p.world().allreduce_value(p.now() - start, ReduceOp::Max);
      if (p.rank() == 0) {
        time = elapsed;
        checksum = out[12345];
      }
    });
    return std::pair{time, checksum};
  };
  const auto [raben_time, raben_sum] = run_with(coll::Algo::Rabenseifner);
  const auto [recdbl_time, recdbl_sum] =
      run_with(coll::Algo::RecursiveDoubling);
  EXPECT_DOUBLE_EQ(raben_sum, recdbl_sum);
  EXPECT_LT(raben_time, recdbl_time)
      << "reduce-scatter + allgather must beat recursive doubling at 256 KiB";
}

TEST(LargeAlgorithms, RabenseifnerSkipsNonZeroIdentityOps) {
  // Min with large payload must still be correct (falls back internally).
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(4, 1);
  run_job(cfg, [](mpi::Process& p) {
    std::vector<std::int64_t> in(16 * 1024, p.rank() + 5);
    std::vector<std::int64_t> out(in.size());
    p.world().allreduce(std::span<const std::int64_t>(in),
                        std::span<std::int64_t>(out), ReduceOp::Min);
    for (const auto v : out) ASSERT_EQ(v, 5);
  });
}

// ---------------------------------------------------------------------------
// The fixed (non-tunable) collectives' virtual time is pinned exactly. Each
// runs once at 8 ranks (power of two: reduce_scatter_block halves) and at 12
// ranks (reduce + scatter fallback) on 2 containers/host, and every rank's
// final clock must equal the recorded value. The payloads straddle the eager
// limits (4-16 KiB per block), so both the eager and the rendezvous paths
// count. A model change regenerates kPinnedTimes from the failure output.
// ---------------------------------------------------------------------------

using FixedBody = void (*)(mpi::Process&);

/// counts[r] = 1000 * (r % 4 + 1) ints, packed in rank order.
std::pair<std::vector<int>, std::vector<int>> varying_layout(int n) {
  std::vector<int> counts(static_cast<std::size_t>(n));
  std::vector<int> displs(counts.size());
  int total = 0;
  for (int r = 0; r < n; ++r) {
    counts[static_cast<std::size_t>(r)] = 1000 * (r % 4 + 1);
    displs[static_cast<std::size_t>(r)] = total;
    total += counts[static_cast<std::size_t>(r)];
  }
  return {counts, displs};
}

constexpr std::size_t kBlock = 2500;  // ints per rank in the uniform forms

const std::pair<const char*, FixedBody> kFixedBodies[] = {
    {"gather",
     [](mpi::Process& p) {
       std::vector<int> mine(kBlock, p.rank());
       std::vector<int> all(kBlock * static_cast<std::size_t>(p.size()));
       p.world().gather(std::span<const int>(mine), std::span<int>(all), 1);
     }},
    {"scatter",
     [](mpi::Process& p) {
       std::vector<int> all(kBlock * static_cast<std::size_t>(p.size()), 3);
       std::vector<int> mine(kBlock);
       p.world().scatter(std::span<const int>(all), std::span<int>(mine), 2);
     }},
    {"gatherv",
     [](mpi::Process& p) {
       const auto [counts, displs] = varying_layout(p.size());
       std::vector<int> mine(static_cast<std::size_t>(counts[static_cast<std::size_t>(p.rank())]));
       std::vector<int> all(static_cast<std::size_t>(displs.back() + counts.back()));
       p.world().gatherv(std::span<const int>(mine), std::span<int>(all),
                         std::span<const int>(counts), std::span<const int>(displs), 0);
     }},
    {"scatterv",
     [](mpi::Process& p) {
       const auto [counts, displs] = varying_layout(p.size());
       std::vector<int> all(static_cast<std::size_t>(displs.back() + counts.back()), 5);
       std::vector<int> mine(static_cast<std::size_t>(counts[static_cast<std::size_t>(p.rank())]));
       p.world().scatterv(std::span<const int>(all), std::span<const int>(counts),
                          std::span<const int>(displs), std::span<int>(mine), 3);
     }},
    {"allgatherv",
     [](mpi::Process& p) {
       const auto [counts, displs] = varying_layout(p.size());
       std::vector<int> mine(static_cast<std::size_t>(counts[static_cast<std::size_t>(p.rank())]));
       std::vector<int> all(static_cast<std::size_t>(displs.back() + counts.back()));
       p.world().allgatherv(std::span<const int>(mine), std::span<int>(all),
                            std::span<const int>(counts), std::span<const int>(displs));
     }},
    {"alltoallv",
     [](mpi::Process& p) {
       // Rank r sends 1000 * ((r + peer) % 4 + 1) ints to each peer.
       const auto n = static_cast<std::size_t>(p.size());
       std::vector<int> send_counts(n), send_displs(n), recv_counts(n), recv_displs(n);
       int send_total = 0;
       int recv_total = 0;
       for (std::size_t q = 0; q < n; ++q) {
         const int count = 1000 * ((p.rank() + static_cast<int>(q)) % 4 + 1);
         send_counts[q] = recv_counts[q] = count;
         send_displs[q] = send_total;
         recv_displs[q] = recv_total;
         send_total += count;
         recv_total += count;
       }
       std::vector<int> send(static_cast<std::size_t>(send_total), p.rank());
       std::vector<int> recv(static_cast<std::size_t>(recv_total));
       p.world().alltoallv(std::span<const int>(send), std::span<const int>(send_counts),
                           std::span<const int>(send_displs), std::span<int>(recv),
                           std::span<const int>(recv_counts),
                           std::span<const int>(recv_displs));
     }},
    {"reduce_scatter_block",
     [](mpi::Process& p) {
       std::vector<int> in(kBlock * static_cast<std::size_t>(p.size()), p.rank());
       std::vector<int> out(kBlock);
       p.world().reduce_scatter_block(std::span<const int>(in), std::span<int>(out),
                                      ReduceOp::Sum);
     }},
    {"scan",
     [](mpi::Process& p) {
       std::vector<int> in(kBlock, p.rank());
       std::vector<int> out(kBlock);
       p.world().scan(std::span<const int>(in), std::span<int>(out), ReduceOp::Sum);
     }},
    {"exscan",
     [](mpi::Process& p) {
       std::vector<int> in(kBlock, p.rank());
       std::vector<int> out(kBlock);
       p.world().exscan(std::span<const int>(in), std::span<int>(out), ReduceOp::Max);
     }},
};

struct PinnedTimes {
  const char* name;
  int ranks;
  std::vector<Micros> rank_times;
};

const std::vector<PinnedTimes> kPinnedTimes = {
    {"gather", 8, {
      3.2420942028985507, 15.775282608695653, 5.4536884057971013, 7.6652826086956525,
      2.5346379310344824, 2.5346379310344824, 2.5346379310344824, 2.5346379310344824}},
    {"gather", 12, {
      3.2423442028985505, 24.095532608695649, 5.4539384057971008, 7.6655326086956519,
      2.5348879310344827, 2.5348879310344827, 2.5348879310344827, 2.5348879310344827,
      2.5348879310344827, 2.5348879310344827, 2.5348879310344827, 2.5348879310344827}},
    {"scatter", 8, {
      3.0320942028985507, 5.763688405797101, 16.801834332833582, 8.4952826086956517,
      13.759420539730135, 15.783558470764618, 17.807696401799099, 19.83183433283358}},
    {"scatter", 12, {
      3.0323442028985506, 5.7639384057971013, 24.898636056971508, 8.4955326086956511,
      13.759670539730134, 15.783808470764617, 17.8079464017991, 19.832084332833581,
      21.856222263868062, 23.880360194902543, 25.904498125937025, 27.928636056971506}},
    {"gatherv", 8, {
      16.470655209557382, 1.3474707207207206, 5.0621044849197014, 8.3606552095573825,
      1.5001551724137931, 2.1898103448275865, 2.8794655172413792, 3.5691206896551724}},
    {"gatherv", 12, {
      24.790905209557383, 1.3477207207207207, 5.0623544849197026, 8.3609052095573837,
      1.5004051724137932, 2.1900603448275864, 2.8797155172413795, 3.5693706896551722,
      1.5004051724137932, 2.1900603448275864, 2.8797155172413795, 3.5693706896551722}},
    {"scatterv", 8, {
      1.5574707207207208, 2.7548018018018019, 4.7079941245593417, 13.014545848697274,
      7.7376492969731352, 10.21695964180072, 13.385925159042101, 17.244545848697275}},
    {"scatterv", 12, {
      1.5577207207207209, 2.7550518018018018, 4.708244124559342, 21.1113475728352,
      7.7378992969731355, 10.217209641800721, 13.3861751590421, 17.244795848697272,
      15.834451021111065, 18.31376136593865, 21.482726883180028, 25.3413475728352}},
    {"allgatherv", 8, {
      32.825857321339335, 33.340495002498756, 33.130495002498755, 25.766961769115444,
      32.825857321339335, 33.340495002498756, 33.130495002498755, 25.766961769115444}},
    {"allgatherv", 12, {
      50.940380184907561, 51.455017866066974, 51.245017866066974, 43.881484632683666,
      50.940380184907561, 51.455017866066974, 51.245017866066974, 43.881484632683666,
      50.940380184907561, 51.455017866066974, 51.245017866066974, 43.881484632683666}},
    {"alltoallv", 8, {
      28.167896588867727, 32.176517278522894, 28.167896588867727, 32.176517278522894,
      28.167896588867727, 32.176517278522894, 28.167896588867727, 32.176517278522894}},
    {"alltoallv", 12, {
      59.858231259370321, 62.962109320339827, 63.172109320339828, 64.088231259370318,
      59.858231259370321, 62.962109320339827, 63.172109320339828, 64.088231259370318,
      59.858231259370321, 62.962109320339827, 63.172109320339828, 64.088231259370318}},
    {"reduce_scatter_block", 8, {
      19.571834332833586, 19.571834332833586, 19.571834332833586, 19.571834332833586,
      19.571834332833586, 19.571834332833586, 19.571834332833586, 19.571834332833586}},
    {"reduce_scatter_block", 12, {
      119.08620727136432, 97.219915417291347, 99.951509620189881, 102.68310382308842,
      107.9472417541229, 109.97137968515739, 111.99551761619188, 114.01965554722636,
      116.04379347826085, 118.06793140929534, 120.09206934032983, 122.11620727136432}},
    {"scan", 8, {
      11.42610219890055, 11.21610219890055, 11.216102198900549, 11.00610219890055,
      14.456102198900549, 14.24610219890055, 14.246102198900548, 14.036102198900549}},
    {"scan", 12, {
      13.450490129935034, 13.240490129935035, 13.240490129935033, 13.030490129935034,
      14.45635219890055, 14.246352198900551, 14.246352198900549, 14.03635219890055,
      17.144757996001999, 16.934757996001998, 16.326352198900551, 16.11635219890055}},
    {"exscan", 8, {
      11.42610219890055, 11.21610219890055, 11.216102198900549, 11.00610219890055,
      14.456102198900549, 14.24610219890055, 14.246102198900548, 14.036102198900549}},
    {"exscan", 12, {
      13.450490129935034, 13.240490129935035, 13.240490129935033, 13.030490129935034,
      14.45635219890055, 14.246352198900551, 14.246352198900549, 14.03635219890055,
      17.144757996001999, 16.934757996001998, 16.326352198900551, 16.11635219890055}},
};

TEST(FixedCollectiveTimes, EveryRankClockMatchesTheRecordedValue) {
  std::string regenerated;
  for (const auto& [name, body] : kFixedBodies) {
    for (const int hosts : {2, 3}) {
      JobConfig cfg;
      cfg.deployment = DeploymentSpec::containers(hosts, 2, 4);
      cfg.policy = LocalityPolicy::ContainerAware;
      const auto times = run_job(cfg, body).rank_times;
      const int ranks = hosts * 4;
      const auto pinned =
          std::find_if(kPinnedTimes.begin(), kPinnedTimes.end(), [&](const auto& row) {
            return row.ranks == ranks && std::string(row.name) == name;
          });
      EXPECT_TRUE(pinned != kPinnedTimes.end() && pinned->rank_times == times)
          << name << " at " << ranks << " ranks";
      regenerated += std::string("    {\"") + name + "\", " + std::to_string(ranks) + ", {";
      for (std::size_t r = 0; r < times.size(); ++r) {
        char value[32];
        std::snprintf(value, sizeof value, "%.17g", times[r]);
        regenerated += (r == 0 ? "\n      " : r % 4 == 0 ? ",\n      " : ", ") +
                       std::string(value);
      }
      regenerated += "}},\n";
    }
  }
  if (HasFailure()) ADD_FAILURE() << "measured rank times:\n" << regenerated;
}

}  // namespace
}  // namespace cbmpi
