// Tests for the extended collectives: v-variants, reduce_scatter, prefix
// scans, and the size-based algorithm switches (van de Geijn broadcast,
// Rabenseifner allreduce).
#include <gtest/gtest.h>

#include <numeric>

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

}  // namespace
}  // namespace cbmpi
