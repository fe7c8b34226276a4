// Collective correctness across rank counts, data sizes, deployments and
// both locality policies — including the hierarchical (two-level) paths.
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

struct CollectiveCase {
  int hosts;
  int containers_per_host;  // 0 = native
  int procs_per_host;
  LocalityPolicy policy;
  bool two_level;
};

std::string case_name(const testing::TestParamInfo<CollectiveCase>& info) {
  const auto& c = info.param;
  std::string name = std::to_string(c.hosts) + "h_" +
                     std::to_string(c.containers_per_host) + "c_" +
                     std::to_string(c.procs_per_host) + "p";
  name += c.policy == LocalityPolicy::ContainerAware ? "_aware" : "_default";
  name += c.two_level ? "_2lvl" : "_flat";
  return name;
}

class Collectives : public testing::TestWithParam<CollectiveCase> {
 protected:
  JobConfig config() const {
    const auto& c = GetParam();
    JobConfig cfg;
    cfg.deployment = c.containers_per_host == 0
                         ? DeploymentSpec::native_hosts(c.hosts, c.procs_per_host)
                         : DeploymentSpec::containers(c.hosts, c.containers_per_host,
                                                      c.procs_per_host);
    cfg.policy = c.policy;
    if (!c.two_level) cfg.coll_tuning = cfg.coll_tuning.flat();
    return cfg;
  }
  int nranks() const { return GetParam().hosts * GetParam().procs_per_host; }
};

TEST_P(Collectives, Barrier) {
  run_job(config(), [](mpi::Process& p) {
    for (int i = 0; i < 3; ++i) p.world().barrier();
  });
}

TEST_P(Collectives, BcastFromEveryRoot) {
  const int n = nranks();
  run_job(config(), [n](mpi::Process& p) {
    for (int root = 0; root < n; ++root) {
      std::vector<int> data(97, p.rank() == root ? root + 1000 : -1);
      p.world().bcast(std::span<int>(data), root);
      for (const int v : data) ASSERT_EQ(v, root + 1000);
    }
  });
}

TEST_P(Collectives, BcastLargePayload) {
  run_job(config(), [](mpi::Process& p) {
    std::vector<std::uint64_t> data(8192);  // 64 KiB -> rendezvous paths
    if (p.rank() == 0)
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = i * 3 + 1;
    p.world().bcast(std::span<std::uint64_t>(data), 0);
    ASSERT_EQ(data[5000], 5000u * 3 + 1);
  });
}

TEST_P(Collectives, ReduceSumAndMax) {
  const int n = nranks();
  run_job(config(), [n](mpi::Process& p) {
    const std::int64_t mine[2] = {p.rank() + 1, 100 - p.rank()};
    std::int64_t out[2] = {0, 0};
    p.world().reduce(std::span<const std::int64_t>(mine, 2),
                     std::span<std::int64_t>(out, 2), ReduceOp::Sum, 0);
    if (p.rank() == 0) {
      ASSERT_EQ(out[0], static_cast<std::int64_t>(n) * (n + 1) / 2);
      ASSERT_EQ(out[1], 100LL * n - static_cast<std::int64_t>(n) * (n - 1) / 2);
    }
    std::int64_t mx = 0;
    const std::int64_t mv = p.rank() * 7;
    p.world().reduce(std::span<const std::int64_t>(&mv, 1),
                     std::span<std::int64_t>(&mx, 1), ReduceOp::Max, 0);
    if (p.rank() == 0) {
      ASSERT_EQ(mx, static_cast<std::int64_t>(n - 1) * 7);
    }
  });
}

TEST_P(Collectives, AllreduceMatchesReducePlusBcast) {
  const int n = nranks();
  run_job(config(), [n](mpi::Process& p) {
    std::vector<std::int64_t> in(33);
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = p.rank() * 100 + static_cast<std::int64_t>(i);
    std::vector<std::int64_t> out(33);
    p.world().allreduce(std::span<const std::int64_t>(in),
                        std::span<std::int64_t>(out), ReduceOp::Sum);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::int64_t expect =
          static_cast<std::int64_t>(n) * (n - 1) / 2 * 100 +
          static_cast<std::int64_t>(n) * static_cast<std::int64_t>(i);
      ASSERT_EQ(out[i], expect);
    }
    ASSERT_EQ(p.world().allreduce_value<std::int64_t>(1, ReduceOp::Sum), n);
    ASSERT_EQ(p.world().allreduce_value<std::int64_t>(p.rank(), ReduceOp::Min), 0);
  });
}

TEST_P(Collectives, AllgatherOrdersBlocksByRank) {
  const int n = nranks();
  run_job(config(), [n](mpi::Process& p) {
    std::vector<int> mine(5, p.rank());
    std::vector<int> all(5 * static_cast<std::size_t>(n), -1);
    p.world().allgather(std::span<const int>(mine), std::span<int>(all));
    for (int r = 0; r < n; ++r)
      for (int k = 0; k < 5; ++k)
        ASSERT_EQ(all[static_cast<std::size_t>(r) * 5 + static_cast<std::size_t>(k)],
                  r);
  });
}

TEST_P(Collectives, GatherAndScatter) {
  const int n = nranks();
  run_job(config(), [n](mpi::Process& p) {
    const int root = n - 1;
    std::vector<double> mine(3, p.rank() + 0.5);
    std::vector<double> all(static_cast<std::size_t>(3 * n));
    p.world().gather(std::span<const double>(mine), std::span<double>(all), root);
    if (p.rank() == root) {
      for (int r = 0; r < n; ++r) {
        ASSERT_DOUBLE_EQ(all[static_cast<std::size_t>(3 * r)], r + 0.5);
      }
    }

    std::vector<int> chunks(static_cast<std::size_t>(2 * n));
    if (p.rank() == 0)
      std::iota(chunks.begin(), chunks.end(), 0);
    std::vector<int> mine2(2);
    p.world().scatter(std::span<const int>(chunks), std::span<int>(mine2), 0);
    ASSERT_EQ(mine2[0], 2 * p.rank());
    ASSERT_EQ(mine2[1], 2 * p.rank() + 1);
  });
}

TEST_P(Collectives, AlltoallTransposesBlocks) {
  const int n = nranks();
  run_job(config(), [n](mpi::Process& p) {
    std::vector<int> send(static_cast<std::size_t>(n) * 2);
    for (int r = 0; r < n; ++r) {
      send[static_cast<std::size_t>(2 * r)] = p.rank() * 1000 + r;
      send[static_cast<std::size_t>(2 * r + 1)] = -(p.rank() * 1000 + r);
    }
    std::vector<int> recv(send.size());
    p.world().alltoall(std::span<const int>(send), std::span<int>(recv));
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(recv[static_cast<std::size_t>(2 * r)], r * 1000 + p.rank());
      ASSERT_EQ(recv[static_cast<std::size_t>(2 * r + 1)], -(r * 1000 + p.rank()));
    }
  });
}

TEST_P(Collectives, AlltoallvVariableCounts) {
  const int n = nranks();
  run_job(config(), [n](mpi::Process& p) {
    // Rank r sends r+1 copies of its rank to everyone.
    std::vector<int> send_counts(static_cast<std::size_t>(n), p.rank() + 1);
    std::vector<int> send_displs(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r)
      send_displs[static_cast<std::size_t>(r)] = r * (p.rank() + 1);
    std::vector<int> send_buf(static_cast<std::size_t>(n * (p.rank() + 1)), p.rank());

    std::vector<int> recv_counts(static_cast<std::size_t>(n));
    std::vector<int> recv_displs(static_cast<std::size_t>(n));
    int total = 0;
    for (int r = 0; r < n; ++r) {
      recv_counts[static_cast<std::size_t>(r)] = r + 1;
      recv_displs[static_cast<std::size_t>(r)] = total;
      total += r + 1;
    }
    std::vector<int> recv_buf(static_cast<std::size_t>(total), -1);
    p.world().alltoallv(std::span<const int>(send_buf),
                        std::span<const int>(send_counts),
                        std::span<const int>(send_displs), std::span<int>(recv_buf),
                        std::span<const int>(recv_counts),
                        std::span<const int>(recv_displs));
    for (int r = 0; r < n; ++r)
      for (int k = 0; k <= r; ++k)
        ASSERT_EQ(recv_buf[static_cast<std::size_t>(
                      recv_displs[static_cast<std::size_t>(r)] + k)],
                  r);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, Collectives,
    testing::Values(
        // native single host
        CollectiveCase{1, 0, 4, LocalityPolicy::HostnameBased, true},
        // 2 containers/host, default policy (groups == containers)
        CollectiveCase{1, 2, 4, LocalityPolicy::HostnameBased, true},
        // 2 containers/host, aware policy (groups == hosts)
        CollectiveCase{1, 2, 4, LocalityPolicy::ContainerAware, true},
        // multi-host, 4 containers/host, both policies, pow2 ranks
        CollectiveCase{2, 4, 4, LocalityPolicy::HostnameBased, true},
        CollectiveCase{2, 4, 4, LocalityPolicy::ContainerAware, true},
        // non-power-of-two rank count exercises the non-pow2 fallbacks
        CollectiveCase{3, 1, 3, LocalityPolicy::ContainerAware, true},
        // flat algorithms (two-level disabled)
        CollectiveCase{2, 2, 4, LocalityPolicy::ContainerAware, false},
        // 16 ranks native across 4 hosts
        CollectiveCase{4, 0, 4, LocalityPolicy::HostnameBased, true}),
    case_name);

TEST(CommSplit, SplitsByColorAndOrdersByKey) {
  mpi::JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(2, 4);
  run_job(config, [](mpi::Process& p) {
    auto& world = p.world();
    // Even/odd split, key reverses order within the evens.
    const int color = p.rank() % 2;
    const int key = color == 0 ? -p.rank() : p.rank();
    auto sub = world.split(color, key);
    ASSERT_TRUE(sub.has_value());
    ASSERT_EQ(sub->size(), 4);
    // Collectives work on the sub-communicator.
    const auto sum = sub->allreduce_value<std::int64_t>(p.rank(), ReduceOp::Sum);
    const std::int64_t expect = color == 0 ? 0 + 2 + 4 + 6 : 1 + 3 + 5 + 7;
    ASSERT_EQ(sum, expect);
    // Key ordering: evens are reversed.
    if (color == 0 && p.rank() == 6) {
      ASSERT_EQ(sub->rank(), 0);
    }
    if (color == 1 && p.rank() == 1) {
      ASSERT_EQ(sub->rank(), 0);
    }
  });
}

TEST(CommSplit, NegativeColorGetsNull) {
  mpi::JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 3);
  run_job(config, [](mpi::Process& p) {
    auto sub = p.world().split(p.rank() == 0 ? -1 : 0, 0);
    ASSERT_EQ(sub.has_value(), p.rank() != 0);
    if (sub) {
      ASSERT_EQ(sub->size(), 2);
    }
  });
}

TEST(CommDup, IndependentTagSpace) {
  mpi::JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 2);
  run_job(config, [](mpi::Process& p) {
    auto dup = p.world().dup();
    ASSERT_NE(dup.id(), p.world().id());
    // A message on the dup is not visible to the world communicator.
    if (p.rank() == 0) {
      const int v = 77;
      dup.send(std::span<const int>(&v, 1), 1, 3);
    } else {
      ASSERT_FALSE(p.world().iprobe(0, 3).has_value());
      int v = 0;
      dup.recv(std::span<int>(&v, 1), 0, 3);
      ASSERT_EQ(v, 77);
    }
  });
}

TEST(LocalityGroups, DefaultPolicyGroupsAreContainers) {
  mpi::JobConfig config;
  config.deployment = DeploymentSpec::containers(1, 2, 4);
  config.policy = LocalityPolicy::HostnameBased;
  run_job(config, [](mpi::Process& p) {
    // wait for groups via a communicator accessor
    auto& groups = p.world().locality_groups();
    ASSERT_EQ(groups.group_size, 2);       // 2 procs per container
    ASSERT_EQ(groups.leaders.size(), 2u);  // one leader per container
    ASSERT_TRUE(groups.uniform);
    ASSERT_TRUE(groups.contiguous);
  });
}

TEST(LocalityGroups, AwarePolicyGroupsAreHosts) {
  mpi::JobConfig config;
  config.deployment = DeploymentSpec::containers(2, 2, 4);
  config.policy = LocalityPolicy::ContainerAware;
  run_job(config, [](mpi::Process& p) {
    auto& groups = p.world().locality_groups();
    ASSERT_EQ(groups.group_size, 4);       // whole host is one group
    ASSERT_EQ(groups.leaders.size(), 2u);  // one leader per host
    ASSERT_TRUE(groups.uniform);
    ASSERT_TRUE(groups.contiguous);
  });
}

}  // namespace
}  // namespace cbmpi
