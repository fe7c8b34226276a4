// Graph 500 substrate tests: generator determinism, distributed construction,
// BFS correctness + validation, channel-count invariants (the Table I story).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "apps/graph500/bfs.hpp"
#include "apps/graph500/validate.hpp"
#include "mpi/runtime.hpp"

namespace cbmpi {
namespace {

using apps::graph500::BfsParams;
using apps::graph500::BfsResult;
using apps::graph500::build_graph;
using apps::graph500::EdgeListParams;
using apps::graph500::kronecker_edge;
using apps::graph500::kronecker_slice;
using apps::graph500::kUnreached;
using apps::graph500::run_bfs;
using apps::graph500::validate_bfs;
using container::DeploymentSpec;
using fabric::LocalityPolicy;

TEST(Kronecker, DeterministicAndInRange) {
  const EdgeListParams params{10, 16, 7};
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const auto e1 = kronecker_edge(params, i);
    const auto e2 = kronecker_edge(params, i);
    EXPECT_EQ(e1.u, e2.u);
    EXPECT_EQ(e1.v, e2.v);
    EXPECT_LT(e1.u, params.num_vertices());
    EXPECT_LT(e1.v, params.num_vertices());
  }
}

TEST(Kronecker, SeedChangesEdges) {
  const EdgeListParams a{10, 16, 7};
  const EdgeListParams b{10, 16, 8};
  int same = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto ea = kronecker_edge(a, i);
    const auto eb = kronecker_edge(b, i);
    if (ea.u == eb.u && ea.v == eb.v) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Kronecker, SliceMatchesPointwise) {
  const EdgeListParams params{8, 8, 3};
  const auto slice = kronecker_slice(params, 100, 120);
  ASSERT_EQ(slice.size(), 20u);
  for (std::size_t i = 0; i < slice.size(); ++i) {
    const auto e = kronecker_edge(params, 100 + i);
    EXPECT_EQ(slice[i].u, e.u);
    EXPECT_EQ(slice[i].v, e.v);
  }
}

TEST(Kronecker, SkewedDegreeDistribution) {
  // R-MAT graphs are skewed: the max degree should far exceed the average.
  const EdgeListParams params{12, 16, 1};
  std::map<std::uint64_t, int> degree;
  for (std::uint64_t i = 0; i < params.num_edges(); ++i) {
    const auto e = kronecker_edge(params, i);
    ++degree[e.u];
    ++degree[e.v];
  }
  int max_degree = 0;
  for (const auto& [v, d] : degree) max_degree = std::max(max_degree, d);
  EXPECT_GT(max_degree, 32 * 4);  // avg degree is 2*16; require >8x skew
}

TEST(DistGraph, EdgeCountConservedAcrossRankCounts) {
  const EdgeListParams params{10, 8, 5};
  std::map<int, std::uint64_t> totals;
  for (int ranks : {1, 2, 4}) {
    mpi::JobConfig config;
    config.deployment = DeploymentSpec::native_hosts(1, ranks);
    std::atomic<std::uint64_t> total{0};
    mpi::run_job(config, [&](mpi::Process& p) {
      const auto graph = build_graph(p, params);
      total += graph.local_edges();
    });
    totals[ranks] = total.load();
  }
  EXPECT_EQ(totals[1], totals[2]);
  EXPECT_EQ(totals[1], totals[4]);
  EXPECT_GT(totals[1], 0u);
}

TEST(DistGraph, AdjacencyIsSymmetric) {
  const EdgeListParams params{8, 8, 2};
  mpi::JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 1);
  mpi::run_job(config, [&](mpi::Process& p) {
    const auto graph = build_graph(p, params);
    std::set<std::pair<std::uint64_t, std::uint64_t>> edges;
    for (std::uint64_t u = 0; u < graph.local_vertices(); ++u)
      for (const auto v : graph.neighbors(u)) edges.insert({graph.to_global(u), v});
    for (const auto& [u, v] : edges)
      EXPECT_TRUE(edges.count({v, u})) << u << "->" << v << " has no reverse";
  });
}

struct BfsCase {
  int hosts;
  int containers;  // per host; 0 = native
  int procs_per_host;
  LocalityPolicy policy;
};

class BfsCorrectness : public testing::TestWithParam<BfsCase> {};

TEST_P(BfsCorrectness, ValidatesAndMatchesSerialCounts) {
  const auto& c = GetParam();
  const EdgeListParams params{9, 8, 11};

  // Reference: single-rank BFS visited count.
  std::uint64_t reference_visited = 0;
  int reference_levels = 0;
  {
    mpi::JobConfig config;
    config.deployment = DeploymentSpec::native_hosts(1, 1);
    mpi::run_job(config, [&](mpi::Process& p) {
      const auto graph = build_graph(p, params);
      const auto result = run_bfs(p, graph, 0);
      reference_visited = result.visited;
      reference_levels = result.levels;
      const auto report = validate_bfs(p, graph, result);
      EXPECT_TRUE(report.ok);
    });
  }
  ASSERT_GT(reference_visited, 1u);

  mpi::JobConfig config;
  config.deployment =
      c.containers == 0
          ? DeploymentSpec::native_hosts(c.hosts, c.procs_per_host)
          : DeploymentSpec::containers(c.hosts, c.containers, c.procs_per_host);
  config.policy = c.policy;
  mpi::run_job(config, [&](mpi::Process& p) {
    const auto graph = build_graph(p, params);
    const auto result = run_bfs(p, graph, 0);
    EXPECT_EQ(result.visited, reference_visited);
    EXPECT_EQ(result.levels, reference_levels);
    const auto report = validate_bfs(p, graph, result);
    EXPECT_TRUE(report.ok) << "bad_levels=" << report.bad_levels
                           << " missing_edges=" << report.missing_edges
                           << " unreached_parents=" << report.unreached_parents;
  });
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, BfsCorrectness,
    testing::Values(BfsCase{1, 0, 4, LocalityPolicy::HostnameBased},
                    BfsCase{1, 2, 4, LocalityPolicy::HostnameBased},
                    BfsCase{1, 2, 4, LocalityPolicy::ContainerAware},
                    BfsCase{1, 4, 4, LocalityPolicy::ContainerAware},
                    BfsCase{2, 2, 4, LocalityPolicy::ContainerAware},
                    BfsCase{2, 0, 3, LocalityPolicy::HostnameBased}));

TEST(Bfs, MultipleRootsReachableSubsets) {
  const EdgeListParams params{9, 8, 11};
  mpi::JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 2);
  mpi::run_job(config, [&](mpi::Process& p) {
    const auto graph = build_graph(p, params);
    for (std::uint64_t root : {0ull, 17ull, 123ull}) {
      const auto result = run_bfs(p, graph, root);
      EXPECT_GE(result.visited, 1u);
      const auto report = validate_bfs(p, graph, result);
      EXPECT_TRUE(report.ok) << "root " << root;
    }
  });
}

TEST(Bfs, TotalTransferOpsInvariantAcrossScenarios) {
  // Table I's key invariant: the *total* number of message transfer
  // operations is the same in every deployment scenario — only the split
  // across channels changes.
  const EdgeListParams params{10, 8, 3};
  std::map<std::string, std::uint64_t> totals;
  std::map<std::string, std::uint64_t> hca_ops;
  for (int containers : {0, 1, 2, 4}) {
    mpi::JobConfig config;
    config.deployment = containers == 0
                            ? DeploymentSpec::native_hosts(1, 8)
                            : DeploymentSpec::containers(1, containers, 8);
    config.policy = LocalityPolicy::HostnameBased;
    // Flat collective algorithms: their internal message count depends only
    // on the rank count, so the total is exactly invariant (two-level
    // algorithms restructure with the locality groups and would shift the
    // total by a few control messages).
    config.coll_tuning = config.coll_tuning.flat();
    const auto result = mpi::run_job(config, [&](mpi::Process& p) {
      const auto graph = build_graph(p, params);
      run_bfs(p, graph, 0);
    });
    const auto& total = result.profile.total;
    const std::uint64_t ops = total.channel_ops(fabric::ChannelKind::Cma) +
                              total.channel_ops(fabric::ChannelKind::Shm) +
                              total.channel_ops(fabric::ChannelKind::Hca);
    totals[config.deployment.label()] = ops;
    hca_ops[config.deployment.label()] = total.channel_ops(fabric::ChannelKind::Hca);
  }
  EXPECT_EQ(totals["Native"], totals["1-Container"]);
  EXPECT_EQ(totals["Native"], totals["2-Containers"]);
  EXPECT_EQ(totals["Native"], totals["4-Containers"]);
  EXPECT_EQ(hca_ops["Native"], 0u);
  EXPECT_EQ(hca_ops["1-Container"], 0u);
  EXPECT_GT(hca_ops["2-Containers"], 0u);
  EXPECT_GT(hca_ops["4-Containers"], hca_ops["2-Containers"]);
}

TEST(Bfs, LocalityAwareEliminatesSlowdown) {
  // The Fig. 1 vs Fig. 11 story at test scale: default BFS time grows with
  // container count; the locality-aware runtime keeps it near the
  // single-container time.
  const EdgeListParams params{10, 8, 3};
  auto bfs_time = [&](int containers, LocalityPolicy policy) {
    mpi::JobConfig config;
    config.deployment = containers == 0
                            ? DeploymentSpec::native_hosts(1, 8)
                            : DeploymentSpec::containers(1, containers, 8);
    config.policy = policy;
    Micros time = 0.0;
    mpi::run_job(config, [&](mpi::Process& p) {
      const auto graph = build_graph(p, params);
      const auto result = run_bfs(p, graph, 0);
      if (p.rank() == 0) time = result.time;
    });
    return time;
  };
  const Micros native = bfs_time(0, LocalityPolicy::HostnameBased);
  const Micros def4 = bfs_time(4, LocalityPolicy::HostnameBased);
  const Micros opt4 = bfs_time(4, LocalityPolicy::ContainerAware);
  EXPECT_GT(def4, native * 1.5) << "default 4-container case should be much slower";
  EXPECT_LT(opt4, native * 1.2) << "locality-aware should be near native";
}

}  // namespace
}  // namespace cbmpi
