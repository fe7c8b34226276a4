// Unit tests for the Container Locality Detector — the paper's Sec. IV-B
// mechanism: one byte per rank in host shared memory — and a differential
// test of the locality groups collectives build from its result.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <random>

#include "container/engine.hpp"
#include "mpi/job_state.hpp"
#include "mpi/locality.hpp"
#include "mpi/runtime.hpp"
#include "osl/machine.hpp"

namespace cbmpi::mpi {
namespace {

/// The list `proc` scans, read byte by byte straight from its segment.
std::vector<std::uint8_t> list_bytes(const ContainerLocalityDetector& detector,
                                     const osl::SimProcess& proc) {
  const auto segment = proc.host().shm().find(
      proc.namespaces().get(osl::NamespaceType::Ipc), detector.segment_name());
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(detector.nranks()));
  if (segment == nullptr) return bytes;
  for (int j = 0; j < detector.nranks(); ++j)
    bytes[static_cast<std::size_t>(j)] = segment->load_byte(static_cast<Bytes>(j));
  return bytes;
}

struct Fixture {
  osl::Machine machine{topo::ClusterBuilder().hosts(2).build()};
  container::Engine engine{machine};
  std::vector<std::unique_ptr<osl::SimProcess>> procs;

  osl::SimProcess& container_proc(int host, const std::string& name,
                                  bool share_ipc = true) {
    container::ContainerSpec spec;
    spec.name = name;
    spec.share_host_ipc = share_ipc;
    auto& cont = engine.run(host, spec);
    procs.push_back(engine.spawn(cont, 0));
    return *procs.back();
  }

  osl::SimProcess& native_proc(int host) {
    procs.push_back(engine.spawn_native(host, topo::CoreId{0, 0}));
    return *procs.back();
  }
};

TEST(Locality, PaperFigure6Scenario) {
  // Fig. 6: 8 ranks; ranks 0,1 in container A, rank 4 in B, rank 5 in C, all
  // on host1; ranks 2,3,6,7 on host2. The host1 list must read 1,1,0,0,1,1,0,0.
  Fixture fx;
  ContainerLocalityDetector detector("fig6", 8);
  auto& r0 = fx.container_proc(0, "cont-a");
  auto& r1 = *fx.procs.emplace_back(
      fx.engine.spawn(*fx.engine.containers()[0], 1));  // also container A
  auto& r4 = fx.container_proc(0, "cont-b");
  auto& r5 = fx.container_proc(0, "cont-c");
  auto& r2 = fx.container_proc(1, "cont-d");
  auto& r3 = fx.container_proc(1, "cont-e");
  auto& r6 = fx.container_proc(1, "cont-f");
  auto& r7 = fx.container_proc(1, "cont-g");

  detector.announce(r0, 0);
  detector.announce(r1, 1);
  detector.announce(r2, 2);
  detector.announce(r3, 3);
  detector.announce(r4, 4);
  detector.announce(r5, 5);
  detector.announce(r6, 6);
  detector.announce(r7, 7);

  EXPECT_EQ(list_bytes(detector, r0),
            (std::vector<std::uint8_t>{1, 1, 0, 0, 1, 1, 0, 0}));
  EXPECT_EQ(list_bytes(detector, r6),
            (std::vector<std::uint8_t>{0, 0, 1, 1, 0, 0, 1, 1}));

  // A list's key is its lowest announced rank, whichever member scans it.
  for (const auto* host1 : {&r0, &r1, &r4, &r5}) EXPECT_EQ(detector.list_key(*host1), 0);
  for (const auto* host2 : {&r2, &r3, &r6, &r7}) EXPECT_EQ(detector.list_key(*host2), 2);
}

TEST(Locality, PrivateIpcNamespaceSeesOnlyItself) {
  Fixture fx;
  ContainerLocalityDetector detector("iso", 3);
  auto& a = fx.container_proc(0, "shared-a", true);
  auto& b = fx.container_proc(0, "isolated", false);
  auto& c = fx.container_proc(0, "shared-c", true);
  detector.announce(a, 0);
  detector.announce(b, 1);
  detector.announce(c, 2);
  EXPECT_EQ(list_bytes(detector, a), (std::vector<std::uint8_t>{1, 0, 1}));
  EXPECT_EQ(list_bytes(detector, b), (std::vector<std::uint8_t>{0, 1, 0}));
  EXPECT_EQ(detector.list_key(a), 0);
  EXPECT_EQ(detector.list_key(b), 1);
  EXPECT_EQ(detector.list_key(c), 0);
}

TEST(Locality, NativeAndSharedContainersSeeEachOther) {
  // A native process and a --ipc=host container share the host list.
  Fixture fx;
  ContainerLocalityDetector detector("mix", 2);
  auto& native = fx.native_proc(0);
  auto& cont = fx.container_proc(0, "cont-x", true);
  detector.announce(native, 0);
  detector.announce(cont, 1);
  EXPECT_EQ(list_bytes(detector, native), (std::vector<std::uint8_t>{1, 1}));
  EXPECT_EQ(detector.list_key(native), 0);
  EXPECT_EQ(detector.list_key(cont), 0);
}

TEST(Locality, JobTagsIsolateConcurrentJobs) {
  Fixture fx;
  auto& proc = fx.native_proc(0);
  ContainerLocalityDetector job_a("job-a", 4);
  ContainerLocalityDetector job_b("job-b", 4);
  job_a.announce(proc, 2);
  EXPECT_EQ(list_bytes(job_a, proc), (std::vector<std::uint8_t>{0, 0, 1, 0}));
  EXPECT_EQ(job_a.list_key(proc), 2);
  EXPECT_EQ(job_b.list_key(proc), -1);  // nobody announced into job b's list
}

TEST(Locality, ListUsesOneBytePerRank) {
  // The paper's scalability argument: a one-million-rank job needs a 1 MB
  // list. Verify the segment size is exactly nranks bytes.
  Fixture fx;
  auto& proc = fx.native_proc(0);
  ContainerLocalityDetector detector("size", 1000);
  detector.announce(proc, 0);
  const auto segment = proc.host().shm().find(
      proc.namespaces().get(osl::NamespaceType::Ipc), detector.segment_name());
  ASSERT_NE(segment, nullptr);
  EXPECT_EQ(segment->size(), 1000u);
}

TEST(Locality, DetectionCostScalesGently) {
  ContainerLocalityDetector small("s", 16);
  ContainerLocalityDetector large("l", 1'000'000);
  EXPECT_LT(small.detection_cost(), 1.0);
  EXPECT_LT(large.detection_cost(), 100.0);  // ~63 us for a million ranks
  EXPECT_GT(large.detection_cost(), small.detection_cost());
}

TEST(Locality, AnnounceValidatesRank) {
  Fixture fx;
  auto& proc = fx.native_proc(0);
  ContainerLocalityDetector detector("v", 4);
  EXPECT_THROW(detector.announce(proc, 4), Error);
  EXPECT_THROW(detector.announce(proc, -1), Error);
}

// ---- locality groups vs an n x n matrix oracle -----------------------------

using Matrix = std::vector<std::vector<std::uint8_t>>;

/// Co-residency as a matrix built from the list bytes: a rank that announced
/// reads its list's bytes; a rank that did not (its /dev/shm open failed)
/// gets a hostname row, mirrored into every peer's row so the matrix stays
/// symmetric. Under HostnameBased every row is a hostname row.
Matrix oracle_matrix(const fabric::ChannelSelector& selector, std::uint64_t seed) {
  const int n = selector.num_ranks();
  const auto size = static_cast<std::size_t>(n);
  Matrix m(size, std::vector<std::uint8_t>(size));
  std::vector<bool> fallback(size, true);
  if (selector.policy() == fabric::LocalityPolicy::ContainerAware) {
    const ContainerLocalityDetector detector("job" + std::to_string(seed), n);
    for (int r = 0; r < n; ++r) {
      const auto i = static_cast<std::size_t>(r);
      auto bytes = list_bytes(detector, *selector.endpoint(r).process);
      if (bytes[i] == 0) continue;  // never announced
      fallback[i] = false;
      m[i] = std::move(bytes);
    }
  }
  for (int r = 0; r < n; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (!fallback[i]) continue;
    for (int c = 0; c < n; ++c) {
      const auto j = static_cast<std::size_t>(c);
      m[i][j] = m[j][i] =
          selector.endpoint(r).hostname == selector.endpoint(c).hostname ? 1 : 0;
    }
  }
  for (std::size_t i = 0; i < size; ++i) m[i][i] = 1;
  return m;
}

/// The n^2 derivation: each member's leader is the first member its matrix
/// row marks, leader chains are compressed, and the group facts follow.
LocalityGroups oracle_groups(const Matrix& m, const std::vector<int>& members, int me) {
  const std::size_t n = members.size();
  const auto world = [&](std::size_t j) { return static_cast<std::size_t>(members[j]); };
  LocalityGroups g;
  g.leader_of.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t leader = j;
    for (std::size_t k = 0; k < n; ++k)
      if (m[world(j)][world(k)] != 0) {
        leader = k;
        break;
      }
    g.leader_of[j] = static_cast<int>(leader);
  }
  for (std::size_t j = 0; j < n; ++j) {
    int leader = g.leader_of[j];
    while (g.leader_of[static_cast<std::size_t>(leader)] != leader)
      leader = g.leader_of[static_cast<std::size_t>(leader)];
    g.leader_of[j] = leader;
  }
  g.my_leader = g.leader_of[static_cast<std::size_t>(me)];
  std::vector<int> sizes(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const int leader = g.leader_of[j];
    if (leader == g.my_leader) g.my_group.push_back(static_cast<int>(j));
    if (leader == static_cast<int>(j)) g.leaders.push_back(leader);
    ++sizes[static_cast<std::size_t>(leader)];
  }
  const auto size_of = [&](int leader) { return sizes[static_cast<std::size_t>(leader)]; };
  g.group_size = static_cast<int>(g.my_group.size());
  g.max_group_size = *std::max_element(sizes.begin(), sizes.end());
  g.uniform = g.contiguous = true;
  for (int leader : g.leaders)
    g.uniform = g.uniform && size_of(leader) == size_of(g.leaders.front());
  for (std::size_t j = 0; j < n; ++j)
    g.contiguous = g.contiguous &&
                   static_cast<int>(j) - g.leader_of[j] < size_of(g.leader_of[j]);
  return g;
}

void expect_same_groups(const LocalityGroups& got, const LocalityGroups& want,
                        const std::string& where) {
  EXPECT_EQ(got.leader_of, want.leader_of) << where;
  EXPECT_EQ(got.leaders, want.leaders) << where;
  EXPECT_EQ(got.my_group, want.my_group) << where;
  EXPECT_EQ(got.my_leader, want.my_leader) << where;
  EXPECT_EQ(got.group_size, want.group_size) << where;
  EXPECT_EQ(got.uniform, want.uniform) << where;
  EXPECT_EQ(got.contiguous, want.contiguous) << where;
  EXPECT_EQ(got.max_group_size, want.max_group_size) << where;
}

bool transitive(const Matrix& m) {
  const auto n = m.size();
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b)
      for (std::size_t c = 0; c < n && m[a][b] != 0; ++c)
        if (m[b][c] != 0 && m[a][c] == 0) return false;
  return true;
}

TEST(LocalityGroupsOracle, MatchesMatrixScanOverRandomJobsAndSplits) {
  int fallback_jobs = 0, private_ipc_jobs = 0, non_transitive_jobs = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    std::mt19937_64 rng(seed);
    const auto draw = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const int hosts = draw(1, 4);
    const auto pick = [&](const auto& options) {
      return options[static_cast<std::size_t>(draw(0, static_cast<int>(options.size()) - 1))];
    };
    const int containers = pick(std::array{0, 1, 2, 4});
    const int procs_per_host = containers == 0 ? draw(1, 6) : containers * draw(1, 3);

    mpi::JobConfig config;
    config.deployment =
        container::DeploymentSpec::containers(hosts, containers, procs_per_host);
    config.policy = draw(0, 1) == 0 ? fabric::LocalityPolicy::HostnameBased
                                    : fabric::LocalityPolicy::ContainerAware;
    config.faults.shm_segment_fail_prob = pick(std::array{0.0, 0.25, 0.5});
    config.faults.private_ipc_prob = pick(std::array{0.0, 0.4});
    config.seed = seed;
    // Ranks interleaved across hosts and containers half the time.
    auto placement = container::plan_deployment(
        topo::ClusterBuilder().hosts(hosts).build(), config.deployment);
    if (draw(0, 1) == 1)
      std::shuffle(placement.slots.begin(), placement.slots.end(), rng);
    config.placement = placement;

    const auto n = static_cast<std::size_t>(placement.total_ranks());
    std::vector<int> color(n), key(n);
    const int colors = draw(1, 3);
    for (auto& c : color) c = draw(0, colors - 1);
    std::iota(key.begin(), key.end(), 0);
    std::shuffle(key.begin(), key.end(), rng);

    Matrix matrix;
    std::vector<LocalityGroups> world_groups(n), split_groups(n);
    std::vector<std::vector<int>> split_members(n);
    std::vector<int> split_rank(n);
    mpi::run_job(config, [&](mpi::Process& p) {
      const auto r = static_cast<std::size_t>(p.rank());
      if (r == 0) matrix = oracle_matrix(*p.world().engine().job().selector, seed);
      world_groups[r] = p.world().locality_groups();
      auto sub = p.world().split(color[r], key[r]);
      ASSERT_TRUE(sub.has_value());
      split_groups[r] = sub->locality_groups();
      split_rank[r] = sub->rank();
      for (int j = 0; j < sub->size(); ++j) split_members[r].push_back(sub->to_world(j));
    });

    const bool aware = config.policy == fabric::LocalityPolicy::ContainerAware;
    if (aware && config.faults.shm_segment_fail_prob > 0.0) ++fallback_jobs;
    if (aware && containers > 0 && config.faults.private_ipc_prob > 0.0)
      ++private_ipc_jobs;
    if (!transitive(matrix)) ++non_transitive_jobs;

    std::vector<int> world(n);
    std::iota(world.begin(), world.end(), 0);
    for (std::size_t r = 0; r < n; ++r) {
      const std::string where = "seed " + std::to_string(seed) + " rank " + std::to_string(r);
      expect_same_groups(world_groups[r], oracle_groups(matrix, world, static_cast<int>(r)),
                         where + " world");
      expect_same_groups(split_groups[r],
                         oracle_groups(matrix, split_members[r], split_rank[r]),
                         where + " split");
    }
  }
  // The seeds must reach the cases the partition exists for.
  EXPECT_GT(fallback_jobs, 0);
  EXPECT_GT(private_ipc_jobs, 0);
  EXPECT_GT(non_transitive_jobs, 0);
}

}  // namespace
}  // namespace cbmpi::mpi
