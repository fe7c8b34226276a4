// Unit tests for the hardware model and the container runtime / deployment
// planner.
#include <gtest/gtest.h>

#include "container/deployment.hpp"
#include "container/engine.hpp"
#include "osl/machine.hpp"
#include "topo/hardware.hpp"

namespace cbmpi {
namespace {

TEST(Topo, ClusterBuilderDefaultsMatchPaperTestbed) {
  const auto cluster = topo::ClusterBuilder().build();
  EXPECT_EQ(cluster.num_hosts(), 16);
  EXPECT_EQ(cluster.host(0).shape().sockets, 2);
  EXPECT_EQ(cluster.host(0).shape().cores_per_socket, 12);
  EXPECT_EQ(cluster.host(0).shape().total_cores(), 24);
  EXPECT_TRUE(cluster.host(0).shape().has_hca);
  EXPECT_EQ(cluster.host(3).name(), "host3");
}

TEST(Topo, CoreMapping) {
  const auto cluster = topo::ClusterBuilder().hosts(1).build();
  const auto& host = cluster.host(0);
  const auto c0 = host.core_at(0);
  EXPECT_EQ(c0.socket, 0);
  EXPECT_EQ(c0.core, 0);
  const auto c13 = host.core_at(13);
  EXPECT_EQ(c13.socket, 1);
  EXPECT_EQ(c13.core, 1);
  EXPECT_THROW(host.core_at(24), Error);
}

TEST(Topo, CustomShape) {
  const auto cluster =
      topo::ClusterBuilder().hosts(2).sockets(4).cores_per_socket(8).hca(false).build();
  EXPECT_EQ(cluster.host(0).shape().total_cores(), 32);
  EXPECT_FALSE(cluster.host(1).shape().has_hca);
}

namespace {
container::ContainerSpec named(const std::string& name, bool privileged = true) {
  container::ContainerSpec spec;
  spec.name = name;
  spec.privileged = privileged;
  return spec;
}
}  // namespace

TEST(Container, FreshUtsGivesUniqueHostname) {
  osl::Machine machine(topo::ClusterBuilder().hosts(1).build());
  container::Engine engine(machine);
  auto& a = engine.run(0, named("cont-a"));
  auto& b = engine.run(0, named("cont-b"));
  EXPECT_EQ(a.hostname(), "cont-a");
  EXPECT_EQ(b.hostname(), "cont-b");
  EXPECT_FALSE(a.namespaces().shares(osl::NamespaceType::Uts, b.namespaces()));
}

TEST(Container, NamespaceSharingFlags) {
  osl::Machine machine(topo::ClusterBuilder().hosts(1).build());
  container::Engine engine(machine);
  const auto& root = machine.host_os(0).root_namespaces();

  auto& shared = engine.run(0, named("s"));  // defaults share ipc+pid
  EXPECT_TRUE(shared.namespaces().shares(osl::NamespaceType::Ipc, root));
  EXPECT_TRUE(shared.namespaces().shares(osl::NamespaceType::Pid, root));

  container::ContainerSpec isolated_spec;
  isolated_spec.name = "i";
  isolated_spec.share_host_ipc = false;
  isolated_spec.share_host_pid = false;
  auto& isolated = engine.run(0, isolated_spec);
  EXPECT_FALSE(isolated.namespaces().shares(osl::NamespaceType::Ipc, root));
  EXPECT_FALSE(isolated.namespaces().shares(osl::NamespaceType::Pid, root));
}

TEST(Container, PrivilegedControlsHcaAccess) {
  osl::Machine machine(topo::ClusterBuilder().hosts(1).build());
  container::Engine engine(machine);
  auto& priv = engine.run(0, named("p", true));
  auto& unpriv = engine.run(0, named("u", false));
  EXPECT_TRUE(priv.can_access_hca());
  EXPECT_FALSE(unpriv.can_access_hca());
}

TEST(Container, CpusetPinning) {
  osl::Machine machine(topo::ClusterBuilder().hosts(1).build());
  container::Engine engine(machine);
  container::ContainerSpec spec;
  spec.name = "pinned";
  spec.cpuset = {12, 13, 14};  // socket 1 cores
  auto& cont = engine.run(0, spec);
  EXPECT_EQ(cont.core_for(0).socket, 1);
  EXPECT_EQ(cont.core_for(2).core, 2);
  EXPECT_EQ(cont.core_for(3).core, 0);  // wraps
  container::ContainerSpec bad;
  bad.name = "bad";
  bad.cpuset = {99};
  EXPECT_THROW(engine.run(0, bad), Error);
}

TEST(Container, SpawnInheritsNamespaces) {
  osl::Machine machine(topo::ClusterBuilder().hosts(1).build());
  container::Engine engine(machine);
  auto& cont = engine.run(0, named("c"));
  auto proc = engine.spawn(cont, 0);
  EXPECT_EQ(proc->hostname(), "c");
  EXPECT_TRUE(proc->namespaces().shares(osl::NamespaceType::Uts, cont.namespaces()));
  auto native = engine.spawn_native(0, topo::CoreId{0, 0});
  EXPECT_EQ(native->hostname(), "host0");
}

TEST(Deployment, LabelsMatchPaperScenarios) {
  EXPECT_EQ(container::DeploymentSpec::native_hosts(1, 16).label(), "Native");
  EXPECT_EQ(container::DeploymentSpec::containers(1, 1, 16).label(), "1-Container");
  EXPECT_EQ(container::DeploymentSpec::containers(1, 2, 16).label(), "2-Containers");
  EXPECT_EQ(container::DeploymentSpec::containers(1, 4, 16).label(), "4-Containers");
}

TEST(Deployment, BlockDistribution) {
  const auto cluster = topo::ClusterBuilder().hosts(2).build();
  const auto placement = container::plan_deployment(
      cluster, container::DeploymentSpec::containers(2, 2, 4));
  ASSERT_EQ(placement.slots.size(), 8u);
  // Ranks 0..3 on host 0, 4..7 on host 1; two ranks per container.
  EXPECT_EQ(placement.slots[0].host, 0);
  EXPECT_EQ(placement.slots[3].host, 0);
  EXPECT_EQ(placement.slots[4].host, 1);
  EXPECT_EQ(placement.slots[0].container_index, 0);
  EXPECT_EQ(placement.slots[1].container_index, 0);
  EXPECT_EQ(placement.slots[2].container_index, 1);
  EXPECT_EQ(placement.slots[7].container_index, 1);
}

TEST(Deployment, NativeHasNoContainers) {
  const auto cluster = topo::ClusterBuilder().hosts(1).build();
  const auto placement = container::plan_deployment(
      cluster, container::DeploymentSpec::native_hosts(1, 4));
  // The host is still listed, with no containers on it.
  ASSERT_EQ(placement.host_cpusets.size(), 1u);
  EXPECT_TRUE(placement.host_cpusets[0].empty());
  EXPECT_EQ(placement.containers_on(0), 0);
  for (const auto& slot : placement.slots) EXPECT_EQ(slot.container_index, -1);
}

TEST(Deployment, PackPolicyGivesDisjointCpusets) {
  const auto cluster = topo::ClusterBuilder().hosts(2).build();
  auto spec = container::DeploymentSpec::containers(2, 4, 16);
  const auto placement = container::plan_deployment(cluster, spec);
  ASSERT_EQ(placement.host_cpusets.size(), 2u);
  for (int h = 0; h < 2; ++h) {
    ASSERT_EQ(placement.containers_on(h), 4);
    std::vector<int> all;
    for (int c = 0; c < 4; ++c) {
      const auto& cpuset = placement.cpuset_of(h, c);
      EXPECT_EQ(cpuset.size(), 4u);
      all.insert(all.end(), cpuset.begin(), cpuset.end());
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
        << "containers must not share cores";
  }
  // Every host gets the same carving.
  EXPECT_EQ(placement.host_cpusets[0], placement.host_cpusets[1]);
}

TEST(Deployment, SocketPolicies) {
  const auto cluster = topo::ClusterBuilder().hosts(1).build();

  auto same = container::DeploymentSpec::containers(1, 2, 2);
  same.socket_policy = container::SocketPolicy::SameSocket;
  const auto same_placement = container::plan_deployment(cluster, same);
  EXPECT_EQ(same_placement.slots[0].core.socket, 0);
  EXPECT_EQ(same_placement.slots[1].core.socket, 0);

  auto distinct = container::DeploymentSpec::containers(1, 2, 2);
  distinct.socket_policy = container::SocketPolicy::DistinctSockets;
  const auto distinct_placement = container::plan_deployment(cluster, distinct);
  EXPECT_EQ(distinct_placement.slots[0].core.socket, 0);
  EXPECT_EQ(distinct_placement.slots[1].core.socket, 1);
}

TEST(Deployment, ValidatesInputs) {
  const auto cluster = topo::ClusterBuilder().hosts(1).build();
  EXPECT_THROW(container::plan_deployment(
                   cluster, container::DeploymentSpec::containers(2, 1, 1)),
               Error);  // more hosts than the cluster has
  EXPECT_THROW(container::plan_deployment(
                   cluster, container::DeploymentSpec::containers(1, 3, 4)),
               Error);  // 4 procs do not divide into 3 containers
}

}  // namespace
}  // namespace cbmpi
