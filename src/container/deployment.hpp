// Deployment scenarios: how a job's ranks map onto hosts, containers, cores.
//
// Mirrors the paper's experiment matrix: "native", "1 container per host",
// "2 containers per host", "4 containers per host", with containers pinned to
// disjoint cores, optionally forced onto the same or different sockets (the
// intra-/inter-socket cases of Fig. 8).
#pragma once

#include <string>
#include <vector>

#include "topo/hardware.hpp"

namespace cbmpi::container {

enum class IsolationKind {
  Container,        ///< namespaces + cgroups (lightweight, the paper's focus)
  VirtualMachine,   ///< hypervisor guests with SR-IOV HCA access
};

enum class SocketPolicy {
  Pack,              ///< fill socket 0 first, then socket 1, ...
  SameSocket,        ///< force all containers onto socket 0
  DistinctSockets,   ///< container i on socket i % sockets
};

struct DeploymentSpec {
  int num_hosts = 1;
  int containers_per_host = 1;  ///< 0 = native (no containers)
  int procs_per_host = 1;       ///< must divide evenly among containers
  SocketPolicy socket_policy = SocketPolicy::Pack;

  // Docker options applied to every container.
  bool privileged = true;
  bool share_host_ipc = true;
  bool share_host_pid = true;

  // Hypervisor mode (ignored when containers_per_host == 0).
  IsolationKind isolation = IsolationKind::Container;
  bool ivshmem = false;  ///< attach the inter-VM shared-memory device

  bool native() const { return containers_per_host == 0; }
  int total_ranks() const { return num_hosts * procs_per_host; }
  int procs_per_container() const {
    return native() ? procs_per_host : procs_per_host / containers_per_host;
  }

  /// Scenario label for bench tables ("Native", "2-Containers", "2-VMs"...).
  std::string label() const;

  // Convenience constructors for the paper's scenarios.
  static DeploymentSpec native_hosts(int hosts, int procs_per_host);
  static DeploymentSpec containers(int hosts, int containers_per_host,
                                   int procs_per_host);
  static DeploymentSpec virtual_machines(int hosts, int vms_per_host,
                                         int procs_per_host, bool with_ivshmem);
};

/// Where one rank lives.
struct RankSlot {
  topo::HostId host = 0;
  int container_index = -1;  ///< index within the host's containers; -1 native
  int core_slot = 0;         ///< which cpuset slot within the container
  topo::CoreId core;         ///< resolved physical core
};

struct JobPlacement {
  DeploymentSpec spec;
  std::vector<RankSlot> slots;  ///< indexed by rank (block distribution)
  /// Container cpusets (flat core indices), indexed [host][container]: one
  /// entry per host the placement spans, an empty list where the host runs
  /// its ranks natively. plan_deployment gives every host the same list;
  /// scheduler-emitted placements may differ per host (e.g. a 6-rank job
  /// split 4+2).
  std::vector<std::vector<std::vector<int>>> host_cpusets;

  int total_ranks() const { return static_cast<int>(slots.size()); }

  /// Hosts the placement spans (dense ids 0..num_hosts()-1).
  int num_hosts() const { return static_cast<int>(host_cpusets.size()); }

  /// Containers deployed on one host (0 when the placement is native there).
  int containers_on(topo::HostId host) const;

  /// The cpuset of container `index` on `host`.
  const std::vector<int>& cpuset_of(topo::HostId host, int index) const;
};

/// Computes the rank->slot mapping. Ranks are block-distributed: ranks
/// [h*P, (h+1)*P) live on host h; within a host, consecutive ranks fill
/// container 0 first (matching mpirun's default grouping).
JobPlacement plan_deployment(const topo::Cluster& cluster, const DeploymentSpec& spec);

/// Structural validation shared by the homogeneous and scheduler-driven
/// paths: every slot's host/container/core must exist in the cluster and the
/// placement, and container cpusets on one host must be in-range and
/// pairwise disjoint. Throws `Error` with the offending entry otherwise.
void validate_placement(const topo::Cluster& cluster, const JobPlacement& placement);

}  // namespace cbmpi::container
