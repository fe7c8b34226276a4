#include "container/deployment.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cbmpi::container {

int JobPlacement::containers_on(topo::HostId host) const {
  CBMPI_REQUIRE(host >= 0 && host < num_hosts(), "placement has no host ", host);
  return static_cast<int>(host_cpusets[static_cast<std::size_t>(host)].size());
}

const std::vector<int>& JobPlacement::cpuset_of(topo::HostId host, int index) const {
  CBMPI_REQUIRE(index >= 0 && index < containers_on(host), "host ", host,
                " has no container ", index);
  return host_cpusets[static_cast<std::size_t>(host)]
                     [static_cast<std::size_t>(index)];
}

void validate_placement(const topo::Cluster& cluster, const JobPlacement& placement) {
  CBMPI_REQUIRE(!placement.slots.empty(), "placement has no ranks");
  CBMPI_REQUIRE(placement.num_hosts() <= cluster.num_hosts(), "placement spans ",
                placement.num_hosts(), " hosts, cluster has ", cluster.num_hosts());
  for (std::size_t r = 0; r < placement.slots.size(); ++r) {
    const auto& slot = placement.slots[r];
    CBMPI_REQUIRE(slot.host >= 0 && slot.host < placement.num_hosts(), "rank ", r,
                  " placed on host ", slot.host, " outside the placement's ",
                  placement.num_hosts(), " hosts");
    const auto& shape = cluster.host(slot.host).shape();
    CBMPI_REQUIRE(slot.core.socket >= 0 && slot.core.socket < shape.sockets &&
                      slot.core.core >= 0 && slot.core.core < shape.cores_per_socket,
                  "rank ", r, " pinned to nonexistent core (socket ",
                  slot.core.socket, ", core ", slot.core.core, ")");
    if (slot.container_index >= 0)
      CBMPI_REQUIRE(slot.container_index < placement.containers_on(slot.host),
                    "rank ", r, " assigned to container ", slot.container_index,
                    " but host ", slot.host, " deploys only ",
                    placement.containers_on(slot.host));
  }
  for (int h = 0; h < placement.num_hosts(); ++h) {
    const int total = cluster.host(h).shape().total_cores();
    std::vector<int> claimed;
    for (int c = 0; c < placement.containers_on(h); ++c) {
      for (const int core : placement.cpuset_of(h, c)) {
        CBMPI_REQUIRE(core >= 0 && core < total, "container ", c, " on host ", h,
                      " pins core ", core, " outside [0, ", total, ")");
        claimed.push_back(core);
      }
    }
    std::sort(claimed.begin(), claimed.end());
    const auto dup = std::adjacent_find(claimed.begin(), claimed.end());
    CBMPI_REQUIRE(dup == claimed.end(), "containers on host ", h,
                  " share core ", dup == claimed.end() ? -1 : *dup,
                  " (cpusets must be disjoint)");
  }
}

std::string DeploymentSpec::label() const {
  if (native()) return "Native";
  if (isolation == IsolationKind::VirtualMachine) {
    std::string name = std::to_string(containers_per_host) + "-VM" +
                       (containers_per_host > 1 ? "s" : "");
    if (ivshmem) name += "+ivshmem";
    return name;
  }
  if (containers_per_host == 1) return "1-Container";
  return std::to_string(containers_per_host) + "-Containers";
}

DeploymentSpec DeploymentSpec::native_hosts(int hosts, int procs_per_host) {
  DeploymentSpec spec;
  spec.num_hosts = hosts;
  spec.containers_per_host = 0;
  spec.procs_per_host = procs_per_host;
  return spec;
}

DeploymentSpec DeploymentSpec::containers(int hosts, int containers_per_host,
                                          int procs_per_host) {
  DeploymentSpec spec;
  spec.num_hosts = hosts;
  spec.containers_per_host = containers_per_host;
  spec.procs_per_host = procs_per_host;
  return spec;
}

DeploymentSpec DeploymentSpec::virtual_machines(int hosts, int vms_per_host,
                                                int procs_per_host,
                                                bool with_ivshmem) {
  DeploymentSpec spec;
  spec.num_hosts = hosts;
  spec.containers_per_host = vms_per_host;
  spec.procs_per_host = procs_per_host;
  spec.isolation = IsolationKind::VirtualMachine;
  spec.ivshmem = with_ivshmem;
  return spec;
}

namespace {

/// Assigns each container a contiguous run of cores subject to the socket
/// policy. Containers never share cores (the paper pins containers to
/// disjoint cores to avoid competition).
std::vector<std::vector<int>> carve_cpusets(const topo::HostShape& shape,
                                            const DeploymentSpec& spec) {
  const int n_cont = spec.containers_per_host;
  const int per_cont = spec.procs_per_container();
  std::vector<std::vector<int>> sets(static_cast<std::size_t>(n_cont));

  auto flat = [&](int socket, int core) { return socket * shape.cores_per_socket + core; };

  switch (spec.socket_policy) {
    case SocketPolicy::Pack: {
      int next = 0;
      for (int c = 0; c < n_cont; ++c) {
        for (int p = 0; p < per_cont; ++p)
          sets[static_cast<std::size_t>(c)].push_back(next++ % shape.total_cores());
      }
      break;
    }
    case SocketPolicy::SameSocket: {
      int next = 0;
      for (int c = 0; c < n_cont; ++c)
        for (int p = 0; p < per_cont; ++p)
          sets[static_cast<std::size_t>(c)].push_back(
              flat(0, next++ % shape.cores_per_socket));
      break;
    }
    case SocketPolicy::DistinctSockets: {
      std::vector<int> next_core(static_cast<std::size_t>(shape.sockets), 0);
      for (int c = 0; c < n_cont; ++c) {
        const int socket = c % shape.sockets;
        auto& cursor = next_core[static_cast<std::size_t>(socket)];
        for (int p = 0; p < per_cont; ++p)
          sets[static_cast<std::size_t>(c)].push_back(
              flat(socket, cursor++ % shape.cores_per_socket));
      }
      break;
    }
  }
  return sets;
}

}  // namespace

JobPlacement plan_deployment(const topo::Cluster& cluster, const DeploymentSpec& spec) {
  CBMPI_REQUIRE(spec.num_hosts > 0 && spec.num_hosts <= cluster.num_hosts(),
                "deployment needs ", spec.num_hosts, " hosts, cluster has ",
                cluster.num_hosts());
  CBMPI_REQUIRE(spec.procs_per_host > 0, "procs_per_host must be positive");
  if (!spec.native()) {
    CBMPI_REQUIRE(spec.procs_per_host % spec.containers_per_host == 0,
                  "procs_per_host (", spec.procs_per_host,
                  ") must divide evenly among ", spec.containers_per_host,
                  " containers");
  }

  const auto& shape = cluster.host(0).shape();
  JobPlacement placement;
  placement.spec = spec;
  const std::vector<std::vector<int>> cpusets =
      spec.native() ? std::vector<std::vector<int>>{} : carve_cpusets(shape, spec);
  placement.host_cpusets.assign(static_cast<std::size_t>(spec.num_hosts), cpusets);

  placement.slots.reserve(static_cast<std::size_t>(spec.total_ranks()));
  for (int h = 0; h < spec.num_hosts; ++h) {
    for (int p = 0; p < spec.procs_per_host; ++p) {
      RankSlot slot;
      slot.host = h;
      if (spec.native()) {
        slot.container_index = -1;
        slot.core_slot = p;
        int flat = p % shape.total_cores();
        switch (spec.socket_policy) {
          case SocketPolicy::Pack:
            break;  // consecutive cores fill socket 0 first
          case SocketPolicy::SameSocket:
            flat = p % shape.cores_per_socket;
            break;
          case SocketPolicy::DistinctSockets:
            flat = (p % shape.sockets) * shape.cores_per_socket +
                   (p / shape.sockets) % shape.cores_per_socket;
            break;
        }
        slot.core = cluster.host(h).core_at(flat);
      } else {
        const int per_cont = spec.procs_per_container();
        slot.container_index = p / per_cont;
        slot.core_slot = p % per_cont;
        const auto& cpuset =
            cpusets[static_cast<std::size_t>(slot.container_index)];
        slot.core = cluster.host(h).core_at(
            cpuset[static_cast<std::size_t>(slot.core_slot) % cpuset.size()]);
      }
      placement.slots.push_back(slot);
    }
  }
  return placement;
}

}  // namespace cbmpi::container
