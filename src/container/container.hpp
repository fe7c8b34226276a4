// Containers: lightweight virtualization via namespaces + cpusets.
//
// A Container is a namespace template plus a cpuset on one host. Docker-like
// options modelled (because the paper depends on them):
//   * --privileged            -> HCA device access from inside the container
//   * --ipc=host / --pid=host -> share the host's IPC / PID namespace
//   * --cpuset-cpus           -> pin the container to specific cores
//   * hostname                -> each container gets a unique hostname by
//                                default (new UTS namespace), which is what
//                                defeats hostname-based locality detection.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "osl/machine.hpp"
#include "osl/namespaces.hpp"
#include "topo/hardware.hpp"

namespace cbmpi::container {

struct ContainerSpec {
  std::string name;                ///< also the container's hostname
  bool privileged = true;          ///< access to the host HCA (docker --privileged)
  bool share_host_ipc = true;      ///< docker run --ipc=host
  bool share_host_pid = true;      ///< docker run --pid=host
  bool share_host_net = false;     ///< docker run --net=host
  std::vector<int> cpuset;         ///< flat core indices; empty = all host cores

  // --- hypervisor-based virtualization (the paper's Fig. 2a alternative) ---
  /// Treat this "container" as a KVM-style virtual machine: its own guest
  /// kernel, so ALL namespaces are private regardless of the share flags,
  /// and the HCA is reached through an SR-IOV virtual function.
  bool virtual_machine = false;
  /// Attach the host's IVSHMEM device (inter-VM shared memory); meaningful
  /// only for VMs. Enables SHM (double copy) across co-resident VMs — but
  /// never CMA, because PID namespaces stay private.
  bool ivshmem = false;
};

class Container {
 public:
  Container(int id, ContainerSpec spec, osl::HostOs& host);

  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  int id() const { return id_; }
  const ContainerSpec& spec() const { return spec_; }
  osl::HostOs& host() const { return *host_; }
  const osl::NamespaceSet& namespaces() const { return namespaces_; }

  /// Hostname inside the container (== spec.name, via its UTS namespace).
  std::string hostname() const;

  /// Can processes in this container open the host's InfiniBand device?
  /// VMs reach it through an SR-IOV virtual function instead of --privileged.
  bool can_access_hca() const {
    if (spec_.virtual_machine) return host_->hardware().shape().has_hca;
    return spec_.privileged && host_->hardware().shape().has_hca;
  }

  /// Picks the n-th core of the cpuset (wraps around if oversubscribed).
  topo::CoreId core_for(int slot) const;

 private:
  int id_;
  ContainerSpec spec_;
  osl::HostOs* host_;
  osl::NamespaceSet namespaces_;
};

}  // namespace cbmpi::container
