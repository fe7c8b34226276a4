// SimProcess: one simulated OS process (== one MPI rank at the mpi layer).
//
// Each SimProcess runs as one rank fiber (mpi/fiber.hpp) but all *measured* time is
// its VirtualClock, advanced by channel/compute cost models. The process
// carries the namespace set of the container (or host) it was spawned in and
// a core binding (the launcher pins ranks to cores like the paper pins
// containers).
#pragma once

#include <string>

#include "osl/machine.hpp"
#include "osl/namespaces.hpp"
#include "sim/clock.hpp"
#include "topo/hardware.hpp"

namespace cbmpi::osl {

class SimProcess {
 public:
  SimProcess(HostOs& host, NamespaceSet namespaces, topo::CoreId core)
      : host_(&host), pid_(host.allocate_pid()), namespaces_(namespaces), core_(core) {}

  SimProcess(const SimProcess&) = delete;
  SimProcess& operator=(const SimProcess&) = delete;

  Pid pid() const { return pid_; }
  HostOs& host() const { return *host_; }
  const NamespaceSet& namespaces() const { return namespaces_; }
  topo::CoreId core() const { return core_; }

  /// gethostname() as this process sees it (depends on its UTS namespace).
  std::string hostname() const {
    return host_->hostname(namespaces_.get(NamespaceType::Uts));
  }

  sim::VirtualClock& clock() { return clock_; }
  const sim::VirtualClock& clock() const { return clock_; }

  /// Advances the clock by a compute phase of `ops` abstract work units.
  void compute(double ops) {
    clock_.advance(ops / host_->profile().compute_ops_per_micro);
  }

  bool same_host(const SimProcess& other) const { return host_ == other.host_; }
  bool same_socket(const SimProcess& other) const {
    return same_host(other) && core_.socket == other.core_.socket;
  }

 private:
  HostOs* host_;
  Pid pid_;
  NamespaceSet namespaces_;
  topo::CoreId core_;
  sim::VirtualClock clock_;
};

}  // namespace cbmpi::osl
