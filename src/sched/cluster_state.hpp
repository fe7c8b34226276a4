// Shared-cluster capacity accounting: which cores of which host are claimed
// by which running job. Placers read it (free_cores), the scheduler mutates
// it (claim/release). This is bookkeeping over a topo::Cluster — the actual
// containers/processes are materialized per job by the runtime.
#pragma once

#include <vector>

#include "topo/hardware.hpp"

namespace cbmpi::sched {

class ClusterState {
 public:
  explicit ClusterState(const topo::Cluster& cluster);

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  int total_cores() const { return total_cores_; }

  /// Free cores on `host`; 0 when the host is blacklisted (placers then
  /// route around it with no special-casing).
  int free_count(topo::HostId host) const;
  int total_free() const;
  /// Ascending flat indices of unclaimed cores on `host`; empty when the
  /// host is blacklisted.
  std::vector<int> free_cores(topo::HostId host) const;

  /// Removes `host` from placement: free_count/free_cores report nothing
  /// available there. Running jobs keep their claims until release().
  void blacklist(topo::HostId host);
  bool is_blacklisted(topo::HostId host) const;
  int blacklisted_hosts() const;
  /// Cores a new job could ever get: total minus blacklisted hosts' cores.
  int placeable_cores() const;

  /// Claims the `count` lowest free cores on `host` for `job_id`; returns
  /// them. Throws if fewer than `count` are free.
  std::vector<int> claim(topo::HostId host, int count, int job_id);

  /// Releases every core held by `job_id` (all hosts).
  void release(int job_id);

  /// Owning job of a core, -1 when free.
  int owner(topo::HostId host, int core) const;

 private:
  struct HostCores {
    std::vector<int> owner;  ///< per flat core: job id or -1
    int free = 0;
    bool blacklisted = false;
  };

  std::vector<HostCores> hosts_;
  int total_cores_ = 0;
};

}  // namespace cbmpi::sched
