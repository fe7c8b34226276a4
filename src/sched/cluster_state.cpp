#include "sched/cluster_state.hpp"

#include "common/error.hpp"

namespace cbmpi::sched {

ClusterState::ClusterState(const topo::Cluster& cluster) {
  hosts_.reserve(static_cast<std::size_t>(cluster.num_hosts()));
  for (const auto& host : cluster.hosts()) {
    HostCores cores;
    cores.owner.assign(static_cast<std::size_t>(host.shape().total_cores()), -1);
    cores.free = host.shape().total_cores();
    total_cores_ += cores.free;
    hosts_.push_back(std::move(cores));
  }
}

int ClusterState::free_count(topo::HostId host) const {
  CBMPI_REQUIRE(host >= 0 && host < num_hosts(), "no host ", host);
  const auto& cores = hosts_[static_cast<std::size_t>(host)];
  return cores.blacklisted ? 0 : cores.free;
}

int ClusterState::total_free() const {
  int total = 0;
  for (const auto& host : hosts_)
    if (!host.blacklisted) total += host.free;
  return total;
}

std::vector<int> ClusterState::free_cores(topo::HostId host) const {
  CBMPI_REQUIRE(host >= 0 && host < num_hosts(), "no host ", host);
  const auto& cores = hosts_[static_cast<std::size_t>(host)];
  if (cores.blacklisted) return {};
  std::vector<int> free;
  for (std::size_t c = 0; c < cores.owner.size(); ++c)
    if (cores.owner[c] < 0) free.push_back(static_cast<int>(c));
  return free;
}

void ClusterState::blacklist(topo::HostId host) {
  CBMPI_REQUIRE(host >= 0 && host < num_hosts(), "no host ", host);
  hosts_[static_cast<std::size_t>(host)].blacklisted = true;
}

bool ClusterState::is_blacklisted(topo::HostId host) const {
  CBMPI_REQUIRE(host >= 0 && host < num_hosts(), "no host ", host);
  return hosts_[static_cast<std::size_t>(host)].blacklisted;
}

int ClusterState::blacklisted_hosts() const {
  int count = 0;
  for (const auto& host : hosts_)
    if (host.blacklisted) ++count;
  return count;
}

int ClusterState::placeable_cores() const {
  int total = 0;
  for (const auto& host : hosts_)
    if (!host.blacklisted) total += static_cast<int>(host.owner.size());
  return total;
}

std::vector<int> ClusterState::claim(topo::HostId host, int count, int job_id) {
  CBMPI_REQUIRE(host >= 0 && host < num_hosts(), "no host ", host);
  CBMPI_REQUIRE(count > 0, "claim needs a positive core count");
  CBMPI_REQUIRE(job_id >= 0, "claim needs a job id");
  auto& cores = hosts_[static_cast<std::size_t>(host)];
  CBMPI_REQUIRE(!cores.blacklisted, "job ", job_id,
                " placed on blacklisted host ", host);
  CBMPI_REQUIRE(count <= cores.free, "job ", job_id, " wants ", count,
                " cores on host ", host, ", only ", cores.free, " free");
  std::vector<int> claimed;
  claimed.reserve(static_cast<std::size_t>(count));
  for (std::size_t c = 0; c < cores.owner.size() && count > 0; ++c) {
    if (cores.owner[c] >= 0) continue;
    cores.owner[c] = job_id;
    --cores.free;
    --count;
    claimed.push_back(static_cast<int>(c));
  }
  return claimed;
}

void ClusterState::release(int job_id) {
  for (auto& cores : hosts_)
    for (auto& owner : cores.owner)
      if (owner == job_id) {
        owner = -1;
        ++cores.free;
      }
}

int ClusterState::owner(topo::HostId host, int core) const {
  CBMPI_REQUIRE(host >= 0 && host < num_hosts(), "no host ", host);
  const auto& owners = hosts_[static_cast<std::size_t>(host)].owner;
  CBMPI_REQUIRE(core >= 0 && core < static_cast<int>(owners.size()), "host ",
                host, " has no core ", core);
  return owners[static_cast<std::size_t>(core)];
}

}  // namespace cbmpi::sched
