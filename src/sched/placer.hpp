// Placement policies: which hosts and cores a job's ranks land on.
//
// This is the axis the paper's result rides on. The runtime can only
// reschedule intra-host traffic onto SHM/CMA if the *deployment* put the
// communicating ranks on the same host — so the placer decides, before a
// byte moves, how much of a job's traffic can ever leave the HCA.
//
//   * Packed        — fill the emptiest hosts first, contiguous rank blocks
//                     (minimum host count; maximum co-residence for
//                     neighbour-structured traffic).
//   * Spread        — balance ranks round-robin across all hosts (classic
//                     load-levelling; worst case for locality).
//   * Random        — seeded uniform host choice per rank (the baseline a
//                     naive cloud scheduler gives you).
//   * LocalityAware — greedy graph growing over a communication-volume hint
//                     (from the job's body registry entry, or an explicit
//                     matrix, e.g. out of a prior prof run): maximizes the
//                     traffic weight kept co-resident under the current free
//                     core distribution.
//   * TopologyAware — LocalityAware's rank grouping over a host set chosen
//                     by fabric proximity: hosts are accreted in hop-distance
//                     order (same edge switch, then same pod, then cross-pod),
//                     minimizing the expected hop-weighted traffic the fabric
//                     model charges for. Needs the scheduler's host hop
//                     matrix; without one it degrades to LocalityAware.
//
// A placement maps onto the runtime as one container per `ranks_per_container`
// chunk per host with an explicit disjoint cpuset — i.e. placers ultimately
// emit a DeploymentSpec + JobPlacement pair whose hosts may carry different
// container counts, for mpi::run_job.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sched/cluster_state.hpp"
#include "sched/job.hpp"

namespace cbmpi::sched {

/// The five placement strategies described above.
enum class PlacementPolicy { Packed, Spread, Random, LocalityAware, TopologyAware };

/// Lower-case CLI token for the policy ("packed", "locality", ...).
const char* to_string(PlacementPolicy policy);
/// Inverse of to_string(); nullopt for unknown names.
std::optional<PlacementPolicy> parse_policy(const std::string& name);

/// One host's share of a job: which job ranks run there, on which physical
/// cores (parallel arrays; consecutive ranks fill containers in order).
struct HostAssignment {
  topo::HostId host = 0;
  std::vector<int> ranks;
  std::vector<int> cores;
};

/// A complete job-to-cluster mapping: every rank appears in exactly one
/// host's assignment.
struct Placement {
  std::vector<HostAssignment> hosts;  ///< ascending physical host id
};

/// Strategy interface implemented by each PlacementPolicy.
class Placer {
 public:
  virtual ~Placer() = default;
  /// Stable display name ("packed", "locality", ...) for tables and logs.
  virtual const char* name() const = 0;

  /// Chooses hosts/cores for `job` given current free capacity, or nullopt
  /// when the job cannot start now. Pure function of (job, state, seed):
  /// repeated calls — e.g. backfill probes — return identical placements.
  virtual std::optional<Placement> place(const JobSpec& job,
                                         const ClusterState& state) const = 0;
};

/// Factory: the Placer implementing `policy`. `seed` only matters for
/// Random (and ties in LocalityAware); same seed, same placements.
/// `host_hops` — fabric hop distance between every physical host pair
/// (net::Topology::hops) — is consumed by TopologyAware, which copies it;
/// other policies ignore it. TopologyAware without a matrix behaves like
/// LocalityAware.
std::unique_ptr<Placer> make_placer(
    PlacementPolicy policy, std::uint64_t seed,
    const std::vector<std::vector<int>>* host_hops = nullptr);

/// The job's effective communication-volume hint: the spec's explicit matrix
/// when present, else the body's registry hint.
mpi::TrafficMatrix effective_traffic(const JobSpec& job);

/// Pair/traffic locality achieved by a placement.
PlacementStats placement_stats(const JobSpec& job, const Placement& placement,
                               const mpi::TrafficMatrix& traffic);

/// Materializes the placement as a runnable JobConfig: dense job-local host
/// ids, one container per ranks_per_container chunk with an explicit cpuset
/// (or native processes when ranks_per_container == 0), namespace flags from
/// the spec.
mpi::JobConfig make_job_config(const JobSpec& job, const Placement& placement,
                               const topo::HostShape& shape);

}  // namespace cbmpi::sched
