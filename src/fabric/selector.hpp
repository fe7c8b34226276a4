// Channel selection policy.
//
// This is the decision the whole paper hinges on. For every (src, dst) pair
// the runtime must decide which channel carries the message:
//
//   * HostnameBased (default MVAPICH2 behaviour): peers are "local" iff their
//     hostnames match. Every container has a unique hostname, so co-resident
//     containers are misclassified as remote and fall onto the HCA loopback
//     path — the bottleneck identified in Sec. III.
//
//   * ContainerAware (the paper's design): peers are local iff the Container
//     Locality Detector found them in the same shared-memory container list,
//     which works across containers whenever the host's IPC namespace is
//     shared.
//
// Local traffic is split by SMP_EAGER_SIZE between the SHM eager path and
// the CMA rendezvous path (when the PID namespace is shared); remote traffic
// is split by MV2_IBA_EAGER_THRESHOLD between HCA eager and HCA rendezvous.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fabric/message.hpp"
#include "fabric/tuning.hpp"
#include "faults/fault.hpp"
#include "osl/process.hpp"

namespace cbmpi::fabric {

enum class LocalityPolicy { HostnameBased, ContainerAware };

const char* to_string(LocalityPolicy policy);

/// What the runtime knows about one rank at selection time.
struct RankEndpoint {
  const osl::SimProcess* process = nullptr;
  std::string hostname;         ///< gethostname() inside the rank's container
  bool hca_accessible = true;   ///< container started with --privileged
  bool sriov = false;           ///< HCA reached through an SR-IOV VF (VMs)
};

class ChannelSelector {
 public:
  /// `faults`/`fault_log` are optional: when an injector is present the
  /// selector evaluates the CMA -> SHM -> HCA fallback chain per pair (an
  /// injected CMA EPERM demotes large messages to SHM rendezvous; an injected
  /// /dev/shm failure on either endpoint demotes the pair to the HCA
  /// loopback) and records each degradation decision once.
  ChannelSelector(LocalityPolicy policy, TuningParams tuning,
                  std::vector<RankEndpoint> endpoints,
                  const faults::FaultInjector* faults = nullptr,
                  faults::FaultLog* fault_log = nullptr);

  /// Installs the Container Locality Detector's result (required before the
  /// first select() under ContainerAware): each rank's list key, the lowest
  /// rank announced in the container list it scanned, or -1 for a rank that
  /// fell back to hostname locality.
  void set_detected_locality(std::vector<int> list_keys);

  struct Decision {
    ChannelKind channel = ChannelKind::Hca;
    Protocol protocol = Protocol::Eager;
    bool same_socket = false;  ///< physical, for SHM/CMA copy costs
    bool loopback = false;     ///< physical, for the HCA path
    bool sriov = false;        ///< either endpoint behind an SR-IOV VF
  };

  Decision select(int src, int dst, Bytes size) const;

  /// Does the policy consider these ranks co-resident? Two ranks with list
  /// keys are iff the keys match; a pair with a -1 key on either side (every
  /// pair under HostnameBased) is iff the hostnames match.
  bool co_resident(int a, int b) const;

  /// For each member of `ranks` (world ranks), the index in `ranks` of the
  /// lowest-indexed member co-resident with it, read from min-per-key tables
  /// in O(num_ranks()).
  std::vector<int> lowest_co_resident(const std::vector<int>& ranks) const;

  /// Physical truth, independent of policy.
  bool same_host(int a, int b) const;
  bool same_socket(int a, int b) const;

  /// Forces every selection onto one channel (Fig. 3 channel comparison).
  void force_channel(std::optional<ChannelKind> kind) { forced_ = kind; }

  LocalityPolicy policy() const { return policy_; }
  const TuningParams& tuning() const { return tuning_; }
  int num_ranks() const { return static_cast<int>(endpoints_.size()); }
  const RankEndpoint& endpoint(int rank) const;

  /// Is the pair's SHM path intact (no injected /dev/shm failure on either
  /// endpoint)? Exposed for the runtime's degradation bookkeeping.
  bool shm_usable(int a, int b) const;

 private:
  bool cma_usable(int a, int b) const;
  /// Memoized injector probe: the verdicts are pure functions of (seed,
  /// pair), so each is computed at most once and degraded selection stays
  /// O(1) per pair instead of re-hashing the probes on every message.
  bool cma_denied(int a, int b) const;

  LocalityPolicy policy_;
  TuningParams tuning_;
  std::vector<RankEndpoint> endpoints_;
  /// Per rank: the detector's list key (all -1 under HostnameBased; empty
  /// under ContainerAware until detection ran) and the lowest rank sharing
  /// its hostname.
  std::vector<int> list_key_;
  std::vector<int> host_key_;
  std::optional<ChannelKind> forced_;
  const faults::FaultInjector* faults_;
  faults::FaultLog* fault_log_;

  /// Per-rank /dev/shm verdict, precomputed in the constructor (empty when
  /// no injector): a host-wide /dev/shm fault demotes every pair touching
  /// the rank, and select() must not re-probe it per message.
  std::vector<std::uint8_t> shm_fail_;
  /// Lazy per-pair CMA EPERM verdict: 0 = unknown, 1 = clear, 2 = denied.
  /// Atomic because ranks select concurrently; the probe is pure, so racing
  /// writers store the same value.
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> cma_memo_;
};

}  // namespace cbmpi::fabric
