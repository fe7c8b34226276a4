#include "fabric/selector.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cbmpi::fabric {

const char* to_string(LocalityPolicy policy) {
  switch (policy) {
    case LocalityPolicy::HostnameBased: return "hostname-based (default)";
    case LocalityPolicy::ContainerAware: return "container-aware (proposed)";
  }
  return "?";
}

ChannelSelector::ChannelSelector(LocalityPolicy policy, TuningParams tuning,
                                 std::vector<RankEndpoint> endpoints,
                                 const faults::FaultInjector* faults,
                                 faults::FaultLog* fault_log)
    : policy_(policy),
      tuning_(tuning),
      endpoints_(std::move(endpoints)),
      faults_(faults != nullptr && faults->enabled() ? faults : nullptr),
      fault_log_(fault_log) {
  CBMPI_REQUIRE(!endpoints_.empty(), "selector needs at least one endpoint");
  for (const auto& ep : endpoints_)
    CBMPI_REQUIRE(ep.process != nullptr, "endpoint without a process");
  if (faults_ != nullptr) {
    // Resolve every rank's /dev/shm verdict once up front: the probes are
    // pure functions of (seed, rank), and a degraded pair would otherwise
    // re-hash them on every select() for the rest of the job.
    shm_fail_.reserve(endpoints_.size());
    for (int r = 0; r < num_ranks(); ++r)
      shm_fail_.push_back(faults_->shm_segment_fails(r) ? 1 : 0);
    cma_memo_ = std::make_unique<std::atomic<std::uint8_t>[]>(
        endpoints_.size() * endpoints_.size());
  }
}

bool ChannelSelector::cma_denied(int a, int b) const {
  const auto idx = static_cast<std::size_t>(a) * endpoints_.size() +
                   static_cast<std::size_t>(b);
  const std::uint8_t cached = cma_memo_[idx].load(std::memory_order_relaxed);
  if (cached != 0) return cached == 2;
  const bool denied = faults_->cma_permission_denied(a, b);
  cma_memo_[idx].store(denied ? 2 : 1, std::memory_order_relaxed);
  return denied;
}

void ChannelSelector::set_detected_locality(
    std::vector<std::vector<std::uint8_t>> co_resident) {
  CBMPI_REQUIRE(co_resident.size() == endpoints_.size(),
                "locality matrix rank count mismatch");
  detected_ = std::move(co_resident);
}

const RankEndpoint& ChannelSelector::endpoint(int rank) const {
  CBMPI_REQUIRE(rank >= 0 && rank < num_ranks(), "rank out of range: ", rank);
  return endpoints_[static_cast<std::size_t>(rank)];
}

bool ChannelSelector::same_host(int a, int b) const {
  return endpoint(a).process->same_host(*endpoint(b).process);
}

bool ChannelSelector::same_socket(int a, int b) const {
  return endpoint(a).process->same_socket(*endpoint(b).process);
}

bool ChannelSelector::co_resident(int a, int b) const {
  if (a == b) return true;
  switch (policy_) {
    case LocalityPolicy::HostnameBased:
      return endpoint(a).hostname == endpoint(b).hostname;
    case LocalityPolicy::ContainerAware: {
      CBMPI_REQUIRE(!detected_.empty(),
                    "ContainerAware policy used before locality detection ran");
      return detected_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] != 0;
    }
  }
  return false;
}

bool ChannelSelector::cma_usable(int a, int b) const {
  if (!tuning_.use_cma) return false;
  if (faults_ && cma_denied(a, b)) return false;
  return endpoint(a).process->namespaces().shares(osl::NamespaceType::Pid,
                                                  endpoint(b).process->namespaces());
}

bool ChannelSelector::shm_usable(int a, int b) const {
  return faults_ == nullptr || (shm_fail_[static_cast<std::size_t>(a)] == 0 &&
                                shm_fail_[static_cast<std::size_t>(b)] == 0);
}

ChannelSelector::Decision ChannelSelector::select(int src, int dst, Bytes size) const {
  Decision d;
  d.same_socket = same_socket(src, dst);
  d.loopback = same_host(src, dst);
  d.sriov = endpoint(src).sriov || endpoint(dst).sriov;

  if (forced_) {
    d.channel = *forced_;
    switch (*forced_) {
      case ChannelKind::Shm:
        d.protocol = size < tuning_.smp_eager_size ? Protocol::Eager
                                                   : Protocol::Rendezvous;
        break;
      case ChannelKind::Cma:
        d.protocol = Protocol::Rendezvous;  // CMA is always rendezvous
        break;
      case ChannelKind::Hca:
        d.protocol = size < tuning_.iba_eager_threshold ? Protocol::Eager
                                                        : Protocol::Rendezvous;
        break;
    }
    return d;
  }

  if (co_resident(src, dst)) {
    // Fallback chain, evaluated per pair: CMA -> SHM -> HCA. An injected CMA
    // EPERM demotes large transfers to SHM rendezvous; an injected /dev/shm
    // failure on either endpoint knocks out both SHM paths and drops the
    // pair onto the HCA loopback below.
    if (shm_usable(src, dst)) {
      if (size < tuning_.smp_eager_size) {
        d.channel = ChannelKind::Shm;
        d.protocol = Protocol::Eager;
      } else if (cma_usable(src, dst)) {
        d.channel = ChannelKind::Cma;
        d.protocol = Protocol::Rendezvous;
      } else {
        d.channel = ChannelKind::Shm;
        d.protocol = Protocol::Rendezvous;
        // Attribute the demotion when the *injected* EPERM (not the
        // deployment's namespace config) is what knocked CMA out.
        if (fault_log_ && faults_ && tuning_.use_cma && cma_denied(src, dst) &&
            endpoint(src).process->namespaces().shares(
                osl::NamespaceType::Pid, endpoint(dst).process->namespaces())) {
          const auto [lo, hi] = std::minmax(src, dst);
          if (fault_log_->record_degradation(
                  src, {faults::DegradationKind::CmaFallbackToShm, lo, hi}))
            fault_log_->record_fault(
                src, {faults::FaultKind::CmaEperm, lo, hi, 0.0,
                      "process_vm_readv EPERM (injected)"});
        }
      }
      return d;
    }
    if (fault_log_) {
      const auto [lo, hi] = std::minmax(src, dst);
      fault_log_->record_degradation(
          src, {faults::DegradationKind::ShmFallbackToHca, lo, hi});
    }
  }

  CBMPI_REQUIRE(endpoint(src).hca_accessible && endpoint(dst).hca_accessible,
                "ranks ", src, " and ", dst,
                " must communicate over the HCA but at least one container "
                "was started without --privileged");
  d.channel = ChannelKind::Hca;
  d.protocol = size < tuning_.iba_eager_threshold ? Protocol::Eager
                                                  : Protocol::Rendezvous;
  return d;
}

}  // namespace cbmpi::fabric
