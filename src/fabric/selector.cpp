#include "fabric/selector.hpp"

#include <algorithm>
#include <limits>
#include <string_view>
#include <unordered_map>

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
  std::unordered_map<std::string_view, int> first_with_hostname;
  host_key_.reserve(endpoints_.size());
  for (int r = 0; r < num_ranks(); ++r) {
    const auto& ep = endpoints_[static_cast<std::size_t>(r)];
    CBMPI_REQUIRE(ep.process != nullptr, "endpoint without a process");
    host_key_.push_back(first_with_hostname.try_emplace(ep.hostname, r).first->second);
  }
  if (policy_ == LocalityPolicy::HostnameBased)
    list_key_.assign(endpoints_.size(), -1);
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

void ChannelSelector::set_detected_locality(std::vector<int> list_keys) {
  CBMPI_REQUIRE(list_keys.size() == endpoints_.size(),
                "locality key count mismatch");
  for (const int key : list_keys)
    CBMPI_REQUIRE(key >= -1 && key < num_ranks(), "list key out of range: ", key);
  list_key_ = std::move(list_keys);
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
  CBMPI_REQUIRE(!list_key_.empty(),
                "ContainerAware policy used before locality detection ran");
  const int la = list_key_[static_cast<std::size_t>(a)];
  const int lb = list_key_[static_cast<std::size_t>(b)];
  if (la >= 0 && lb >= 0) return la == lb;
  return host_key_[static_cast<std::size_t>(a)] ==
         host_key_[static_cast<std::size_t>(b)];
}

std::vector<int> ChannelSelector::lowest_co_resident(
    const std::vector<int>& ranks) const {
  CBMPI_REQUIRE(!list_key_.empty(),
                "ContainerAware policy used before locality detection ran");
  // co_resident() read as tables over the keys (all world ranks, so every
  // key indexes a table directly): a keyed member's lowest partner is the
  // lowest member with its list key or the lowest keyless member on its
  // host; a keyless member's is the lowest member on its host.
  const auto n = endpoints_.size();
  constexpr int kNone = std::numeric_limits<int>::max();
  std::vector<int> by_list(n, kNone), keyless_by_host(n, kNone), by_host(n, kNone);
  auto lower = [](int& slot, int i) { slot = std::min(slot, i); };
  for (int i = 0; i < static_cast<int>(ranks.size()); ++i) {
    const auto r = static_cast<std::size_t>(ranks[static_cast<std::size_t>(i)]);
    const auto host = static_cast<std::size_t>(host_key_[r]);
    lower(by_host[host], i);
    if (list_key_[r] >= 0)
      lower(by_list[static_cast<std::size_t>(list_key_[r])], i);
    else
      lower(keyless_by_host[host], i);
  }
  std::vector<int> lowest(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const auto r = static_cast<std::size_t>(ranks[i]);
    const auto host = static_cast<std::size_t>(host_key_[r]);
    lowest[i] = list_key_[r] >= 0
                    ? std::min(by_list[static_cast<std::size_t>(list_key_[r])],
                               keyless_by_host[host])
                    : by_host[host];
  }
  return lowest;
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
