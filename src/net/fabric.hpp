// net::Fabric — the InfiniBand fabric model the HCA channel routes through.
//
// Combines a Topology (flat crossbar or k-ary fat-tree), deterministic
// destination-based routing, per-host SR-IOV VF caps, and the max-min
// link-contention engine. The runtime drives it in two deterministic passes:
//
//   1. record — the job runs on hop-latency + static VF caps (pure functions
//      of virtual time) while each rank appends every inter-host HCA payload
//      it carries to its own FlowRecord buffer; the runtime concatenates the
//      buffers once every rank has finished;
//   2. settle + apply — the flow set is canonically sorted by (start, key)
//      and settled by the contention engine into per-flow slowdown factors
//      (a CongestionMap) and a NetReport; the job re-runs with each
//      transfer's bandwidth term stretched by its factor.
//
// Both passes are pure functions of (config, seed), so congested runs stay
// bit-identical. FabricModel::Ideal bypasses all of this and reproduces the
// pre-fabric flat cost model exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/contention.hpp"
#include "net/topology.hpp"
#include "topo/calibration.hpp"

namespace cbmpi::net {

enum class FabricModel {
  Ideal,    ///< flat per-pair cost model, no contention (pre-fabric behaviour)
  Flat,     ///< one crossbar switch; host up/downlinks contend, VF caps apply
  FatTree,  ///< k-ary fat-tree; hop-sensitive latency + full link contention
};

const char* to_string(FabricModel model);

struct FabricConfig {
  FabricModel model = FabricModel::Ideal;
  int arity = 4;            ///< fat-tree k (even); ignored by Ideal/Flat
  double link_bw_gbps = 0;  ///< per-link bandwidth; 0 = profile hca_link_bw
  int vf_limit = 0;         ///< VFs one host HCA schedules at full weight; 0 = unlimited
  int hosts = 0;            ///< fabric size; 0 = derived from the job's cluster

  bool enabled() const { return model != FabricModel::Ideal; }

  /// Parses "ideal" | "flat" | "fattree:<k>" (bare "fattree" keeps the
  /// default arity). Throws on anything else.
  static FabricConfig parse(const std::string& spec);
};

/// Routing context of one transfer, handed to HcaChannel cost queries when a
/// fabric is attached. Hosts are cluster-wide (physical) ids.
struct TransferCtx {
  int src_host = -1;
  int dst_host = -1;
  FlowKey key;
};

/// One recorded inter-host payload (record pass).
struct FlowRecord {
  FlowKey key;
  int src_host = -1;
  int dst_host = -1;
  Bytes bytes = 0;
  Micros start = 0.0;  ///< when injection begins (post overhead excluded)
  bool sriov = false;
};

/// Immutable per-flow slowdown factors from the settle step, as one vector
/// sorted by key. Unknown keys (e.g. transfers that only exist in the apply
/// pass) default to 1.0.
class CongestionMap {
 public:
  CongestionMap() = default;
  /// `factors` must be sorted by strictly increasing key. Throws otherwise.
  explicit CongestionMap(std::vector<std::pair<FlowKey, double>> factors);

  double factor(const FlowKey& key) const {
    const auto it = std::lower_bound(
        factors_.begin(), factors_.end(), key,
        [](const std::pair<FlowKey, double>& entry, const FlowKey& k) {
          return entry.first < k;
        });
    return it == factors_.end() || !(it->first == key) ? 1.0 : it->second;
  }
  std::size_t size() const { return factors_.size(); }

 private:
  std::vector<std::pair<FlowKey, double>> factors_;
};

/// Utilization of one link that carried traffic (report section).
struct LinkUtil {
  int link = -1;
  double peak = 0.0;
  double mean = 0.0;
};

/// Run-report v3 "net" section payload.
struct NetReport {
  bool enabled = false;
  FabricModel model = FabricModel::Ideal;
  int arity = 0;
  int hosts = 0;
  int switches = 0;
  int links = 0;
  std::uint64_t transfers = 0;            ///< recorded inter-host payloads
  std::uint64_t congested_transfers = 0;  ///< factor > 1
  double max_factor = 1.0;
  double max_peak_util = 0.0;
  double mean_util = 0.0;                     ///< over links that carried traffic
  std::vector<LinkUtil> link_utils;           ///< links with traffic, by id
  std::vector<std::uint64_t> hop_histogram;   ///< index = hop count
};

struct FabricSettle {
  CongestionMap congestion;
  NetReport report;
};

class Fabric {
 public:
  /// `vfs_per_host[h]` = container VFs provisioned on physical host h (>= 1
  /// for any host that runs ranks). Link bandwidth/latency defaults derive
  /// from the machine profile so an uncontended flat fabric reproduces the
  /// ideal model's inter-host numbers bit-identically.
  Fabric(const FabricConfig& config, const topo::MachineProfile& profile,
         std::vector<int> vfs_per_host);

  const Topology& topology() const { return topology_; }
  const FabricConfig& config() const { return config_; }

  int hops(int src_host, int dst_host) const {
    return topology_.hops(src_host, dst_host);
  }
  Micros path_latency(int src_host, int dst_host) const {
    return topology_.path_latency(src_host, dst_host);
  }

  /// SR-IOV VF weight of one host: 1.0 while the HCA schedules every
  /// provisioned VF at full weight, vf_limit / provisioned once the host
  /// over-commits its VF budget.
  double vf_share(int host) const;

  /// Hard rate cap of one flow: narrowest link on the route, scaled by both
  /// endpoints' VF shares and the SR-IOV derate for VM endpoints. The
  /// contention engine may grant less when links are shared.
  BytesPerMicro flow_rate_cap(int src_host, int dst_host, bool sriov) const;

  /// Settles one record pass: sorts the flows canonically, runs the
  /// contention engine, and folds the outcome into a CongestionMap plus the
  /// report section. Pure function of `flows`.
  FabricSettle settle(std::vector<FlowRecord> flows) const;

 private:
  FabricConfig config_;
  double sriov_derate_ = 1.0;
  Topology topology_;
  std::vector<int> vfs_per_host_;
  std::vector<double> link_caps_;
};

}  // namespace cbmpi::net
