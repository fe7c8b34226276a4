#include "net/fabric.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cbmpi::net {

const char* to_string(FabricModel model) {
  switch (model) {
    case FabricModel::Ideal: return "ideal";
    case FabricModel::Flat: return "flat";
    case FabricModel::FatTree: return "fattree";
  }
  return "?";
}

FabricConfig FabricConfig::parse(const std::string& spec) {
  FabricConfig config;
  if (spec == "ideal") {
    config.model = FabricModel::Ideal;
    return config;
  }
  if (spec == "flat") {
    config.model = FabricModel::Flat;
    return config;
  }
  if (spec == "fattree" || spec.rfind("fattree:", 0) == 0) {
    config.model = FabricModel::FatTree;
    if (spec.size() > 8) {
      const std::string arg = spec.substr(8);
      std::size_t used = 0;
      int k = 0;
      try {
        k = std::stoi(arg, &used);
      } catch (...) {
        used = 0;
      }
      CBMPI_REQUIRE(used == arg.size() && k >= 2 && k % 2 == 0,
                    "bad fat-tree arity '", arg,
                    "' in --fabric (need an even integer >= 2)");
      config.arity = k;
    }
    return config;
  }
  CBMPI_REQUIRE(false, "unknown fabric spec '", spec,
                "' (expected ideal, flat, or fattree:<k>)");
  return config;
}

Fabric::Fabric(const FabricConfig& config, const topo::MachineProfile& profile,
               std::vector<int> vfs_per_host)
    : config_(config),
      sriov_derate_(profile.sriov_bw_derate),
      vfs_per_host_(std::move(vfs_per_host)) {
  CBMPI_REQUIRE(config_.enabled(), "Fabric requires a non-Ideal model");
  const int hosts = config_.hosts > 0
                        ? config_.hosts
                        : static_cast<int>(vfs_per_host_.size());
  CBMPI_REQUIRE(hosts > 0, "fabric needs at least one host");
  CBMPI_REQUIRE(static_cast<int>(vfs_per_host_.size()) <= hosts,
                "vfs_per_host covers ", vfs_per_host_.size(),
                " hosts but the fabric only has ", hosts);
  vfs_per_host_.resize(static_cast<std::size_t>(hosts), 0);
  CBMPI_REQUIRE(config_.link_bw_gbps >= 0.0, "--link-bw must be >= 0");
  CBMPI_REQUIRE(config_.vf_limit >= 0, "--vf-limit must be >= 0");

  const BytesPerMicro link_bw = config_.link_bw_gbps > 0.0
                                    ? gb_per_s(config_.link_bw_gbps)
                                    : profile.hca_link_bw;
  // Half the wire latency per link: a 2-link path through one switch then
  // costs exactly hca_wire_latency + hca_switch_latency, matching the ideal
  // model bit-for-bit (0.5x is an exact float operation).
  const Micros link_latency = profile.hca_wire_latency * 0.5;
  topology_ = config_.model == FabricModel::Flat
                  ? Topology::flat(hosts, link_bw, link_latency,
                                   profile.hca_switch_latency)
                  : Topology::fattree(config_.arity, hosts, link_bw, link_latency,
                                      profile.hca_switch_latency);

  link_caps_.reserve(static_cast<std::size_t>(topology_.num_links()));
  for (int l = 0; l < topology_.num_links(); ++l)
    link_caps_.push_back(topology_.link(l).bw);
}

CongestionMap::CongestionMap(std::vector<std::pair<FlowKey, double>> factors)
    : factors_(std::move(factors)) {
  const auto unsorted = std::adjacent_find(
      factors_.begin(), factors_.end(),
      [](const auto& a, const auto& b) { return !(a.first < b.first); });
  CBMPI_REQUIRE(unsorted == factors_.end(),
                "congestion factors must be sorted by strictly increasing key");
}

double Fabric::vf_share(int host) const {
  if (config_.vf_limit <= 0) return 1.0;
  CBMPI_REQUIRE(host >= 0 && host < topology_.num_hosts(), "bad host ", host);
  const int provisioned = vfs_per_host_[static_cast<std::size_t>(host)];
  if (provisioned <= config_.vf_limit) return 1.0;
  return static_cast<double>(config_.vf_limit) / static_cast<double>(provisioned);
}

BytesPerMicro Fabric::flow_rate_cap(int src_host, int dst_host, bool sriov) const {
  BytesPerMicro cap = topology_.min_path_bw(src_host, dst_host);
  cap *= std::min(vf_share(src_host), vf_share(dst_host));
  if (sriov) cap *= sriov_derate_;
  return cap;
}

FabricSettle Fabric::settle(std::vector<FlowRecord> records) const {
  std::vector<Flow> flows;
  flows.reserve(records.size());
  for (const auto& r : records) {
    Flow f;
    f.key = r.key;
    f.path = topology_.route(r.src_host, r.dst_host);
    f.bytes = static_cast<double>(r.bytes);
    f.start = r.start;
    f.rate_cap = flow_rate_cap(r.src_host, r.dst_host, r.sriov);
    flows.push_back(std::move(f));
  }
  const SettleResult settled = net::settle(std::move(flows), link_caps_);

  FabricSettle out;
  out.report.enabled = true;
  out.report.model = config_.model;
  out.report.arity = topology_.arity();
  out.report.hosts = topology_.num_hosts();
  out.report.switches = topology_.num_switches();
  out.report.links = topology_.num_links();
  out.report.transfers = settled.flows.size();

  // settled.flows is sorted by key, so the congested ones are too.
  std::vector<std::pair<FlowKey, double>> factors;
  for (const auto& flow : settled.flows) {
    if (flow.factor > 1.0) {
      ++out.report.congested_transfers;
      out.report.max_factor = std::max(out.report.max_factor, flow.factor);
      factors.emplace_back(flow.key, flow.factor);
    }
    const auto hops = static_cast<std::size_t>(flow.hops);
    if (out.report.hop_histogram.size() <= hops)
      out.report.hop_histogram.resize(hops + 1, 0);
    ++out.report.hop_histogram[hops];
  }
  out.congestion = CongestionMap(std::move(factors));

  double mean_sum = 0.0;
  for (int l = 0; l < static_cast<int>(settled.links.size()); ++l) {
    const auto& stats = settled.links[static_cast<std::size_t>(l)];
    if (stats.peak <= 0.0) continue;
    out.report.link_utils.push_back({l, stats.peak, stats.mean});
    out.report.max_peak_util = std::max(out.report.max_peak_util, stats.peak);
    mean_sum += stats.mean;
  }
  if (!out.report.link_utils.empty())
    out.report.mean_util =
        mean_sum / static_cast<double>(out.report.link_utils.size());
  return out;
}

}  // namespace cbmpi::net
