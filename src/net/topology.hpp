// Fabric topology: hosts, switches, and directed links with per-link
// bandwidth and latency.
//
// Two shapes are supported:
//   * flat    — every host hangs off one crossbar switch (the shape the
//               pre-fabric cost model implicitly assumed);
//   * fattree — a k-ary fat-tree: k pods of k/2 edge + k/2 aggregation
//               switches and (k/2)^2 core switches, k^3/4 host capacity.
//
// Links are *directed* so host ingress and egress are separate contended
// resources — exactly what an SR-IOV HCA multiplexes across container VFs.
// Routing is deterministic and destination-based (the up-path ECMP choice is
// a pure function of the destination host id, mirroring static InfiniBand
// forwarding tables), so a host pair always uses the same links and reruns
// are bit-identical.
#pragma once

#include <vector>

#include "common/units.hpp"

namespace cbmpi::net {

using LinkId = int;

/// One directed cable between two nodes (host or switch).
struct Link {
  int from = -1;  ///< node id
  int to = -1;    ///< node id
  BytesPerMicro bw = 0.0;
  Micros latency = 0.0;
};

class Topology {
 public:
  /// All hosts behind one crossbar switch. Per-link latency is half the
  /// host-to-host wire latency, so the 2-link path reproduces the flat cost
  /// model's wire + one-switch latency exactly.
  static Topology flat(int hosts, BytesPerMicro link_bw, Micros link_latency,
                       Micros switch_latency);

  /// k-ary fat-tree (k even, hosts <= k^3/4). Hosts fill edge switches in
  /// order: host h sits in pod h / (k^2/4) under edge (h % (k^2/4)) / (k/2).
  static Topology fattree(int arity, int hosts, BytesPerMicro link_bw,
                          Micros link_latency, Micros switch_latency);

  /// Smallest even arity whose fat-tree holds `hosts` hosts.
  static int min_arity_for(int hosts);

  int num_hosts() const { return num_hosts_; }
  int num_switches() const { return num_switches_; }
  int num_links() const { return static_cast<int>(links_.size()); }
  int arity() const { return arity_; }  ///< 0 for the flat shape
  const Link& link(LinkId id) const { return links_[static_cast<std::size_t>(id)]; }

  /// Ordered directed link ids from src host to dst host; empty when
  /// src == dst. Deterministic: depends only on (src, dst). Memoized: every
  /// route is computed once, when the topology is built.
  const std::vector<LinkId>& route(int src_host, int dst_host) const;

  /// Number of links on the route (0 for src == dst).
  int hops(int src_host, int dst_host) const;

  /// End-to-end latency: per-link latencies plus one switch traversal per
  /// intermediate node.
  Micros path_latency(int src_host, int dst_host) const;

  /// Narrowest link bandwidth along the route.
  BytesPerMicro min_path_bw(int src_host, int dst_host) const;

  /// Empty placeholder; every real topology comes from flat() / fattree().
  Topology() = default;

 private:
  struct Route {
    std::vector<LinkId> links;
    Micros latency = 0.0;
    BytesPerMicro min_bw = 0.0;  ///< 0 for src == dst
  };

  const Route& entry(int src_host, int dst_host) const;
  std::vector<int> route_nodes(int src_host, int dst_host) const;  // src != dst
  void build_routes(Micros switch_latency);

  int num_hosts_ = 0;
  int num_switches_ = 0;
  int arity_ = 0;  // 0 = flat
  std::vector<Link> links_;
  // routes_[src * num_hosts_ + dst], filled by build_routes().
  std::vector<Route> routes_;

  // Node-id layout (fat-tree): hosts [0, H), then per-pod edge switches,
  // per-pod aggregation switches, then core switches.
  int edge0_ = 0, agg0_ = 0, core0_ = 0;
};

}  // namespace cbmpi::net
