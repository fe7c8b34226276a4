#include "net/topology.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cbmpi::net {

namespace {
void add_duplex(std::vector<Link>& links, int a, int b, BytesPerMicro bw,
                Micros latency) {
  links.push_back({a, b, bw, latency});
  links.push_back({b, a, bw, latency});
}
}  // namespace

Topology Topology::flat(int hosts, BytesPerMicro link_bw, Micros link_latency,
                        Micros switch_latency) {
  CBMPI_REQUIRE(hosts > 0, "flat topology needs at least one host, got ", hosts);
  CBMPI_REQUIRE(link_bw > 0.0, "link bandwidth must be positive");
  Topology t;
  t.num_hosts_ = hosts;
  t.num_switches_ = 1;
  const int sw = hosts;  // the single crossbar's node id
  for (int h = 0; h < hosts; ++h)
    add_duplex(t.links_, h, sw, link_bw, link_latency);
  t.build_routes(switch_latency);
  return t;
}

int Topology::min_arity_for(int hosts) {
  int k = 2;
  while (k * k * k / 4 < hosts) k += 2;
  return k;
}

Topology Topology::fattree(int arity, int hosts, BytesPerMicro link_bw,
                           Micros link_latency, Micros switch_latency) {
  CBMPI_REQUIRE(arity >= 2 && arity % 2 == 0,
                "fat-tree arity must be even and >= 2, got ", arity);
  CBMPI_REQUIRE(hosts > 0, "fat-tree needs at least one host, got ", hosts);
  const int k = arity;
  const int half = k / 2;
  const int capacity = k * k * k / 4;
  CBMPI_REQUIRE(hosts <= capacity, "fat-tree of arity ", k, " holds at most ",
                capacity, " hosts, got ", hosts);

  Topology t;
  t.num_hosts_ = hosts;
  t.arity_ = k;
  t.edge0_ = hosts;
  t.agg0_ = t.edge0_ + k * half;
  t.core0_ = t.agg0_ + k * half;
  t.num_switches_ = 2 * k * half + half * half;

  // Host <-> edge: host h lives in pod h / (k^2/4) under in-pod edge
  // (h % (k^2/4)) / (k/2).
  for (int h = 0; h < hosts; ++h) {
    const int pod = h / (half * half);
    const int edge = (h % (half * half)) / half;
    add_duplex(t.links_, h, t.edge0_ + pod * half + edge, link_bw, link_latency);
  }
  // Edge <-> aggregation: full bipartite within each pod.
  for (int pod = 0; pod < k; ++pod)
    for (int e = 0; e < half; ++e)
      for (int a = 0; a < half; ++a)
        add_duplex(t.links_, t.edge0_ + pod * half + e, t.agg0_ + pod * half + a,
                   link_bw, link_latency);
  // Aggregation <-> core: agg a of every pod connects to core group a
  // (cores [a*k/2, (a+1)*k/2)).
  for (int pod = 0; pod < k; ++pod)
    for (int a = 0; a < half; ++a)
      for (int c = 0; c < half; ++c)
        add_duplex(t.links_, t.agg0_ + pod * half + a, t.core0_ + a * half + c,
                   link_bw, link_latency);
  t.build_routes(switch_latency);
  return t;
}

std::vector<int> Topology::route_nodes(int src_host, int dst_host) const {
  if (arity_ == 0) {  // flat: host -> crossbar -> host
    return {src_host, num_hosts_, dst_host};
  }

  const int half = arity_ / 2;
  const int src_pod = src_host / (half * half);
  const int dst_pod = dst_host / (half * half);
  const int src_edge = edge0_ + src_pod * half + (src_host % (half * half)) / half;
  const int dst_edge = edge0_ + dst_pod * half + (dst_host % (half * half)) / half;
  if (src_edge == dst_edge) return {src_host, src_edge, dst_host};

  // Destination-based ECMP: the up-path choices are pure functions of the
  // destination host id, so all traffic to one host converges on one
  // deterministic down-path (static forwarding tables).
  const int agg_index = dst_host % half;
  if (src_pod == dst_pod) {
    const int agg = agg0_ + src_pod * half + agg_index;
    return {src_host, src_edge, agg, dst_edge, dst_host};
  }
  const int core = core0_ + agg_index * half + (dst_host / half) % half;
  const int src_agg = agg0_ + src_pod * half + agg_index;
  const int dst_agg = agg0_ + dst_pod * half + agg_index;
  return {src_host, src_edge, src_agg, core, dst_agg, dst_edge, dst_host};
}

void Topology::build_routes(Micros switch_latency) {
  std::vector<std::vector<LinkId>> links_from(
      static_cast<std::size_t>(num_hosts_ + num_switches_));
  for (int id = 0; id < num_links(); ++id)
    links_from[static_cast<std::size_t>(links_[static_cast<std::size_t>(id)].from)]
        .push_back(id);
  const auto link_between = [&](int from, int to) {
    for (const LinkId id : links_from[static_cast<std::size_t>(from)])
      if (links_[static_cast<std::size_t>(id)].to == to) return id;
    CBMPI_REQUIRE(false, "no link between nodes ", from, " and ", to);
    return -1;
  };

  routes_.reserve(static_cast<std::size_t>(num_hosts_) *
                  static_cast<std::size_t>(num_hosts_));
  for (int src = 0; src < num_hosts_; ++src)
    for (int dst = 0; dst < num_hosts_; ++dst) {
      Route& r = routes_.emplace_back();
      if (src == dst) continue;  // empty route, zero latency
      const auto nodes = route_nodes(src, dst);
      for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
        r.links.push_back(link_between(nodes[i], nodes[i + 1]));
      r.min_bw = links_[static_cast<std::size_t>(r.links.front())].bw;
      for (const LinkId id : r.links) {
        const Link& link = links_[static_cast<std::size_t>(id)];
        r.latency += link.latency;
        r.min_bw = std::min(r.min_bw, link.bw);
      }
      r.latency += static_cast<double>(r.links.size() - 1) * switch_latency;
    }
}

const Topology::Route& Topology::entry(int src_host, int dst_host) const {
  CBMPI_REQUIRE(src_host >= 0 && src_host < num_hosts_, "bad src host ", src_host);
  CBMPI_REQUIRE(dst_host >= 0 && dst_host < num_hosts_, "bad dst host ", dst_host);
  return routes_[static_cast<std::size_t>(src_host) *
                     static_cast<std::size_t>(num_hosts_) +
                 static_cast<std::size_t>(dst_host)];
}

const std::vector<LinkId>& Topology::route(int src_host, int dst_host) const {
  return entry(src_host, dst_host).links;
}

int Topology::hops(int src_host, int dst_host) const {
  return static_cast<int>(route(src_host, dst_host).size());
}

Micros Topology::path_latency(int src_host, int dst_host) const {
  return entry(src_host, dst_host).latency;
}

BytesPerMicro Topology::min_path_bw(int src_host, int dst_host) const {
  const Route& r = entry(src_host, dst_host);
  CBMPI_REQUIRE(!r.links.empty(), "no fabric path from host to itself");
  return r.min_bw;
}

}  // namespace cbmpi::net
