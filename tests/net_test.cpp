// Fabric model tests: fat-tree structure and deterministic routing, the
// max-min link-contention engine's fair-share invariants, SR-IOV VF
// contention through the full runtime, and the bit-identical-rerun claim for
// congested jobs (DESIGN.md §14).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mpi/runtime.hpp"
#include "mpi/window.hpp"
#include "net/contention.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sched/cluster_state.hpp"
#include "sched/placer.hpp"
#include "topo/hardware.hpp"

namespace cbmpi {
namespace {

using container::DeploymentSpec;
using mpi::JobConfig;
using mpi::run_job;

// --- topology ---------------------------------------------------------------

TEST(NetTopology, FatTreeStructure) {
  // k = 4: 4 pods x (2 edge + 2 agg) + 4 cores = 20 switches, 16 hosts max.
  const auto topo = net::Topology::fattree(4, 16, 1.0, 0.5, 0.1);
  EXPECT_EQ(topo.num_hosts(), 16);
  EXPECT_EQ(topo.num_switches(), 20);
  // Duplex links: 16 host-edge + 16 edge-agg + 16 agg-core pairs.
  EXPECT_EQ(topo.num_links(), 96);
  EXPECT_EQ(topo.arity(), 4);

  EXPECT_EQ(net::Topology::min_arity_for(16), 4);
  EXPECT_EQ(net::Topology::min_arity_for(17), 6);
  EXPECT_EQ(net::Topology::min_arity_for(2), 2);
}

TEST(NetTopology, HopClassesAndLatency) {
  const Micros link_lat = 0.425, switch_lat = 0.1;
  const auto topo = net::Topology::fattree(4, 16, 1.0, link_lat, switch_lat);
  EXPECT_EQ(topo.hops(0, 0), 0);
  EXPECT_EQ(topo.hops(0, 1), 2);  // same edge switch
  EXPECT_EQ(topo.hops(0, 2), 4);  // same pod, different edge
  EXPECT_EQ(topo.hops(0, 4), 6);  // different pod
  // path latency = links * link_lat + (links - 1) * switch_lat.
  EXPECT_DOUBLE_EQ(topo.path_latency(0, 1), 2 * link_lat + 1 * switch_lat);
  EXPECT_DOUBLE_EQ(topo.path_latency(0, 2), 4 * link_lat + 3 * switch_lat);
  EXPECT_DOUBLE_EQ(topo.path_latency(0, 4), 6 * link_lat + 5 * switch_lat);
  // Longer routes can only be slower.
  EXPECT_GT(topo.path_latency(0, 4), topo.path_latency(0, 2));
  EXPECT_GT(topo.path_latency(0, 2), topo.path_latency(0, 1));
}

TEST(NetTopology, RoutingIsDeterministic) {
  const auto a = net::Topology::fattree(4, 16, 1.0, 0.5, 0.1);
  const auto b = net::Topology::fattree(4, 16, 1.0, 0.5, 0.1);
  for (int src = 0; src < 16; ++src)
    for (int dst = 0; dst < 16; ++dst) {
      const auto route1 = a.route(src, dst);
      EXPECT_EQ(route1, a.route(src, dst)) << src << "->" << dst;
      EXPECT_EQ(route1, b.route(src, dst)) << src << "->" << dst;
      if (src == dst) {
        EXPECT_TRUE(route1.empty());
      } else {
        EXPECT_EQ(static_cast<int>(route1.size()), a.hops(src, dst));
        // First link leaves the source host, last link enters the target.
        EXPECT_EQ(a.link(route1.front()).from, src);
        EXPECT_EQ(a.link(route1.back()).to, dst);
      }
    }
}

// --- contention engine ------------------------------------------------------

TEST(NetContention, MaxMinThreeFlowCrossTraffic) {
  // A on L0 (cap 10), B on L0+L1, C on L1 (cap 20). Max-min: A = B = 5
  // (L0 saturates), C = 15. Bytes chosen so all three finish at t = 10.
  std::vector<net::Flow> flows;
  flows.push_back({{0, 0}, {0}, 50.0, 0.0, 10.0});
  flows.push_back({{1, 0}, {0, 1}, 50.0, 0.0, 10.0});
  flows.push_back({{2, 0}, {1}, 150.0, 0.0, 20.0});
  const auto result = net::settle(std::move(flows), {10.0, 20.0});

  ASSERT_EQ(result.flows.size(), 3u);
  EXPECT_NEAR(result.flows[0].finish, 10.0, 1e-9);
  EXPECT_NEAR(result.flows[1].finish, 10.0, 1e-9);
  EXPECT_NEAR(result.flows[2].finish, 10.0, 1e-9);
  // factor = elapsed / (bytes / rate_cap).
  EXPECT_NEAR(result.flows[0].factor, 2.0, 1e-9);
  EXPECT_NEAR(result.flows[1].factor, 2.0, 1e-9);
  EXPECT_NEAR(result.flows[2].factor, 4.0 / 3.0, 1e-9);
  // Fair-share invariant: link shares sum to at most capacity.
  EXPECT_LE(result.links[0].peak, 1.0 + 1e-9);
  EXPECT_LE(result.links[1].peak, 1.0 + 1e-9);
  EXPECT_NEAR(result.links[0].peak, 1.0, 1e-9);
  EXPECT_NEAR(result.links[1].peak, 1.0, 1e-9);
}

TEST(NetContention, LoneFlowFactorIsExactlyOne) {
  // Rate-cap-limited, link half idle: the apply pass must reproduce the
  // uncontended cost bit-identically, so the factor is exactly 1.0.
  std::vector<net::Flow> flows;
  flows.push_back({{0, 0}, {0}, 100.0, 0.0, 5.0});
  const auto result = net::settle(std::move(flows), {10.0});
  ASSERT_EQ(result.flows.size(), 1u);
  EXPECT_EQ(result.flows[0].factor, 1.0);
  EXPECT_NEAR(result.flows[0].finish, 20.0, 1e-9);
  EXPECT_NEAR(result.links[0].peak, 0.5, 1e-9);
}

TEST(NetContention, SharesNeverExceedCapacityUnderChurn) {
  // Staggered arrivals over shared links; every instantaneous allocation the
  // engine reports must respect capacity.
  std::vector<net::Flow> flows;
  for (int i = 0; i < 12; ++i) {
    const int seq = i;
    flows.push_back({{i % 4, static_cast<std::uint64_t>(seq)},
                     {i % 3, 3 + (i % 2)},
                     200.0 + 37.0 * i,
                     1.5 * i,
                     6.0});
  }
  const auto result = net::settle(std::move(flows), {10.0, 10.0, 10.0, 15.0, 15.0});
  ASSERT_EQ(result.flows.size(), 12u);
  for (const auto& link : result.links) {
    EXPECT_LE(link.peak, 1.0 + 1e-9);
    EXPECT_LE(link.mean, link.peak + 1e-9);
  }
  for (const auto& flow : result.flows) EXPECT_GE(flow.factor, 1.0);
}

TEST(NetContention, DuplicateFlowKeyIsRejected) {
  // Outcomes are sorted by key; two flows under one key would make their
  // order (and so every consumer's view) depend on the engine's internals.
  std::vector<net::Flow> flows;
  flows.push_back({{3, 7}, {0}, 100.0, 0.0, 5.0});
  flows.push_back({{3, 7}, {0}, 100.0, 2.0, 5.0});
  EXPECT_THROW(net::settle(std::move(flows), {10.0}), Error);
}

// --- differential: net::settle vs the per-flow reference engine -------------

namespace reference {

// The per-flow progressive-filling engine that net::settle's path-class fill
// replaced, kept verbatim as the oracle: settle must match it bit for bit.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;

struct ActiveFlow {
  std::size_t index = 0;  ///< into the sorted flow vector
  double remaining = 0.0;
  double rate = 0.0;
};

void fill_rates(std::vector<ActiveFlow>& active, const std::vector<net::Flow>& flows,
                const std::vector<double>& caps, std::vector<double>& link_alloc,
                std::vector<int>& link_flows, std::vector<int>& touched) {
  touched.clear();
  for (auto& a : active) {
    a.rate = 0.0;
    for (const int l : flows[a.index].path) {
      const auto lu = static_cast<std::size_t>(l);
      if (link_flows[lu] == 0) touched.push_back(l);
      ++link_flows[lu];
      link_alloc[lu] = 0.0;
    }
  }

  std::vector<std::uint8_t> frozen(active.size(), 0);
  std::size_t unfrozen = active.size();
  while (unfrozen > 0) {
    double delta = kInf;
    for (std::size_t j = 0; j < active.size(); ++j)
      if (!frozen[j])
        delta = std::min(delta, flows[active[j].index].rate_cap - active[j].rate);
    for (const int l : touched) {
      const auto lu = static_cast<std::size_t>(l);
      if (link_flows[lu] > 0)
        delta = std::min(delta, (caps[lu] - link_alloc[lu]) /
                                    static_cast<double>(link_flows[lu]));
    }
    delta = std::max(delta, 0.0);

    for (std::size_t j = 0; j < active.size(); ++j) {
      if (frozen[j]) continue;
      active[j].rate += delta;
      for (const int l : flows[active[j].index].path)
        link_alloc[static_cast<std::size_t>(l)] += delta;
    }

    for (std::size_t j = 0; j < active.size(); ++j) {
      if (frozen[j]) continue;
      const net::Flow& f = flows[active[j].index];
      bool freeze = active[j].rate >= f.rate_cap * (1.0 - kEps);
      if (!freeze)
        for (const int l : f.path) {
          const auto lu = static_cast<std::size_t>(l);
          if (caps[lu] - link_alloc[lu] <= caps[lu] * kEps) {
            freeze = true;
            break;
          }
        }
      if (freeze) {
        frozen[j] = 1;
        --unfrozen;
        for (const int l : f.path) --link_flows[static_cast<std::size_t>(l)];
      }
    }
  }
  for (const int l : touched) link_flows[static_cast<std::size_t>(l)] = 0;
}

net::SettleResult settle(std::vector<net::Flow> flows,
                         const std::vector<double>& link_caps) {
  net::SettleResult out;
  out.links.assign(link_caps.size(), {});
  if (flows.empty()) return out;

  std::sort(flows.begin(), flows.end(), [](const net::Flow& a, const net::Flow& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.key < b.key;
  });

  out.busy_begin = flows.front().start;
  out.busy_end = flows.front().start;
  out.flows.reserve(flows.size());

  std::vector<ActiveFlow> active;
  std::vector<double> link_alloc(link_caps.size(), 0.0);
  std::vector<int> link_flows(link_caps.size(), 0);
  std::vector<int> touched;
  std::vector<double> mean_accum(link_caps.size(), 0.0);

  auto record_outcome = [&](const net::Flow& f, Micros finish) {
    net::FlowOutcome o;
    o.key = f.key;
    o.finish = finish;
    o.hops = static_cast<int>(f.path.size());
    const double uncontended = f.bytes / f.rate_cap;
    o.factor = uncontended > 0.0 ? (finish - f.start) / uncontended : 1.0;
    if (o.factor <= 1.0 + 1e-9) o.factor = 1.0;
    out.busy_end = std::max(out.busy_end, finish);
    out.flows.push_back(o);
  };

  std::size_t next = 0;
  Micros t = flows.front().start;
  while (next < flows.size() || !active.empty()) {
    bool admitted = false;
    while (next < flows.size() && flows[next].start <= t) {
      const net::Flow& f = flows[next];
      if (f.bytes <= 0.0 || f.path.empty()) {
        record_outcome(f, f.start);
      } else {
        active.push_back({next, f.bytes, 0.0});
        admitted = true;
      }
      ++next;
    }
    if (active.empty()) {
      if (next < flows.size()) t = flows[next].start;
      continue;
    }
    if (admitted)
      fill_rates(active, flows, link_caps, link_alloc, link_flows, touched);

    Micros finish_at = kInf;
    for (const auto& a : active)
      finish_at = std::min(finish_at, t + a.remaining / a.rate);
    const Micros start_at = next < flows.size() ? flows[next].start : kInf;
    const Micros te = std::min(finish_at, start_at);

    for (const int l : touched) {
      const auto lu = static_cast<std::size_t>(l);
      const double util = link_alloc[lu] / link_caps[lu];
      out.links[lu].peak = std::max(out.links[lu].peak, util);
      mean_accum[lu] += util * (te - t);
    }

    bool finished = false;
    for (std::size_t j = 0; j < active.size();) {
      const Micros fin = t + active[j].remaining / active[j].rate;
      if (fin <= te) {
        record_outcome(flows[active[j].index], te);
        active[j] = active.back();
        active.pop_back();
        finished = true;
      } else {
        active[j].remaining -= active[j].rate * (te - t);
        ++j;
      }
    }
    t = te;
    if (finished && !active.empty())
      fill_rates(active, flows, link_caps, link_alloc, link_flows, touched);
  }

  const Micros span = out.busy_end - out.busy_begin;
  if (span > 0.0)
    for (std::size_t l = 0; l < out.links.size(); ++l)
      out.links[l].mean = mean_accum[l] / span;

  std::sort(out.flows.begin(), out.flows.end(),
            [](const net::FlowOutcome& a, const net::FlowOutcome& b) {
              return a.key < b.key;
            });
  return out;
}

}  // namespace reference

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Which shapes one random flow set exercised.
struct FlowSetShape {
  bool shared_path = false;    ///< two flows on one route
  bool mixed_caps = false;     ///< ... with different rate caps
  bool zero_bytes = false;
  bool empty_path = false;
  bool same_start = false;     ///< two flows starting at one instant
  bool repeated_link = false;  ///< a route crossing one link twice
  bool front_insert = false;   ///< a flow admitted with fewer bytes than an
                               ///< active flow of its class has left
  bool left_tie = false;       ///< two flows of one class with equal bytes left
  bool joint_finish = false;   ///< two flows of one class finish at one event
};

bool same_class(const net::Flow& a, const net::Flow& b) {
  return a.path == b.path && a.rate_cap == b.rate_cap;
}

/// No flow drains faster than its rate cap or the narrowest link it crosses.
double max_rate(const net::Flow& f, const std::vector<double>& caps) {
  double rate = f.rate_cap;
  for (const int l : f.path) rate = std::min(rate, caps[static_cast<std::size_t>(l)]);
  return rate;
}

/// Do two flows of one class (both draining) finish at the same event?
bool finish_together(const std::vector<net::Flow>& flows,
                     const net::SettleResult& settled) {
  const auto finish_of = [&](const net::FlowKey& key) {
    return std::lower_bound(settled.flows.begin(), settled.flows.end(), key,
                            [](const net::FlowOutcome& o, const net::FlowKey& k) {
                              return o.key < k;
                            })
        ->finish;
  };
  for (std::size_t i = 0; i < flows.size(); ++i)
    for (std::size_t j = i + 1; j < flows.size(); ++j) {
      const auto& a = flows[i];
      const auto& b = flows[j];
      if (same_class(a, b) && !a.path.empty() && a.bytes > 0.0 && b.bytes > 0.0 &&
          same_bits(finish_of(a.key), finish_of(b.key)))
        return true;
    }
  return false;
}

/// A seeded random flow set over a few links. Routes and caps come from
/// small pools so flows share them; keys are unique and input order is
/// shuffled.
std::vector<net::Flow> random_flow_set(std::uint64_t seed, std::vector<double>& caps,
                                       FlowSetShape& shape) {
  Xoshiro256 rng(seed);
  const std::size_t links = 1 + rng.below(6);
  caps.clear();
  for (std::size_t l = 0; l < links; ++l) {
    const double pool[] = {10.0, 15.0, 7.5, 0.5 + 20.0 * rng.uniform()};
    caps.push_back(pool[rng.below(4)]);
  }
  const auto any_link = [&] { return static_cast<int>(rng.below(links)); };

  std::vector<std::vector<int>> routes;
  const std::size_t num_routes = 1 + rng.below(4);
  for (std::size_t r = 0; r < num_routes; ++r) {
    std::vector<int> route(1 + rng.below(4));
    for (auto& l : route) l = any_link();
    routes.push_back(std::move(route));
  }
  if (rng.below(4) == 0) {
    const int l = any_link();
    routes.push_back({l, any_link(), l});
  }
  if (rng.below(6) == 0) routes.emplace_back();
  const double rate_caps[] = {5.0, 5.0 + 10.0 * rng.uniform(), 1e9};

  std::vector<net::Flow> flows(1 + rng.below(24));
  std::vector<std::uint64_t> seq(4, 0);
  std::vector<std::size_t> route_of(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    auto& f = flows[i];
    const int src = static_cast<int>(rng.below(4));
    f.key = {src, seq[static_cast<std::size_t>(src)]++};
    route_of[i] = rng.below(routes.size());
    f.path = routes[route_of[i]];
    f.rate_cap = rate_caps[rng.below(3)];
    f.bytes = rng.below(8) == 0 ? 0.0 : static_cast<double>(1 + rng.below(400));
    f.start = rng.below(2) == 0 ? 1.5 * static_cast<double>(rng.below(6))
                                : 30.0 * rng.uniform();
  }
  if (rng.below(4) == 0) {
    // A twin: same class, start and bytes, so the two drain in a tie.
    const std::size_t of = rng.below(flows.size());
    net::Flow twin = flows[of];
    const int src = static_cast<int>(rng.below(4));
    twin.key = {src, seq[static_cast<std::size_t>(src)]++};
    flows.push_back(std::move(twin));
    route_of.push_back(route_of[of]);
  }
  for (std::size_t i = flows.size(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    std::swap(flows[i - 1], flows[j]);
    std::swap(route_of[i - 1], route_of[j]);
  }

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& f = flows[i];
    shape.zero_bytes |= f.bytes == 0.0;
    shape.empty_path |= f.path.empty();
    for (std::size_t a = 0; a < f.path.size(); ++a)
      for (std::size_t b = a + 1; b < f.path.size(); ++b)
        shape.repeated_link |= f.path[a] == f.path[b];
    for (std::size_t j = i + 1; j < flows.size(); ++j) {
      shape.same_start |= f.start == flows[j].start;
      if (route_of[i] == route_of[j] && !f.path.empty()) {
        shape.shared_path = true;
        shape.mixed_caps |= f.rate_cap != flows[j].rate_cap;
      }
      const auto& g = flows[j];
      if (!same_class(f, g) || f.path.empty() || f.bytes <= 0.0 || g.bytes <= 0.0)
        continue;
      shape.left_tie |= f.start == g.start && f.bytes == g.bytes;
      // The earlier flow still has more than the later one's bytes left
      // when the later one is admitted, even draining at its fastest (one
      // byte of slack covers float residue in the drain).
      const auto& [early, late] = f.start < g.start ? std::tie(f, g) : std::tie(g, f);
      const double drained_by_then = max_rate(early, caps) * (late.start - early.start);
      shape.front_insert |= early.start < late.start &&
                            late.bytes + 1.0 <= early.bytes - drained_by_then;
    }
  }
  return flows;
}

TEST(NetContention, SettleMatchesPerFlowReferenceBitForBit) {
  constexpr std::uint64_t kSets = 12000;
  std::array<std::uint64_t, 9> covered{};
  std::vector<double> caps;
  for (std::uint64_t seed = 1; seed <= kSets; ++seed) {
    FlowSetShape shape;
    const auto flows = random_flow_set(seed, caps, shape);
    const auto want = reference::settle(flows, caps);
    const auto got = net::settle(flows, caps);

    ASSERT_EQ(got.flows.size(), want.flows.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.flows.size(); ++i) {
      const auto& g = got.flows[i];
      const auto& w = want.flows[i];
      ASSERT_TRUE(g.key == w.key) << "seed " << seed << " flow " << i;
      ASSERT_TRUE(same_bits(g.finish, w.finish))
          << "seed " << seed << " flow " << i << ": " << g.finish << " vs " << w.finish;
      ASSERT_TRUE(same_bits(g.factor, w.factor))
          << "seed " << seed << " flow " << i << ": " << g.factor << " vs " << w.factor;
      ASSERT_EQ(g.hops, w.hops) << "seed " << seed << " flow " << i;
    }
    ASSERT_EQ(got.links.size(), want.links.size()) << "seed " << seed;
    for (std::size_t l = 0; l < want.links.size(); ++l) {
      ASSERT_TRUE(same_bits(got.links[l].peak, want.links[l].peak))
          << "seed " << seed << " link " << l;
      ASSERT_TRUE(same_bits(got.links[l].mean, want.links[l].mean))
          << "seed " << seed << " link " << l;
    }
    ASSERT_TRUE(same_bits(got.busy_begin, want.busy_begin)) << "seed " << seed;
    ASSERT_TRUE(same_bits(got.busy_end, want.busy_end)) << "seed " << seed;

    covered[0] += shape.shared_path;
    covered[1] += shape.mixed_caps;
    covered[2] += shape.zero_bytes;
    covered[3] += shape.empty_path;
    covered[4] += shape.same_start;
    covered[5] += shape.repeated_link;
    covered[6] += shape.front_insert;
    covered[7] += shape.left_tie;
    shape.joint_finish = finish_together(flows, want);
    covered[8] += shape.joint_finish;
  }
  // Every shape the fill could treat differently appears in many sets.
  for (const auto count : covered) EXPECT_GT(count, kSets / 20);
}

// --- fabric + runtime -------------------------------------------------------

JobConfig cross_host_pair(const std::string& fabric) {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(2, 1);
  config.fabric = net::FabricConfig::parse(fabric);
  return config;
}

void send_one(mpi::Process& p, Bytes bytes, int src, int dst) {
  std::vector<std::uint8_t> buf(bytes);
  if (p.rank() == src)
    p.world().send(std::span<const std::uint8_t>(buf), dst);
  else if (p.rank() == dst)
    p.world().recv(std::span<std::uint8_t>(buf), src);
}

TEST(NetFabric, CongestionMapLooksUpFactorsByKey) {
  const net::CongestionMap map({{{0, 1}, 1.5}, {{0, 7}, 2.0}, {{2, 1}, 3.0}});
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.factor({0, 1}), 1.5);
  EXPECT_EQ(map.factor({0, 7}), 2.0);
  EXPECT_EQ(map.factor({2, 1}), 3.0);
  // Missing keys read 1.0: same rank with another seq, the same seq on
  // another rank, and keys before, between and after every entry.
  EXPECT_EQ(map.factor({0, 2}), 1.0);
  EXPECT_EQ(map.factor({1, 1}), 1.0);
  EXPECT_EQ(map.factor({2, 7}), 1.0);
  EXPECT_EQ(map.factor({-1, 0}), 1.0);
  EXPECT_EQ(map.factor({0, 0}), 1.0);
  EXPECT_EQ(map.factor({3, 0}), 1.0);
  EXPECT_EQ(net::CongestionMap().factor({0, 1}), 1.0);
  // Lookup is a binary search, so the entries must come sorted by key.
  EXPECT_THROW(net::CongestionMap({{{0, 7}, 2.0}, {{0, 1}, 1.5}}), Error);
  EXPECT_THROW(net::CongestionMap({{{0, 1}, 2.0}, {{0, 1}, 1.5}}), Error);
}

TEST(NetFabric, CongestionMapHoldsTheSettledFactorsBitForBit) {
  // Three hosts of a fat-tree pod send into host 3 at overlapping times and
  // share its downlink; each then sends one transfer alone, long after.
  const topo::MachineProfile profile;
  const net::Fabric fabric(net::FabricConfig::parse("fattree:4"), profile,
                           std::vector<int>(4, 1));
  std::vector<net::FlowRecord> records;
  std::vector<net::Flow> flows;
  for (int src = 0; src < 3; ++src)
    for (std::uint64_t seq = 0; seq < 7; ++seq) {
      net::FlowRecord r;
      r.key = {src, seq};
      r.src_host = src;
      r.dst_host = 3;
      r.bytes = (seq + 1) * 96_KiB;
      r.start = seq < 6 ? 40.0 * static_cast<double>(seq) + 7.0 * src : 1e5 * (src + 1);
      records.push_back(r);
      net::Flow f;
      f.key = r.key;
      f.path = fabric.topology().route(r.src_host, r.dst_host);
      f.bytes = static_cast<double>(r.bytes);
      f.start = r.start;
      f.rate_cap = fabric.flow_rate_cap(r.src_host, r.dst_host, r.sriov);
      flows.push_back(std::move(f));
    }
  std::vector<double> caps;
  for (int l = 0; l < fabric.topology().num_links(); ++l)
    caps.push_back(fabric.topology().link(l).bw);

  const auto settled = net::settle(flows, caps);
  const auto congestion = fabric.settle(records).congestion;
  std::size_t congested = 0;
  for (const auto& flow : settled.flows) {
    congested += flow.factor > 1.0;
    EXPECT_TRUE(same_bits(congestion.factor(flow.key), flow.factor))
        << "rank " << flow.key.src_rank << " seq " << flow.key.seq;
  }
  EXPECT_GT(congested, 0u);
  EXPECT_LT(congested, settled.flows.size());
  EXPECT_EQ(congestion.size(), congested);
}

TEST(NetFabric, FlatUncontendedMatchesIdealBitIdentically) {
  // One rndv and one eager transfer, no sharing anywhere: the flat fabric's
  // routed latency and rate caps must reproduce the ideal cost model exactly.
  const auto body = [](mpi::Process& p) {
    send_one(p, 512_KiB, 0, 1);  // rendezvous
    send_one(p, 256, 0, 1);      // eager
  };
  const auto ideal = run_job(cross_host_pair("ideal"), body);
  const auto flat = run_job(cross_host_pair("flat"), body);
  EXPECT_EQ(ideal.job_time, flat.job_time);
  ASSERT_EQ(ideal.rank_times.size(), flat.rank_times.size());
  for (std::size_t r = 0; r < ideal.rank_times.size(); ++r)
    EXPECT_EQ(ideal.rank_times[r], flat.rank_times[r]);
  EXPECT_FALSE(ideal.net.enabled);
  ASSERT_TRUE(flat.net.enabled);
  EXPECT_EQ(flat.net.transfers, 2u);
  EXPECT_EQ(flat.net.congested_transfers, 0u);
  EXPECT_EQ(flat.net.max_factor, 1.0);
}

TEST(NetFabric, TwoStreamsHalveTheSharedUplink) {
  // Ranks 0,1 on host 0 and 2,3 on host 1. One 4 MiB stream vs two
  // concurrent ones through the same host uplink: each should get ~half the
  // bandwidth, so the job takes ~2x as long.
  auto config = [] {
    JobConfig c;
    c.deployment = DeploymentSpec::native_hosts(2, 2);
    c.fabric = net::FabricConfig::parse("flat");
    return c;
  };
  const auto single = run_job(config(), [](mpi::Process& p) {
    send_one(p, 4_MiB, 0, 2);
  });
  const auto both = run_job(config(), [](mpi::Process& p) {
    send_one(p, 4_MiB, 0, 2);
    send_one(p, 4_MiB, 1, 3);
  });
  // Sequential pairs would also take 2x; make the two transfers overlap by
  // checking the congestion engine actually saw them contend.
  const auto overlapped = run_job(config(), [](mpi::Process& p) {
    std::vector<std::uint8_t> buf(4_MiB);
    if (p.rank() < 2)
      p.world().send(std::span<const std::uint8_t>(buf), p.rank() + 2);
    else
      p.world().recv(std::span<std::uint8_t>(buf), p.rank() - 2);
  });
  ASSERT_TRUE(overlapped.net.enabled);
  EXPECT_EQ(overlapped.net.transfers, 2u);
  EXPECT_EQ(overlapped.net.congested_transfers, 2u);
  EXPECT_NEAR(overlapped.net.max_factor, 2.0, 0.1);
  const double ratio = overlapped.job_time / single.job_time;
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.6);
  // Aggregate bandwidth is sublinear: two streams are slower than one but
  // (much) faster than running the two transfers back to back with no
  // overlap would be under a per-pair model charged twice.
  EXPECT_GT(both.job_time, single.job_time);
}

TEST(NetFabric, OneSidedPutOnRoutedPathPaysPathLatencyAndRateCap) {
  // A put to a rank in another fat-tree pod, then a flush: the origin waits
  // for the descriptor post, the payload at the route's VF-capped rate and
  // the routed path latency; the contention engine never stretches it.
  constexpr int kHosts = 8;
  constexpr Bytes kSize = 64_KiB;
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(kHosts, 1);
  config.fabric = net::FabricConfig::parse("fattree:4");
  net::FabricConfig fabric_config = config.fabric;
  fabric_config.hosts = kHosts;
  const net::Fabric fabric(fabric_config, config.profile,
                           std::vector<int>(kHosts, 1));
  const int target = kHosts - 1;
  const Micros expected = config.profile.hca_post_overhead +
                          static_cast<double>(kSize) /
                              fabric.flow_rate_cap(0, target, false) +
                          fabric.path_latency(0, target);
  // The routed cost is not the flat model's.
  EXPECT_NE(fabric.path_latency(0, target),
            config.profile.hca_wire_latency + config.profile.hca_switch_latency);

  Micros issued = -1.0;
  Micros flushed = -1.0;
  run_job(config, [&](mpi::Process& p) {
    std::vector<std::uint8_t> memory(kSize);
    mpi::Window<std::uint8_t> window(p.world(), std::span<std::uint8_t>(memory));
    if (p.rank() == 0) {
      auto& clock = p.world().engine().clock();
      issued = clock.now();
      window.put(std::span<const std::uint8_t>(memory), target, 0);
      window.flush(target);
      flushed = clock.now();
    }
    p.world().barrier();
  });
  EXPECT_EQ(flushed, issued + expected);
}

TEST(NetFabric, VfLimitSplitsTheHostHca) {
  // Two containers per host provision two VFs on each HCA; --vf-limit=1
  // means the HCA only schedules one at full weight, so every flow runs at
  // half rate even uncontended.
  auto config = [](int vf_limit) {
    JobConfig c;
    c.deployment = DeploymentSpec::containers(2, 2, 2);
    c.fabric = net::FabricConfig::parse("flat");
    c.fabric.vf_limit = vf_limit;
    return c;
  };
  const auto body = [](mpi::Process& p) { send_one(p, 4_MiB, 0, 2); };
  const auto unlimited = run_job(config(0), body);
  const auto limited = run_job(config(1), body);
  const double ratio = limited.job_time / unlimited.job_time;
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.3);
}

TEST(NetFabric, CongestedFatTreeRerunIsByteIdentical) {
  // 8 ranks over 4 hosts in one fat-tree pod, two phases of four concurrent
  // 2 MiB streams (0<->4, 1<->5 share host0<->host2 links; 2<->6, 3<->7
  // share host1<->host3). Both runs must agree to the last bit.
  auto config = [] {
    JobConfig c;
    c.deployment = DeploymentSpec::native_hosts(4, 2);
    c.fabric = net::FabricConfig::parse("fattree:4");
    return c;
  };
  const auto body = [](mpi::Process& p) {
    std::vector<std::uint8_t> buf(2_MiB);
    const int peer = p.rank() < 4 ? p.rank() + 4 : p.rank() - 4;
    if (p.rank() < 4) {
      p.world().send(std::span<const std::uint8_t>(buf), peer);
      p.world().recv(std::span<std::uint8_t>(buf), peer);
    } else {
      p.world().recv(std::span<std::uint8_t>(buf), peer);
      p.world().send(std::span<const std::uint8_t>(buf), peer);
    }
  };
  const auto first = run_job(config(), body);
  const auto second = run_job(config(), body);
  EXPECT_EQ(first.job_time, second.job_time);
  ASSERT_EQ(first.rank_times.size(), second.rank_times.size());
  for (std::size_t r = 0; r < first.rank_times.size(); ++r)
    EXPECT_EQ(first.rank_times[r], second.rank_times[r]);

  ASSERT_TRUE(first.net.enabled);
  EXPECT_EQ(first.net.model, net::FabricModel::FatTree);
  EXPECT_EQ(first.net.transfers, 8u);
  EXPECT_GT(first.net.congested_transfers, 0u);
  EXPECT_GT(first.net.max_factor, 1.5);
  // Hop histogram partitions the transfers; these 4 hosts share one pod.
  std::uint64_t histogram_total = 0;
  for (const auto count : first.net.hop_histogram) histogram_total += count;
  EXPECT_EQ(histogram_total, first.net.transfers);
  EXPECT_EQ(second.net.congested_transfers, first.net.congested_transfers);
  for (const auto& link : first.net.link_utils) {
    EXPECT_LE(link.peak, 1.0 + 1e-9);
    EXPECT_LE(link.mean, link.peak + 1e-9);
  }
}

TEST(NetFabric, RecordPassIsFlaggedAndIdealRunsOnce) {
  std::mutex mutex;
  std::vector<bool> probes;
  const auto body = [&](mpi::Process& p) {
    if (p.rank() == 0) {
      const std::scoped_lock lock(mutex);
      probes.push_back(p.fabric_probe());
    }
  };
  JobConfig ideal;
  ideal.deployment = DeploymentSpec::native_hosts(1, 2);
  run_job(ideal, body);
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_FALSE(probes[0]);

  probes.clear();
  JobConfig flat = ideal;
  flat.fabric = net::FabricConfig::parse("flat");
  run_job(flat, body);
  // Non-Ideal fabric runs the body twice: record pass first (flagged), then
  // the apply pass whose results stand.
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_TRUE(probes[0]);
  EXPECT_FALSE(probes[1]);
}

// --- TopologyAware placer ---------------------------------------------------

TEST(NetPlacer, TopologyAwareKeepsJobsWithinFewHops) {
  // Four hosts, two edge pairs: {0,1} and {2,3} are 2 hops apart internally,
  // 6 hops across. Free cores are rigged so the emptiest-first order would
  // pair host 0 with host 2 (cross-pair) while hop proximity pairs 0 with 1.
  const topo::HostShape shape;
  const topo::Cluster cluster(4, shape);
  sched::ClusterState state(cluster);
  const int cores = shape.total_cores();
  state.claim(0, cores - 3, 999);
  state.claim(1, cores - 1, 999);
  state.claim(2, cores - 2, 999);
  state.claim(3, cores - 1, 999);

  std::vector<std::vector<int>> hops(4, std::vector<int>(4, 6));
  for (int h = 0; h < 4; ++h) hops[static_cast<std::size_t>(h)][static_cast<std::size_t>(h)] = 0;
  hops[0][1] = hops[1][0] = 2;
  hops[2][3] = hops[3][2] = 2;

  sched::JobSpec job;
  job.id = 1;
  job.ranks = 5;
  job.ranks_per_container = 0;
  job.traffic = mpi::TrafficMatrix(5, std::vector<double>(5, 1.0));

  const auto locality =
      sched::make_placer(sched::PlacementPolicy::LocalityAware, 42)->place(job, state);
  const auto topo_aware =
      sched::make_placer(sched::PlacementPolicy::TopologyAware, 42, &hops)
          ->place(job, state);
  ASSERT_TRUE(locality.has_value());
  ASSERT_TRUE(topo_aware.has_value());

  const auto hop_cost = [&](const sched::Placement& placement) {
    std::vector<int> host_of(5, -1);
    for (const auto& h : placement.hosts)
      for (const int r : h.ranks) host_of[static_cast<std::size_t>(r)] = h.host;
    long cost = 0;
    for (int a = 0; a < 5; ++a)
      for (int b = a + 1; b < 5; ++b)
        cost += hops[static_cast<std::size_t>(host_of[static_cast<std::size_t>(a)])]
                    [static_cast<std::size_t>(host_of[static_cast<std::size_t>(b)])];
    return cost;
  };
  // Uniform traffic: hop-weighted cost is exactly what TopologyAware should
  // be winning on.
  EXPECT_LT(hop_cost(*topo_aware), hop_cost(*locality));
}

TEST(NetPlacer, PolicyTokensRoundTrip) {
  EXPECT_STREQ(sched::to_string(sched::PlacementPolicy::TopologyAware), "topology");
  EXPECT_EQ(sched::parse_policy("topology"), sched::PlacementPolicy::TopologyAware);
  EXPECT_EQ(sched::parse_policy("topology-aware"),
            sched::PlacementPolicy::TopologyAware);
}

}  // namespace
}  // namespace cbmpi
