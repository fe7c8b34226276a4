// Unit tests for the channel cost models and the channel selector — these pin
// down the qualitative shapes the paper's figures depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "container/engine.hpp"
#include "fabric/cma_channel.hpp"
#include "fabric/hca_channel.hpp"
#include "fabric/selector.hpp"
#include "fabric/shm_channel.hpp"
#include "net/fabric.hpp"
#include "osl/machine.hpp"

namespace cbmpi::fabric {
namespace {

const topo::MachineProfile kProfile = topo::MachineProfile::chameleon_fdr();

double eager_half_latency(const ShmChannel& shm, Bytes size) {
  const auto c = shm.eager_costs(size, true);
  return c.sender + c.delivery + c.receiver;
}

TEST(ShmChannel, SmallMessageLatencyIsSubMicrosecond) {
  const ShmChannel shm(kProfile, TuningParams{});
  EXPECT_LT(eager_half_latency(shm, 1), 0.8);
  EXPECT_GT(eager_half_latency(shm, 1), 0.05);
}

TEST(ShmChannel, CostsMonotoneInSize) {
  const ShmChannel shm(kProfile, TuningParams{});
  double prev = 0.0;
  for (Bytes size : {1ull, 64ull, 1024ull, 4096ull, 8192ull}) {
    const double cost = eager_half_latency(shm, size);
    EXPECT_GE(cost, prev);
    prev = cost;
  }
}

TEST(ShmChannel, InterSocketSlower) {
  const ShmChannel shm(kProfile, TuningParams{});
  EXPECT_GT(shm.eager_costs(4096, false).sender, shm.eager_costs(4096, true).sender);
  EXPECT_GT(shm.eager_costs(1, false).delivery, shm.eager_costs(1, true).delivery);
}

TEST(ShmChannel, SmallerQueueMeansMoreStall) {
  auto small_queue = TuningParams{};
  small_queue.smpi_length_queue = 16_KiB;
  auto big_queue = TuningParams{};
  big_queue.smpi_length_queue = 128_KiB;
  const ShmChannel small(kProfile, small_queue);
  const ShmChannel big(kProfile, big_queue);
  EXPECT_GT(small.eager_costs(64, true).sender, big.eager_costs(64, true).sender);
}

TEST(ShmChannel, OversizedQueuePaysCacheDerate) {
  auto huge_queue = TuningParams{};
  huge_queue.smpi_length_queue = 4_MiB;
  const ShmChannel huge(kProfile, huge_queue);
  const ShmChannel normal(kProfile, TuningParams{});
  EXPECT_GT(huge.eager_costs(4096, true).sender,
            normal.eager_costs(4096, true).sender);
}

TEST(ShmChannel, QueueCellsFollowTuning) {
  const ShmChannel shm(kProfile, TuningParams{});
  EXPECT_DOUBLE_EQ(shm.queue_cells(), 16.0);  // 128K / 8K
}

TEST(ShmChannel, RndvTimesRespectMatchOrdering) {
  const ShmChannel shm(kProfile, TuningParams{});
  const auto early_match = shm.rndv_times(64_KiB, true, 10.0, 5.0);
  const auto late_match = shm.rndv_times(64_KiB, true, 10.0, 50.0);
  EXPECT_GT(late_match.receiver_done, early_match.receiver_done);
  EXPECT_GT(early_match.sender_done, early_match.receiver_done);
}

TEST(ShmChannel, CheckPeersRefusesAcrossIpcNamespaces) {
  osl::Machine machine(topo::ClusterBuilder().hosts(1).build());
  auto& host = machine.host_os(0);
  osl::NamespaceSet other = host.root_namespaces();
  other.set(osl::NamespaceType::Ipc, host.make_namespace(osl::NamespaceType::Ipc));
  osl::SimProcess a(host, host.root_namespaces(), topo::CoreId{0, 0});
  osl::SimProcess b(host, other, topo::CoreId{0, 1});
  osl::SimProcess c(host, host.root_namespaces(), topo::CoreId{0, 2});
  const ShmChannel shm(kProfile, TuningParams{});
  EXPECT_THROW(shm.check_peers(a, b), Error);
  EXPECT_NO_THROW(shm.check_peers(a, c));
}

TEST(ShmChannel, CheckPeersRefusesAcrossHosts) {
  osl::Machine machine(topo::ClusterBuilder().hosts(2).build());
  auto& host0 = machine.host_os(0);
  auto& host1 = machine.host_os(1);
  osl::SimProcess a(host0, host0.root_namespaces(), topo::CoreId{0, 0});
  osl::SimProcess b(host1, host1.root_namespaces(), topo::CoreId{0, 0});
  const ShmChannel shm(kProfile, TuningParams{});
  EXPECT_THROW(shm.check_peers(a, b), Error);
}

TEST(CmaChannel, LosesToShmBelow8K_WinsAbove) {
  const ShmChannel shm(kProfile, TuningParams{});
  const CmaChannel cma(kProfile);
  // Below the paper's 8 K optimum the double copy is cheaper than a syscall.
  for (Bytes size : {256ull, 1024ull, 4096ull}) {
    EXPECT_LT(eager_half_latency(shm, size), cma.transfer_cost(size, true))
        << "size " << size;
  }
  // Above it, the single copy wins (this is why SMP_EAGER_SIZE = 8 K).
  for (Bytes size : {16ull * 1024, 64ull * 1024, 1024ull * 1024}) {
    const auto shm_rndv = shm.rndv_times(size, true, 0.0, 0.0);
    const auto cma_rndv = cma.rndv_times(size, true, 0.0, 0.0);
    EXPECT_GT(shm_rndv.receiver_done, cma_rndv.receiver_done) << "size " << size;
  }
}

TEST(CmaChannel, SyscallOverheadDominatesSmall) {
  const CmaChannel cma(kProfile);
  EXPECT_GT(cma.transfer_cost(1, true), 0.3);
  EXPECT_NEAR(cma.transfer_cost(1, true), cma.transfer_cost(64, true), 0.1);
}

TEST(HcaChannel, LoopbackWorseThanShm) {
  const ShmChannel shm(kProfile, TuningParams{});
  const HcaChannel hca(kProfile, TuningParams{});
  for (Bytes size : {1ull, 1024ull, 4096ull}) {
    const auto h = hca.eager_costs(size, true);
    EXPECT_GT(h.sender + h.delivery + h.receiver, eager_half_latency(shm, size))
        << "size " << size;
  }
}

TEST(HcaChannel, PaperLatencyCalibration) {
  // Paper Sec. V-B: 1 KiB intra-socket latency — default (HCA loopback)
  // ~2.26 us vs optimized (SHM) ~0.47 us vs native ~0.44 us. Check our
  // channel models sit in those neighbourhoods (±40%).
  const ShmChannel shm(kProfile, TuningParams{});
  const HcaChannel hca(kProfile, TuningParams{});
  const auto h = hca.eager_costs(1024, true);
  const double hca_latency = h.sender + h.delivery + h.receiver;
  EXPECT_GT(hca_latency, 1.5);
  EXPECT_LT(hca_latency, 3.2);
  const double shm_latency = eager_half_latency(shm, 1024);
  EXPECT_GT(shm_latency, 0.25);
  EXPECT_LT(shm_latency, 0.75);
}

TEST(HcaChannel, RemotePathPaysWireAndSwitch) {
  const HcaChannel hca(kProfile, TuningParams{});
  EXPECT_GT(hca.control_latency(false), hca.control_latency(true));
  EXPECT_GT(hca.eager_costs(1024, false).delivery,
            hca.eager_costs(1024, true).delivery);
  // But remote bandwidth is higher than loopback (full FDR link vs 2x PCIe).
  EXPECT_LT(hca.eager_costs(1_MiB, false).sender, hca.eager_costs(1_MiB, true).sender);
}

TEST(HcaChannel, RndvBeatsEagerAboveThreshold) {
  // The 17 K eager threshold trade-off: around the threshold the two
  // protocols should be competitive; far above it rendezvous must win.
  const HcaChannel hca(kProfile, TuningParams{});
  const Bytes big = 256_KiB;
  const auto eager = hca.eager_costs(big, false);
  const double eager_total = eager.sender + eager.delivery + eager.receiver;
  const auto rndv = hca.rndv_times(big, false, 0.0, 0.0, 0.0, false, nullptr, RegPlan{});
  EXPECT_LT(rndv.receiver_done, eager_total);
}

/// The HCA rendezvous timeline as it stood before the pin-down model, kept
/// verbatim as the oracle for the model-off path of rndv_times: RTS/CTS
/// trips, the pipelining residue, then the whole payload as one RDMA write.
RndvTimes unpinned_oracle(const topo::MachineProfile& p, const net::Fabric* fabric,
                          const net::CongestionMap* congestion, Bytes size,
                          bool loopback, Micros rts_sent_at, Micros posted_at,
                          Micros busy_until, bool sriov, const net::TransferCtx* ctx) {
  const bool routed = fabric != nullptr && ctx != nullptr && !loopback &&
                      ctx->src_host != ctx->dst_host;
  const auto injection_bw = [&](bool lb) {
    const BytesPerMicro base = lb ? p.hca_loopback_bw : p.hca_link_bw;
    return sriov ? base * p.sriov_bw_derate : base;
  };
  const Micros delivery =
      routed ? fabric->path_latency(ctx->src_host, ctx->dst_host)
             : (loopback ? p.hca_loopback_latency
                         : p.hca_wire_latency + p.hca_switch_latency);
  const BytesPerMicro bw =
      routed ? fabric->flow_rate_cap(ctx->src_host, ctx->dst_host, sriov)
             : injection_bw(loopback);
  const double cf =
      congestion == nullptr || ctx == nullptr ? 1.0 : congestion->factor(ctx->key);

  const Micros trip =
      p.hca_rndv_trip + delivery + (sriov ? p.sriov_latency_overhead : 0.0);
  const Micros rts_arrive = rts_sent_at + trip;
  const Micros handshake_done = std::max(posted_at, rts_arrive) + trip;
  const Micros cts_at_sender = busy_until > handshake_done
                                   ? busy_until + p.hca_rndv_pipeline_residue
                                   : handshake_done;
  RndvTimes times;
  times.inject_begin = cts_at_sender + p.hca_post_overhead;
  times.sender_done = cts_at_sender + p.hca_post_overhead +
                      static_cast<double>(size) / bw * cf;
  const Micros ingress =
      loopback ? static_cast<double>(size) / injection_bw(true) : 0.0;
  times.receiver_busy_until = times.sender_done + ingress;
  times.receiver_done = times.receiver_busy_until + delivery;
  return times;
}

TEST(HcaChannel, ModelOffTimelineMatchesUnpinnedOracleBitForBit) {
  // With the registration model off, rndv_times runs its pinned body with
  // empty pin windows and one chunk. Every double must equal the unpinned
  // formula's bit for bit, whatever rndv_chunk, reg_cost_scale and RegPlan
  // say, on every path: loopback, SR-IOV, routed fat-tree, congested.
  const net::Fabric fabric(net::FabricConfig::parse("fattree:4"), kProfile,
                           std::vector<int>(8, 1));
  // Flows of rank 1 with an odd seq are congested.
  std::vector<std::pair<net::FlowKey, double>> factors;
  for (std::uint64_t seq = 1; seq < 64; seq += 2)
    factors.push_back({{1, seq}, 1.0 + 0.37 * static_cast<double>(seq)});
  const net::CongestionMap congestion(std::move(factors));

  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  Xoshiro256 rng(0x7e57);
  int cases = 0;
  int congested_cases = 0;
  for (const Bytes chunk : {Bytes{4099}, Bytes{100001}, 512_KiB}) {
    for (const double scale : {0.37, 1.0, 3.3}) {
      TuningParams tuning;
      tuning.reg_model = false;
      tuning.rndv_chunk = chunk;
      tuning.reg_cost_scale = scale;
      HcaChannel routed(kProfile, tuning);
      routed.attach_fabric(&fabric, nullptr);
      HcaChannel congested(kProfile, tuning);
      congested.attach_fabric(&fabric, &congestion);
      const HcaChannel flat(kProfile, tuning);
      for (int i = 0; i < 64; ++i) {
        const Bytes sizes[] = {0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7,
                               rng.below(4_MiB)};
        const Bytes size = sizes[rng.below(std::size(sizes))];
        const bool loopback = rng.below(2) == 1;
        const bool sriov = rng.below(2) == 1;
        const Micros rts_sent_at = 1000.0 * rng.uniform();
        const Micros posted_at = 1000.0 * rng.uniform();
        // busy_until lands before or after the handshake completes.
        const Micros busy_until = rng.below(2) == 1
                                      ? 0.5 * rts_sent_at
                                      : rts_sent_at + 5000.0 * rng.uniform();
        net::TransferCtx ctx;
        ctx.src_host = static_cast<int>(rng.below(8));
        ctx.dst_host = static_cast<int>(rng.below(8));
        ctx.key = {static_cast<int>(rng.below(3)), rng.below(64)};
        RegPlan plan;
        plan.sender_hit = rng.below(2) == 1;
        plan.receiver_hit = rng.below(2) == 1;
        plan.sender_extra = 10.0 * rng.uniform();
        plan.receiver_extra = 10.0 * rng.uniform();

        struct Arm {
          const HcaChannel* hca;
          const net::Fabric* fabric;
          const net::CongestionMap* congestion;
          const net::TransferCtx* ctx;
        };
        for (const Arm& arm : {Arm{&flat, nullptr, nullptr, nullptr},
                               Arm{&routed, &fabric, nullptr, &ctx},
                               Arm{&congested, &fabric, &congestion, &ctx}}) {
          const auto got = arm.hca->rndv_times(size, loopback, rts_sent_at, posted_at,
                                               busy_until, sriov, arm.ctx, plan);
          const auto want =
              unpinned_oracle(kProfile, arm.fabric, arm.congestion, size, loopback,
                              rts_sent_at, posted_at, busy_until, sriov, arm.ctx);
          SCOPED_TRACE(testing::Message()
                       << "size " << size << " chunk " << chunk << " scale " << scale
                       << " loopback " << loopback << " sriov " << sriov
                       << " hosts " << ctx.src_host << "->" << ctx.dst_host);
          EXPECT_EQ(bits(got.receiver_done), bits(want.receiver_done));
          EXPECT_EQ(bits(got.sender_done), bits(want.sender_done));
          EXPECT_EQ(bits(got.receiver_busy_until), bits(want.receiver_busy_until));
          EXPECT_EQ(bits(got.inject_begin), bits(want.inject_begin));
          EXPECT_EQ(bits(got.reg_stall), bits(0.0));
          EXPECT_EQ(bits(got.recv_reg_begin), bits(got.recv_reg_end));
          ++cases;
          congested_cases += arm.congestion != nullptr && !loopback &&
                             ctx.src_host != ctx.dst_host &&
                             congestion.factor(ctx.key) > 1.0;
        }
      }
    }
  }
  EXPECT_EQ(cases, 3 * 3 * 64 * 3);
  EXPECT_GT(congested_cases, 0);
}

TEST(OneSided, MessageRateGapMatchesPaperRatio) {
  // Paper: put bandwidth at 4 B — 15.73 MB/s (default/HCA loopback) vs
  // 147.99 MB/s (optimized/SHM): a ~9.4x gap. Check ours is in 6x-13x.
  const ShmChannel shm(kProfile, TuningParams{});
  const HcaChannel hca(kProfile, TuningParams{});
  const double shm_rate = 4.0 / shm.one_sided_costs(4, true).gap;
  const double hca_rate = 4.0 / hca.one_sided_costs(4, true).gap;
  const double ratio = shm_rate / hca_rate;
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 13.0);
}

// ---- selector -------------------------------------------------------------

struct SelectorFixture {
  osl::Machine machine{topo::ClusterBuilder().hosts(2).build()};
  container::Engine engine{machine};
  std::vector<std::unique_ptr<osl::SimProcess>> procs;
  std::vector<RankEndpoint> endpoints;

  void add_container_proc(int host, const std::string& name, bool share_ipc = true,
                          bool share_pid = true, int core = 0) {
    container::ContainerSpec spec;
    spec.name = name;
    spec.share_host_ipc = share_ipc;
    spec.share_host_pid = share_pid;
    spec.cpuset = {core};
    auto& cont = engine.run(host, spec);
    procs.push_back(engine.spawn(cont, 0));
    endpoints.push_back({procs.back().get(), procs.back()->hostname(), true});
  }

  ChannelSelector make(LocalityPolicy policy, TuningParams tuning = TuningParams{}) {
    return ChannelSelector(policy, tuning, endpoints);
  }
};

TEST(Selector, HostnameBasedMisclassifiesCoResidentContainers) {
  SelectorFixture fx;
  fx.add_container_proc(0, "cont-a", true, true, 0);
  fx.add_container_proc(0, "cont-b", true, true, 1);
  auto selector = fx.make(LocalityPolicy::HostnameBased);
  EXPECT_FALSE(selector.co_resident(0, 1));
  const auto d = selector.select(0, 1, 1024);
  EXPECT_EQ(d.channel, ChannelKind::Hca);
  EXPECT_TRUE(d.loopback);  // physically same host -> loopback path
}

TEST(Selector, ContainerAwareUsesDetectedLocality) {
  SelectorFixture fx;
  fx.add_container_proc(0, "cont-a", true, true, 0);
  fx.add_container_proc(0, "cont-b", true, true, 1);
  auto selector = fx.make(LocalityPolicy::ContainerAware);
  selector.set_detected_locality({0, 0});
  EXPECT_TRUE(selector.co_resident(0, 1));
  EXPECT_EQ(selector.select(0, 1, 1024).channel, ChannelKind::Shm);
  EXPECT_EQ(selector.select(0, 1, 64_KiB).channel, ChannelKind::Cma);
}

TEST(Selector, ContainerAwareRequiresDetection) {
  SelectorFixture fx;
  fx.add_container_proc(0, "cont-a", true, true, 0);
  fx.add_container_proc(0, "cont-b", true, true, 1);
  auto selector = fx.make(LocalityPolicy::ContainerAware);
  EXPECT_THROW(selector.co_resident(0, 1), Error);
  EXPECT_THROW(selector.set_detected_locality({0}), Error);
  EXPECT_THROW(selector.set_detected_locality({0, 2}), Error);
  EXPECT_THROW(selector.set_detected_locality({-2, 0}), Error);
}

TEST(Selector, EagerThresholdSplitsShmAndCma) {
  SelectorFixture fx;
  fx.add_container_proc(0, "cont-a", true, true, 0);
  fx.add_container_proc(0, "cont-b", true, true, 1);
  auto selector = fx.make(LocalityPolicy::ContainerAware);
  selector.set_detected_locality({0, 0});
  EXPECT_EQ(selector.select(0, 1, 8_KiB - 1).channel, ChannelKind::Shm);
  EXPECT_EQ(selector.select(0, 1, 8_KiB - 1).protocol, Protocol::Eager);
  EXPECT_EQ(selector.select(0, 1, 8_KiB).channel, ChannelKind::Cma);
  EXPECT_EQ(selector.select(0, 1, 8_KiB).protocol, Protocol::Rendezvous);
}

TEST(Selector, CmaDisabledFallsBackToShmRendezvous) {
  SelectorFixture fx;
  fx.add_container_proc(0, "cont-a", true, true, 0);
  fx.add_container_proc(0, "cont-b", true, true, 1);
  auto tuning = TuningParams{};
  tuning.use_cma = false;
  auto selector = fx.make(LocalityPolicy::ContainerAware, tuning);
  selector.set_detected_locality({0, 0});
  const auto d = selector.select(0, 1, 64_KiB);
  EXPECT_EQ(d.channel, ChannelKind::Shm);
  EXPECT_EQ(d.protocol, Protocol::Rendezvous);
}

TEST(Selector, UnsharedPidNamespaceBlocksCma) {
  SelectorFixture fx;
  fx.add_container_proc(0, "cont-a", true, false, 0);
  fx.add_container_proc(0, "cont-b", true, false, 1);
  auto selector = fx.make(LocalityPolicy::ContainerAware);
  selector.set_detected_locality({0, 0});
  EXPECT_EQ(selector.select(0, 1, 64_KiB).channel, ChannelKind::Shm);
}

TEST(Selector, HcaEagerThreshold) {
  SelectorFixture fx;
  fx.add_container_proc(0, "cont-a");
  fx.add_container_proc(1, "cont-c");
  auto selector = fx.make(LocalityPolicy::HostnameBased);
  EXPECT_EQ(selector.select(0, 1, 17_KiB - 1).protocol, Protocol::Eager);
  EXPECT_EQ(selector.select(0, 1, 17_KiB).protocol, Protocol::Rendezvous);
  EXPECT_FALSE(selector.select(0, 1, 1).loopback);
}

TEST(Selector, ForcedChannelOverrides) {
  SelectorFixture fx;
  fx.add_container_proc(0, "cont-a", true, true, 0);
  fx.add_container_proc(0, "cont-b", true, true, 1);
  auto selector = fx.make(LocalityPolicy::HostnameBased);
  selector.force_channel(ChannelKind::Cma);
  EXPECT_EQ(selector.select(0, 1, 4).channel, ChannelKind::Cma);
  EXPECT_EQ(selector.select(0, 1, 4).protocol, Protocol::Rendezvous);
  selector.force_channel(ChannelKind::Shm);
  EXPECT_EQ(selector.select(0, 1, 1_MiB).protocol, Protocol::Rendezvous);
  selector.force_channel(std::nullopt);
  EXPECT_EQ(selector.select(0, 1, 4).channel, ChannelKind::Hca);
}

TEST(Selector, SameSocketDetection) {
  SelectorFixture fx;
  fx.add_container_proc(0, "cont-a", true, true, 0);
  fx.add_container_proc(0, "cont-b", true, true, 1);   // same socket
  fx.add_container_proc(0, "cont-c", true, true, 12);  // other socket
  auto selector = fx.make(LocalityPolicy::HostnameBased);
  EXPECT_TRUE(selector.select(0, 1, 1).same_socket);
  EXPECT_FALSE(selector.select(0, 2, 1).same_socket);
}

TEST(Selector, NativeSameHostnameIsLocal) {
  SelectorFixture fx;
  fx.procs.push_back(fx.engine.spawn_native(0, topo::CoreId{0, 0}));
  fx.endpoints.push_back({fx.procs.back().get(), "host0", true});
  fx.procs.push_back(fx.engine.spawn_native(0, topo::CoreId{0, 1}));
  fx.endpoints.push_back({fx.procs.back().get(), "host0", true});
  auto selector = fx.make(LocalityPolicy::HostnameBased);
  EXPECT_TRUE(selector.co_resident(0, 1));
  EXPECT_EQ(selector.select(0, 1, 100).channel, ChannelKind::Shm);
}

}  // namespace
}  // namespace cbmpi::fabric
