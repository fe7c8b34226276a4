// End-to-end runtime tests: job launch, point-to-point semantics, virtual
// time sanity, deployment scenarios, and the default-vs-locality-aware
// channel behaviour the paper is about.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <numeric>
#include <ranges>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "mpi/runtime.hpp"
#include "mpi/window.hpp"

namespace cbmpi {
namespace {

using container::DeploymentSpec;
using fabric::ChannelKind;
using fabric::LocalityPolicy;
using mpi::JobConfig;
using mpi::ReduceOp;
using mpi::run_job;

JobConfig two_rank_native() {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 2);
  return config;
}

TEST(Runtime, SingleRankRuns) {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 1);
  bool ran = false;
  const auto result = run_job(config, [&](mpi::Process& p) {
    EXPECT_EQ(p.rank(), 0);
    EXPECT_EQ(p.size(), 1);
    ran = true;
  });
  EXPECT_TRUE(ran);
  EXPECT_EQ(result.rank_times.size(), 1u);
}

TEST(Runtime, EagerSendRecvDeliversPayload) {
  const auto result = run_job(two_rank_native(), [](mpi::Process& p) {
    std::vector<int> data(128);
    if (p.rank() == 0) {
      std::iota(data.begin(), data.end(), 7);
      p.world().send(std::span<const int>(data), 1, 5);
    } else {
      const auto status = p.world().recv(std::span<int>(data), 0, 5);
      EXPECT_EQ(status.source, 0);
      EXPECT_EQ(status.tag, 5);
      EXPECT_EQ(status.count<int>(), 128u);
      for (int i = 0; i < 128; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], 7 + i);
    }
  });
  EXPECT_GT(result.job_time, 0.0);
}

TEST(Runtime, RendezvousSendRecvDeliversPayload) {
  const auto result = run_job(two_rank_native(), [](mpi::Process& p) {
    std::vector<double> data(64 * 1024);  // 512 KiB >> eager threshold
    if (p.rank() == 0) {
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<double>(i) * 0.5;
      p.world().send(std::span<const double>(data), 1);
    } else {
      p.world().recv(std::span<double>(data), 0);
      EXPECT_DOUBLE_EQ(data[1000], 500.0);
      EXPECT_DOUBLE_EQ(data.back(), static_cast<double>(data.size() - 1) * 0.5);
    }
  });
  // 512 KiB via CMA at ~5.5 GB/s is ~95 us.
  EXPECT_GT(result.job_time, 50.0);
  EXPECT_LT(result.job_time, 1000.0);
}

TEST(Runtime, NativeSameHostUsesNoHca) {
  const auto result = run_job(two_rank_native(), [](mpi::Process& p) {
    std::vector<std::uint8_t> buf(100_KiB);
    if (p.rank() == 0)
      p.world().send(std::span<const std::uint8_t>(buf), 1);
    else
      p.world().recv(std::span<std::uint8_t>(buf), 0);
  });
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Hca), 0u);
  EXPECT_EQ(result.hca_queue_pairs, 0u);
}

TEST(Runtime, DefaultPolicyRoutesCrossContainerTrafficThroughHca) {
  JobConfig config;
  config.deployment = DeploymentSpec::containers(1, 2, 2);  // 2 containers x 1 proc
  config.policy = LocalityPolicy::HostnameBased;
  const auto result = run_job(config, [](mpi::Process& p) {
    std::vector<int> buf(256);
    if (p.rank() == 0)
      p.world().send(std::span<const int>(buf), 1);
    else
      p.world().recv(std::span<int>(buf), 0);
  });
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Shm), 0u);
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Cma), 0u);
  EXPECT_GE(result.profile.total.channel_ops(ChannelKind::Hca), 1u);
  EXPECT_GE(result.hca_queue_pairs, 1u);
}

TEST(Runtime, LocalityAwarePolicyUsesShmAcrossContainers) {
  JobConfig config;
  config.deployment = DeploymentSpec::containers(1, 2, 2);
  config.policy = LocalityPolicy::ContainerAware;
  const auto result = run_job(config, [](mpi::Process& p) {
    std::vector<int> buf(256);  // 1 KiB -> SHM eager
    if (p.rank() == 0)
      p.world().send(std::span<const int>(buf), 1);
    else
      p.world().recv(std::span<int>(buf), 0);
  });
  EXPECT_GE(result.profile.total.channel_ops(ChannelKind::Shm), 1u);
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Hca), 0u);
}

TEST(Runtime, ShmEagerDeliversEveryByteWithOneSegmentPerHost) {
  // 2 hosts x 2 containers x 2 ranks, all sharing each host's IPC namespace:
  // the even ranks send a 1 KiB SHM eager message to every co-resident peer,
  // the odd ranks only receive. The bytes travel in the message blocks, so
  // each host's /dev/shm holds only its container locality list.
  JobConfig config;
  config.deployment = DeploymentSpec::containers(2, 2, 4);
  config.policy = LocalityPolicy::ContainerAware;
  constexpr int kRanks = 8;
  constexpr int kPerHost = 4;
  std::array<std::size_t, kRanks> segments{};
  std::array<int, kRanks> received{};
  const auto result = run_job(config, [&](mpi::Process& p) {
    const int me = p.rank();
    const int base = me / kPerHost * kPerHost;
    auto pattern = [](int src, int dst) {
      std::vector<std::uint8_t> bytes(1_KiB);
      for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>((i * 7 + static_cast<std::size_t>(src) * 31 +
                                              static_cast<std::size_t>(dst)) % 251);
      return bytes;
    };
    std::vector<std::vector<std::uint8_t>> outgoing;
    std::vector<std::vector<std::uint8_t>> incoming;
    std::vector<int> sources;
    std::vector<mpi::Request> requests;
    outgoing.reserve(kPerHost);
    incoming.reserve(kPerHost);
    for (int peer = base; peer < base + kPerHost; ++peer) {
      if (peer == me) continue;
      if (peer % 2 == 0) {
        incoming.emplace_back(1_KiB);
        sources.push_back(peer);
        requests.push_back(
            p.world().irecv(std::span<std::uint8_t>(incoming.back()), peer, 9));
      }
      if (me % 2 == 0) {
        outgoing.push_back(pattern(me, peer));
        requests.push_back(
            p.world().isend(std::span<const std::uint8_t>(outgoing.back()), peer, 9));
      }
    }
    p.world().wait_all(requests);
    for (std::size_t i = 0; i < incoming.size(); ++i)
      if (incoming[i] == pattern(sources[i], me)) ++received[static_cast<std::size_t>(me)];
    p.sync_time();  // every send has been made; no message follows
    segments[static_cast<std::size_t>(me)] = p.os().host().shm().segment_count();
  });
  EXPECT_GE(result.profile.total.channel_ops(ChannelKind::Shm), 12u);
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Hca), 0u);
  for (int r = 0; r < kRanks; ++r) {
    // Each rank hears from the co-resident even ranks other than itself.
    EXPECT_EQ(received[static_cast<std::size_t>(r)], r % 2 == 0 ? 1 : 2) << "rank " << r;
    EXPECT_EQ(segments[static_cast<std::size_t>(r)], 1u) << "rank " << r;
  }
}

TEST(Runtime, HcaQueuePairsCountDistinctPairsExactly) {
  // Hostname-based locality over 2 hosts x 2 containers x 2 ranks: only
  // container mates (same hostname) share SHM; every other pair talks over
  // the HCA — loopback within a host, the wire across hosts. Several rounds
  // of an all-to-all exchange, eager and rendezvous, reuse each pair's queue
  // pair in both directions.
  JobConfig config;
  config.deployment = DeploymentSpec::containers(2, 2, 4);
  config.policy = LocalityPolicy::HostnameBased;
  constexpr int kRanks = 8;
  const auto result = run_job(config, [&](mpi::Process& p) {
    const int me = p.rank();
    for (int round = 0; round < 3; ++round) {
      const std::size_t size = round == 1 ? 64_KiB : 1_KiB;
      std::vector<std::uint8_t> out(size, static_cast<std::uint8_t>(me));
      std::vector<std::vector<std::uint8_t>> in(kRanks, std::vector<std::uint8_t>(size));
      std::vector<mpi::Request> requests;
      for (int peer = 0; peer < kRanks; ++peer) {
        if (peer == me) continue;
        requests.push_back(p.world().irecv(
            std::span<std::uint8_t>(in[static_cast<std::size_t>(peer)]), peer, round));
        requests.push_back(
            p.world().isend(std::span<const std::uint8_t>(out), peer, round));
      }
      p.world().wait_all(requests);
    }
  });
  std::size_t hca_pairs = 0;
  for (int a = 0; a < kRanks; ++a)
    for (int b = a + 1; b < kRanks; ++b)
      if (a / 2 != b / 2) ++hca_pairs;  // not container mates
  EXPECT_EQ(hca_pairs, 24u);
  EXPECT_EQ(result.hca_queue_pairs, hca_pairs);
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Hca), 3u * 8u * 6u);

  // One direction only, from the higher rank: only rank 1 connects, and the
  // pair still counts once.
  JobConfig one_way;
  one_way.deployment = DeploymentSpec::native_hosts(2, 1);
  const auto one_way_result = run_job(one_way, [](mpi::Process& p) {
    for (int i = 0; i < 3; ++i) {
      if (p.rank() == 1) {
        p.world().send_value(i, 0, 5);
      } else {
        EXPECT_EQ(p.world().recv_value<int>(1, 5), i);
      }
    }
  });
  EXPECT_EQ(one_way_result.hca_queue_pairs, 1u);

  // RMA only: 8 ranks on 8 hosts. The window's dissemination barriers (at
  // creation and in the fence) link the pairs at distances 1, 2 and 4 around
  // the ring; rank 0's put to rank 3
  // (distance 3) opens the one pair no message uses, through account_op.
  JobConfig rma;
  rma.deployment = DeploymentSpec::native_hosts(kRanks, 1);
  const auto rma_result = run_job(rma, [](mpi::Process& p) {
    std::vector<int> memory(4, 0);
    mpi::Window<int> window(p.world(), std::span<int>(memory));
    if (p.rank() == 0) {
      window.lock(mpi::LockKind::Exclusive, 3);
      const int value = 7;
      window.put(std::span<const int>(&value, 1), 3, 0);
      window.unlock(3);
    }
    window.fence();  // no rank frees its window memory before the put landed
    if (p.rank() == 3) {
      EXPECT_EQ(memory[0], 7);
    }
  });
  std::set<std::pair<int, int>> barrier_pairs;
  for (int a = 0; a < kRanks; ++a)
    for (const int dist : {1, 2, 4})
      barrier_pairs.insert(std::minmax(a, (a + dist) % kRanks));
  EXPECT_EQ(barrier_pairs.size(), 20u);
  EXPECT_FALSE(barrier_pairs.contains({0, 3}));
  EXPECT_EQ(rma_result.hca_queue_pairs, barrier_pairs.size() + 1);
}

TEST(Runtime, LocalityAwareIsFasterAcrossContainers) {
  auto time_with = [](LocalityPolicy policy) {
    JobConfig config;
    config.deployment = DeploymentSpec::containers(1, 2, 2);
    config.policy = policy;
    return run_job(config, [](mpi::Process& p) {
             std::vector<std::uint8_t> buf(1024);
             for (int i = 0; i < 100; ++i) {
               if (p.rank() == 0) {
                 p.world().send(std::span<const std::uint8_t>(buf), 1);
                 p.world().recv(std::span<std::uint8_t>(buf), 1);
               } else {
                 p.world().recv(std::span<std::uint8_t>(buf), 0);
                 p.world().send(std::span<const std::uint8_t>(buf), 0);
               }
             }
           })
        .job_time;
  };
  const Micros default_time = time_with(LocalityPolicy::HostnameBased);
  const Micros aware_time = time_with(LocalityPolicy::ContainerAware);
  EXPECT_LT(aware_time, default_time * 0.5)
      << "locality-aware ping-pong should be far faster than HCA loopback";
}

TEST(Runtime, AnySourceReceivesBoth) {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 3);
  run_job(config, [](mpi::Process& p) {
    if (p.rank() == 0) {
      int got = 0;
      std::vector<int> sources;
      for (int i = 0; i < 2; ++i) {
        const auto status =
            p.world().recv(std::span<int>(&got, 1), mpi::kAnySource, 3);
        sources.push_back(status.source);
        EXPECT_EQ(got, status.source * 10);
      }
      std::sort(sources.begin(), sources.end());
      EXPECT_EQ(sources, (std::vector<int>{1, 2}));
    } else {
      const int payload = p.rank() * 10;
      p.world().send(std::span<const int>(&payload, 1), 0, 3);
    }
  });
}

// A user receive or probe with kAnyTag must not take a collective's block:
// collectives move their blocks through the exchange, never as messages.
TEST(Runtime, AnyTagReceiveSkipsCollectiveTraffic) {
  run_job(two_rank_native(), [](mpi::Process& p) {
    auto& world = p.world();
    int got = 0;
    mpi::Request user;
    if (p.rank() == 0) user = world.irecv(std::span<int>(&got, 1), mpi::kAnySource);
    EXPECT_EQ(world.allreduce_value(p.rank() + 1, ReduceOp::Sum), 3);
    if (p.rank() == 1) {
      world.send_value<int>(42, 0, 7);
      return;
    }
    const auto status = world.wait(user);
    EXPECT_EQ(got, 42);
    EXPECT_EQ(status.tag, 7);
  });
}

TEST(Runtime, AnyTagProbeSkipsCollectiveTraffic) {
  run_job(two_rank_native(), [](mpi::Process& p) {
    auto& world = p.world();
    int value = p.rank() == 1 ? 9 : 0;
    if (p.rank() == 1) {
      // Rank 1's part of the bcast is an eager block it publishes before the
      // user message and does not wait for: rank 0 reads it only after it
      // has received that message.
      world.bcast(std::span<int>(&value, 1), 1);
      world.send_value<int>(42, 0, 5);
      return;
    }
    EXPECT_EQ(world.probe(mpi::kAnySource, mpi::kAnyTag).tag, 5);
    const auto peek = world.iprobe(1, mpi::kAnyTag);
    ASSERT_TRUE(peek.has_value());
    EXPECT_EQ(peek->tag, 5);
    EXPECT_EQ(world.recv_value<int>(1, 5), 42);
    EXPECT_FALSE(world.iprobe().has_value());
    world.bcast(std::span<int>(&value, 1), 1);
    EXPECT_EQ(value, 9);
  });
}

TEST(Runtime, AnyTagReceiveHeldAcrossABcastSkipsItsBlock) {
  // Rank 0 holds a wildcard receive across a bcast whose block reaches it
  // before any user message, then probes with wildcards: neither may see
  // the collective's traffic.
  run_job(two_rank_native(), [](mpi::Process& p) {
    auto& world = p.world();
    int value = p.rank() == 1 ? 9 : 0;
    if (p.rank() == 1) {
      world.bcast(std::span<int>(&value, 1), 1);
      world.send_value<int>(42, 0, 5);
      world.send_value<int>(43, 0, 6);
      return;
    }
    int got = 0;
    const auto request = world.irecv(std::span<int>(&got, 1));
    world.bcast(std::span<int>(&value, 1), 1);
    EXPECT_EQ(value, 9);
    EXPECT_EQ(world.wait(request).tag, 5);
    EXPECT_EQ(got, 42);
    EXPECT_EQ(world.probe(mpi::kAnySource, mpi::kAnyTag).tag, 6);
    const auto peek = world.iprobe(1, mpi::kAnyTag);
    ASSERT_TRUE(peek.has_value());
    EXPECT_EQ(peek->tag, 6);
    EXPECT_EQ(world.recv_value<int>(1, 6), 43);
    EXPECT_FALSE(world.iprobe().has_value());
  });
}

TEST(Runtime, IsendIrecvTestCompletes) {
  run_job(two_rank_native(), [](mpi::Process& p) {
    std::vector<float> buf(16);
    if (p.rank() == 0) {
      buf.assign(16, 2.5f);
      auto req = p.world().isend(std::span<const float>(buf), 1, 9);
      p.world().wait(req);
    } else {
      auto req = p.world().irecv(std::span<float>(buf), 0, 9);
      while (!p.world().test(req)) {
      }
      EXPECT_FLOAT_EQ(buf[5], 2.5f);
    }
  });
}

TEST(Runtime, TruncationThrows) {
  EXPECT_THROW(
      run_job(two_rank_native(),
              [](mpi::Process& p) {
                if (p.rank() == 0) {
                  std::vector<int> big(64);
                  p.world().send(std::span<const int>(big), 1);
                } else {
                  std::vector<int> small(8);
                  p.world().recv(std::span<int>(small), 0);
                }
              }),
      TruncationError);
}

// A failed completion leaves the receives matched with it holding their
// messages. Rank 1's tag-1 receive fails on truncation while its tag-2
// receive, matched in the same progress step, still holds its eager
// message; the request outlives the job, so the engine must have given the
// message back while the job's homes still existed.
TEST(Runtime, MatchedReceiveKeptPastFailedJobIsFreedSafely) {
  std::vector<mpi::Request> kept;
  EXPECT_THROW(
      run_job(two_rank_native(),
              [&kept](mpi::Process& p) {
                auto& comm = p.world();
                if (p.rank() == 0) {
                  const std::vector<std::byte> big(64);
                  const std::vector<std::byte> small(8);
                  comm.send(std::span<const std::byte>(big), 1, 1);
                  comm.send(std::span<const std::byte>(small), 1, 2);
                  comm.send_value<int>(3, 1, 3);
                  return;
                }
                // Tags 1 and 2 arrived before tag 3 (per-source order).
                (void)comm.recv_value<int>(0, 3);
                std::vector<std::byte> in1(8);
                std::vector<std::byte> in2(8);
                const auto recv1 = comm.irecv(std::span<std::byte>(in1), 0, 1);
                kept.push_back(comm.irecv(std::span<std::byte>(in2), 0, 2));
                comm.wait(kept.back());
              }),
      TruncationError);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_FALSE(kept.front()->complete);
  EXPECT_EQ(kept.front()->message, nullptr);
  kept.clear();
}

TEST(Runtime, NegativeCheckpointIntervalThrows) {
  // Without stop_at or restore the job would otherwise run with checkpoints
  // silently off.
  auto config = two_rank_native();
  config.checkpoint_interval = -1.0;
  EXPECT_THROW(run_job(config, [](mpi::Process&) {}), Error);
}

TEST(Runtime, ComputeAdvancesVirtualTimeDeterministically) {
  Micros t1 = 0, t2 = 0;
  run_job(two_rank_native(), [&](mpi::Process& p) {
    p.compute(24000.0);
    if (p.rank() == 0) t1 = p.now();
  });
  run_job(two_rank_native(), [&](mpi::Process& p) {
    p.compute(24000.0);
    if (p.rank() == 0) t2 = p.now();
  });
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_GT(t1, 0.0);
}

TEST(Runtime, WindowPutGetAccumulate) {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 2);
  run_job(config, [](mpi::Process& p) {
    std::vector<std::int64_t> memory(32, 0);
    mpi::Window<std::int64_t> window(p.world(), std::span<std::int64_t>(memory));
    window.fence();
    if (p.rank() == 0) {
      const std::int64_t v[2] = {41, 42};
      window.put(std::span<const std::int64_t>(v, 2), 1, 4);
      const std::int64_t inc[1] = {100};
      window.accumulate(std::span<const std::int64_t>(inc, 1), 1, 4, ReduceOp::Sum);
    }
    window.fence();
    if (p.rank() == 1) {
      EXPECT_EQ(memory[4], 141);
      EXPECT_EQ(memory[5], 42);
    }
    // Read back through get.
    std::int64_t fetched[2] = {0, 0};
    if (p.rank() == 0) {
      window.get(std::span<std::int64_t>(fetched, 2), 1, 4);
      window.flush(1);
      EXPECT_EQ(fetched[0], 141);
      EXPECT_EQ(fetched[1], 42);
    }
    window.fence();
  });
}

TEST(Runtime, UnprivilegedContainerCannotReachHca) {
  JobConfig config;
  config.deployment = DeploymentSpec::containers(2, 1, 1);  // 2 hosts, 1 proc each
  config.deployment.privileged = false;
  EXPECT_THROW(run_job(config,
                       [](mpi::Process& p) {
                         int v = 0;
                         if (p.rank() == 0)
                           p.world().send(std::span<const int>(&v, 1), 1);
                         else
                           p.world().recv(std::span<int>(&v, 1), 0);
                       }),
               Error);
}

TEST(Runtime, CmaDeniedWithoutSharedPidNamespace) {
  // Containers share IPC (so SHM and detection work) but not PID. Large
  // messages must fall back to SHM rendezvous, not CMA.
  JobConfig config;
  config.deployment = DeploymentSpec::containers(1, 2, 2);
  config.deployment.share_host_pid = false;
  config.policy = LocalityPolicy::ContainerAware;
  const auto result = run_job(config, [](mpi::Process& p) {
    std::vector<std::uint8_t> buf(64_KiB);
    if (p.rank() == 0)
      p.world().send(std::span<const std::uint8_t>(buf), 1);
    else
      p.world().recv(std::span<std::uint8_t>(buf), 0);
  });
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Cma), 0u);
  EXPECT_GE(result.profile.total.channel_ops(ChannelKind::Shm), 1u);
}

TEST(Runtime, SeparateIpcNamespacesDefeatDetection) {
  // Without --ipc=host each container writes into its own locality list, so
  // even the container-aware policy must fall back to the HCA loopback.
  JobConfig config;
  config.deployment = DeploymentSpec::containers(1, 2, 2);
  config.deployment.share_host_ipc = false;
  config.deployment.share_host_pid = false;
  config.policy = LocalityPolicy::ContainerAware;
  const auto result = run_job(config, [](mpi::Process& p) {
    std::vector<int> buf(64);
    if (p.rank() == 0)
      p.world().send(std::span<const int>(buf), 1);
    else
      p.world().recv(std::span<int>(buf), 0);
  });
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Shm), 0u);
  EXPECT_GE(result.profile.total.channel_ops(ChannelKind::Hca), 1u);
}

TEST(Runtime, RendezvousHeadToHeadDoesNotDeadlock) {
  run_job(two_rank_native(), [](mpi::Process& p) {
    std::vector<std::uint8_t> out(256_KiB, static_cast<std::uint8_t>(p.rank()));
    std::vector<std::uint8_t> in(256_KiB);
    const int other = 1 - p.rank();
    auto recv_req = p.world().irecv(std::span<std::uint8_t>(in), other);
    p.world().send(std::span<const std::uint8_t>(out), other);
    p.world().wait(recv_req);
    EXPECT_EQ(in[123], static_cast<std::uint8_t>(other));
  });
}

TEST(Runtime, JobTimeIsMaxOfRankTimes) {
  const auto result = run_job(two_rank_native(), [](mpi::Process& p) {
    if (p.rank() == 0) p.compute(50000.0);
  });
  EXPECT_DOUBLE_EQ(result.job_time,
                   std::max(result.rank_times[0], result.rank_times[1]));
  EXPECT_GT(result.rank_times[0], result.rank_times[1]);
}

// ---- rank engine: ranks run as fibers on one worker thread per core --------

/// Runs `job` on another thread; a hang fails the whole binary fast instead
/// of stalling the suite until the ctest timeout.
template <typename Job>
void within_10s(const char* what, Job job) {
  auto done = std::async(std::launch::async, std::move(job));
  if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    std::fprintf(stderr, "%s\n", what);
    std::_Exit(1);
  }
  done.get();
}

int hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

TEST(RankEngine, MutualRecvThrowsDeadlockErrorNamingBothRanks) {
  within_10s("a two-rank recv cycle hung instead of raising DeadlockError", [] {
    const auto start = std::chrono::steady_clock::now();
    try {
      run_job(two_rank_native(), [](mpi::Process& p) {
        const int other = 1 - p.rank();
        (void)p.world().recv_value<int>(other, 3);
        p.world().send_value<int>(p.rank(), other, 3);
      });
      ADD_FAILURE() << "expected a DeadlockError";
    } catch (const DeadlockError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 0 waits in recv(source=1, tag=3, comm=0)"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("rank 1 waits in recv(source=0, tag=3, comm=0)"),
                std::string::npos)
          << what;
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  });
}

TEST(RankEngine, DeadlockNamesOnlyTheRanksStillBlocked) {
  // Rank 0 returns without sending; rank 1 then waits forever on it.
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 3);
  within_10s("a rank waiting on a finished peer hung", [&] {
    try {
      run_job(config, [](mpi::Process& p) {
        if (p.rank() == 1) (void)p.world().recv_value<int>(mpi::kAnySource);
        if (p.rank() == 2) p.world().barrier();
      });
      ADD_FAILURE() << "expected a DeadlockError";
    } catch (const DeadlockError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.find("rank 0"), std::string::npos) << what;
      EXPECT_NE(what.find("rank 1 waits in recv(source=any, tag=any, comm=0)"),
                std::string::npos)
          << what;
      // Rank 2 waits inside the barrier, for rank 1's first-round block.
      EXPECT_NE(what.find("rank 2 waits in barrier #1 step 1/2 (comm 0): rank 1 has not "
                          "published it"),
                std::string::npos)
          << what;
    }
  });
}

TEST(RankEngine, DeadlockOfManyRanksNamesEveryRank) {
  // More ranks than workers: while the abort wakes the blocked ranks, the
  // first ones to unwind must not look like a second deadlock.
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(2, 16);
  within_10s("a 32-rank recv cycle hung instead of raising DeadlockError", [&] {
    for (int attempt = 0; attempt < 20; ++attempt) {
      try {
        run_job(config, [](mpi::Process& p) {
          (void)p.world().recv_value<int>((p.rank() + 1) % p.size(), 1);
        });
        ADD_FAILURE() << "expected a DeadlockError";
      } catch (const DeadlockError& e) {
        const std::string what = e.what();
        for (int r = 0; r < 32; ++r)
          EXPECT_NE(what.find("rank " + std::to_string(r) + " waits in recv(source=" +
                              std::to_string((r + 1) % 32) + ", tag=1, comm=0)"),
                    std::string::npos)
              << what;
      }
    }
  });
}

TEST(RankEngine, DeadlockNamesAPhaseAlignmentAndItsArrivals) {
  // Rank 0 aligns clocks while rank 1 waits for a message rank 0 never
  // sends; then the same with a checkpoint quiesce.
  within_10s("a rank parked in phase alignment hung, no DeadlockError", [] {
    for (const bool quiesce : {false, true}) {
      auto config = two_rank_native();
      if (quiesce) config.checkpoint_interval = 1.0;
      try {
        run_job(config, [quiesce](mpi::Process& p) {
          if (p.rank() == 1) {
            (void)p.world().recv_value<int>(0, 4);
          } else if (quiesce) {
            (void)p.checkpoint(1, {});
          } else {
            p.sync_time();
          }
        });
        ADD_FAILURE() << "expected a DeadlockError";
      } catch (const DeadlockError& e) {
        const std::string what = e.what();
        const std::string phase = quiesce ? "checkpoint quiesce" : "sync_time";
        EXPECT_NE(what.find("rank 0 waits in " + phase + ": 1 of 2 ranks arrived"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("rank 1 waits in recv(source=0, tag=4, comm=0)"),
                  std::string::npos)
            << what;
      }
    }
  });
}

// A receive matched in the same progress as a failing one still holds its
// message, which the next progress delivers: cancelling it must fail rather
// than return while the message is still on its way into the buffer.
TEST(RankEngine, CancelOfAMatchedReceiveFailsNamingIt) {
  run_job(two_rank_native(), [](mpi::Process& p) {
    auto& comm = p.world();
    if (p.rank() == 0) {
      const std::array<int, 4> big{1, 2, 3, 4};
      comm.send(std::span<const int>(big), 1, 1);
      comm.send_value<int>(9, 1, 2);
      comm.send_value<int>(0, 1, 3);
      return;
    }
    // Tags 1 and 2 arrived before tag 3 (per-source order).
    (void)comm.recv_value<int>(0, 3);
    int a = 0;
    int b = 0;
    const auto recv_a = comm.irecv(std::span<int>(&a, 1), 0, 1);
    const auto recv_b = comm.irecv(std::span<int>(&b, 1), 0, 2);
    bool truncated = false;
    try {
      comm.wait(recv_a);
    } catch (const TruncationError&) {
      truncated = true;
    }
    ASSERT_TRUE(truncated);
    std::string error = "no error";
    try {
      comm.cancel(recv_b);
    } catch (const Error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("cannot cancel: rank 1 recv(source=0, tag=2, comm=0) has "
                         "matched a 4-byte message"),
              std::string::npos)
        << error;
    // The cancel failed, so the receive completes as it would have.
    comm.wait(recv_b);
    EXPECT_EQ(b, 9);
  });
}

TEST(RankEngine, TruncationNamesTheReceiveAndBothSizes) {
  // One check covers both protocols: an eager-sized and a rendezvous-sized
  // message, each over SHM/CMA (one host) and over the HCA (two hosts).
  for (const int hosts : {1, 2}) {
    JobConfig config;
    config.deployment = DeploymentSpec::native_hosts(hosts, 2 / hosts);
    for (const std::size_t bytes : {std::size_t{64}, std::size_t{64} * 1024}) {
      try {
        run_job(config, [&](mpi::Process& p) {
          if (p.rank() == 1) {
            const std::vector<std::byte> out(bytes);
            p.world().send(std::span<const std::byte>(out), 0, 9);
          } else {
            std::array<std::byte, 16> in{};
            p.world().recv(std::span<std::byte>(in), 1, 9);
          }
        });
        ADD_FAILURE() << "expected a truncation error for " << bytes << " bytes";
      } catch (const TruncationError& e) {
        const std::string what = e.what();
        const std::string expected =
            "message truncation: rank 0 recv(source=1, tag=9, comm=0) got " +
            std::to_string(bytes) + " bytes into a 16-byte buffer";
        EXPECT_NE(what.find(expected), std::string::npos) << what;
      }
    }
  }
}

TEST(RankEngine, AlltoallExchangeLeavesOnlyUserReceivesPosted) {
  // Rank 0 posts receive C, then runs a spread alltoall, which completes in
  // virtual arrival order without posting a receive of its own: afterwards C
  // is still the oldest posted receive, and the only one.
  JobConfig config = two_rank_native();
  config.coll_tuning.add({.coll = coll::Coll::Alltoall, .algo = coll::Algo::Spread});
  run_job(config, [](mpi::Process& p) {
    auto& world = p.world();
    const std::array<int, 2> out{p.rank() * 10, p.rank() * 10 + 1};
    std::array<int, 2> in{};
    if (p.rank() == 1) {
      world.alltoall(std::span<const int>(out), std::span<int>(in));
      world.barrier();
      world.send_value<int>(5, 0, 3);
      return;
    }
    auto& engine = world.engine();
    int c = 0;
    const auto recv = world.irecv(std::span<int>(&c, 1), 1, 3);
    world.alltoall(std::span<const int>(out), std::span<int>(in));
    EXPECT_EQ(in[1], 10);
    EXPECT_EQ(engine.oldest_posted(), recv.get());
    world.barrier();
    world.wait(recv);
    EXPECT_EQ(c, 5);
    EXPECT_EQ(engine.oldest_posted(), nullptr);
  });
}

// ---- progress rule: a matched rendezvous receive completes while its rank
// blocks in some other call, since its sender is blocked until it does ------

JobConfig three_rank_native() {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 3);
  return config;
}

constexpr std::size_t kRndvBytes = 64_KiB;  // above every eager threshold

std::vector<std::uint8_t> filled(int rank) {
  return std::vector<std::uint8_t>(kRndvBytes, static_cast<std::uint8_t>(rank));
}

TEST(ProgressRule, RendezvousReceiveCompletesWhileWaitingOnAnother) {
  // Rank 2 only sends once rank 1 is past its blocking send to rank 0, so
  // rank 0 must complete the receive from rank 1 inside the wait on rank 2.
  within_10s("a wait on one receive did not progress another", [] {
    run_job(three_rank_native(), [](mpi::Process& p) {
      auto& world = p.world();
      const auto out = filled(p.rank());
      std::vector<std::uint8_t> from1(kRndvBytes), from2(kRndvBytes);
      switch (p.rank()) {
        case 0: {
          const auto recv1 = world.irecv(std::span<std::uint8_t>(from1), 1);
          const auto recv2 = world.irecv(std::span<std::uint8_t>(from2), 2);
          world.wait(recv2);
          world.wait(recv1);
          EXPECT_EQ(from1[kRndvBytes - 1], 1);
          EXPECT_EQ(from2[kRndvBytes - 1], 2);
          break;
        }
        case 1:
          world.send(std::span<const std::uint8_t>(out), 0);
          world.send(std::span<const std::uint8_t>(out), 2);
          break;
        case 2:
          world.recv(std::span<std::uint8_t>(from1), 1);
          world.send(std::span<const std::uint8_t>(out), 0);
          break;
      }
    });
  });
}

TEST(ProgressRule, WaitAllCompletesARendezvousBeforeItsEagerFollower) {
  // The eager message on tag 2 is only sent once the rendezvous on tag 1
  // completed, so wait_all cannot hold the first receive until both match.
  within_10s("wait_all did not complete a rendezvous receive before the rest", [] {
    run_job(three_rank_native(), [](mpi::Process& p) {
      auto& world = p.world();
      if (p.rank() == 1) {
        world.send(std::span<const std::uint8_t>(filled(1)), 0, 1);
        world.send_value<int>(7, 0, 2);
      } else if (p.rank() == 0) {
        std::vector<std::uint8_t> big(kRndvBytes);
        int small = 0;
        const std::array<mpi::Request, 2> recvs = {
            world.irecv(std::span<std::uint8_t>(big), 1, 1),
            world.irecv(std::span<int>(&small, 1), 1, 2)};
        world.wait_all(recvs);
        EXPECT_EQ(big[kRndvBytes - 1], 1);
        EXPECT_EQ(small, 7);
      }
    });
  });
}

TEST(ProgressRule, BarrierCompletesAPendingRendezvousReceive) {
  // Rank 1 reaches the barrier only after its send completes, and rank 0
  // waits on that receive only after the barrier.
  within_10s("a barrier did not progress a pending rendezvous receive", [] {
    run_job(three_rank_native(), [](mpi::Process& p) {
      auto& world = p.world();
      std::vector<std::uint8_t> in(kRndvBytes);
      mpi::Request recv;
      if (p.rank() == 0) recv = world.irecv(std::span<std::uint8_t>(in), 1);
      if (p.rank() == 1) world.send(std::span<const std::uint8_t>(filled(1)), 0);
      world.barrier();
      if (p.rank() == 0) {
        world.wait(recv);
        EXPECT_EQ(in[kRndvBytes - 1], 1);
      }
    });
  });
}

TEST(ProgressRule, AlltoallCompletesAPendingRendezvousReceive) {
  // Rank 1 reaches the alltoall only after its send completes, and rank 0
  // waits on that receive only after the alltoall.
  within_10s("an alltoall did not progress a pending rendezvous receive", [] {
    auto config = three_rank_native();
    config.coll_tuning.add({.coll = coll::Coll::Alltoall, .algo = coll::Algo::Spread});
    run_job(config, [](mpi::Process& p) {
      auto& world = p.world();
      std::vector<std::uint8_t> in(kRndvBytes);
      mpi::Request recv;
      if (p.rank() == 0) recv = world.irecv(std::span<std::uint8_t>(in), 1);
      if (p.rank() == 1) world.send(std::span<const std::uint8_t>(filled(1)), 0);
      const int me = p.rank();
      const std::array<int, 3> out{me * 10, me * 10 + 1, me * 10 + 2};
      std::array<int, 3> got{};
      world.alltoall(std::span<const int>(out), std::span<int>(got));
      EXPECT_EQ(got, (std::array<int, 3>{me, 10 + me, 20 + me}));
      if (p.rank() == 0) {
        world.wait(recv);
        EXPECT_EQ(in[kRndvBytes - 1], 1);
      }
    });
  });
}

TEST(RankEngine, DeadlockNamesTheAlltoallAndTheReceive) {
  // Rank 2 skips the alltoall and waits for a message rank 0 never sends.
  // A barrier and an allgather come first, so the alltoall is the
  // communicator's third collective, as its CollectiveScope numbers it.
  auto config = three_rank_native();
  config.coll_tuning.add({.coll = coll::Coll::Alltoall, .algo = coll::Algo::Spread});
  within_10s("a rank missing from an alltoall hung, no DeadlockError", [&] {
    try {
      run_job(config, [](mpi::Process& p) {
        p.world().barrier();
        const std::array<int, 1> mine{p.rank()};
        std::array<int, 3> all{};
        p.world().allgather(std::span<const int>(mine), std::span<int>(all));
        if (p.rank() == 2) {
          (void)p.world().recv_value<int>(0, 4);
          return;
        }
        const std::array<int, 3> out{};
        std::array<int, 3> in{};
        p.world().alltoall(std::span<const int>(out), std::span<int>(in));
      });
      ADD_FAILURE() << "expected a DeadlockError";
    } catch (const DeadlockError& e) {
      const std::string what = e.what();
      for (const int r : {0, 1})
        EXPECT_NE(what.find("rank " + std::to_string(r) +
                            " waits in alltoall #3 (comm 0): ranks [2] have not arrived"),
                  std::string::npos)
            << what;
      EXPECT_NE(what.find("rank 2 waits in recv(source=0, tag=4, comm=0)"),
                std::string::npos)
          << what;
    }
  });
}

TEST(RankEngine, DeadlockNamesTheCollectiveStepAndPeer) {
  // Recursive doubling on four ranks; rank 2 skips the second allreduce and
  // waits for a message rank 0 never sends. Rank 3 waits for rank 2's block
  // in the first round, rank 0 for rank 2's in the second, rank 1 for rank
  // 3's there.
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 4);
  config.coll_tuning.add(
      {.coll = coll::Coll::Allreduce, .algo = coll::Algo::RecursiveDoubling});
  within_10s("a rank missing from an allreduce hung, no DeadlockError", [&] {
    try {
      run_job(config, [](mpi::Process& p) {
        const std::array<int, 1> mine{p.rank()};
        std::array<int, 1> sum{};
        p.world().allreduce(std::span<const int>(mine), std::span<int>(sum),
                            mpi::ReduceOp::Sum);
        if (p.rank() == 2) {
          (void)p.world().recv_value<int>(0, 4);
          return;
        }
        p.world().allreduce(std::span<const int>(mine), std::span<int>(sum),
                            mpi::ReduceOp::Sum);
      });
      ADD_FAILURE() << "expected a DeadlockError";
    } catch (const DeadlockError& e) {
      const std::string what = e.what();
      for (const auto& [rank, step, peer] :
           {std::tuple{0, 2, 2}, {1, 2, 3}, {3, 1, 2}})
        EXPECT_NE(what.find("rank " + std::to_string(rank) + " waits in allreduce #2 step " +
                            std::to_string(step) + "/2 (comm 0): rank " +
                            std::to_string(peer) + " has not published it"),
                  std::string::npos)
            << what;
      EXPECT_NE(what.find("rank 2 waits in recv(source=0, tag=4, comm=0)"),
                std::string::npos)
          << what;
    }
  });
}

TEST(RankEngine, CollectiveTruncationWithdrawsItsScratchSends) {
  // Odd ranks pass twice the bytes of even ones, so some rank's receive
  // truncates while its rendezvous send still points at its scratch
  // (recursive doubling's accumulator, Bruck's pack) and a peer may still
  // pull from it. The rank must withdraw that send before unwinding frees
  // the scratch (ASan and TSan check it), and the job fails with the
  // truncation. The odd ranks start later, so the truncations on even ranks
  // are the earliest failures: an odd rank's read of a shorter block fails
  // too, later in virtual time.
  constexpr std::size_t kBytes = 64_KiB;
  for (const auto kind : {coll::Coll::Allreduce, coll::Coll::Alltoall}) {
    JobConfig config;
    config.deployment = DeploymentSpec::native_hosts(2, 2);
    config.coll_tuning.add(
        {.coll = coll::Coll::Allreduce, .algo = coll::Algo::RecursiveDoubling});
    config.coll_tuning.add({.coll = coll::Coll::Alltoall, .algo = coll::Algo::Bruck});
    try {
      run_job(config, [kind](mpi::Process& p) {
        const std::size_t bytes = p.rank() % 2 == 0 ? kBytes : 2 * kBytes;
        if (p.rank() % 2 != 0) p.compute(1000.0);
        if (kind == coll::Coll::Allreduce) {
          const std::vector<std::int64_t> mine(bytes / sizeof(std::int64_t), 1);
          std::vector<std::int64_t> sum(mine.size());
          p.world().allreduce(std::span<const std::int64_t>(mine),
                              std::span<std::int64_t>(sum), mpi::ReduceOp::Sum);
        } else {
          const std::vector<std::byte> out(bytes * 4, std::byte{7});
          std::vector<std::byte> in(out.size());
          p.world().alltoall(std::span<const std::byte>(out), std::span<std::byte>(in));
        }
      });
      ADD_FAILURE() << "expected a truncation error from " << coll::to_string(kind);
    } catch (const TruncationError& e) {
      EXPECT_NE(std::string(e.what()).find("message truncation: rank "), std::string::npos)
          << coll::to_string(kind) << ": " << e.what();
    } catch (const Error& e) {
      ADD_FAILURE() << coll::to_string(kind) << ": " << e.what();
    }
  }
}

TEST(RankEngine, AtMostOneWorkerPerCore) {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(4, 16);
  int threads = 0;
  run_job(config, [&](mpi::Process& p) {
    p.world().barrier();
    if (p.rank() != 0) return;
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++threads;
    }
  });
  EXPECT_GT(threads, 0);
  EXPECT_LE(threads, hardware_threads() + 1);
}

TEST(RankEngine, PollingRankYields) {
  // One rank more than workers: the workers take contiguous blocks of ranks,
  // so worker 0 runs ranks 0 and 1 and every other worker one rank. Rank 0
  // runs first, sends the token to rank 1 and polls for it to come back
  // round the ring, which needs rank 1 to run on the worker rank 0 holds.
  // Without a yield in test() that worker livelocks.
  const int nranks = hardware_threads() + 1;
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(nranks, 1);
  within_10s("a rank polling with test() never let its worker run another rank",
             [&] {
               run_job(config, [nranks](mpi::Process& p) {
                 auto& world = p.world();
                 const int next = (p.rank() + 1) % nranks;
                 const int prev = (p.rank() + nranks - 1) % nranks;
                 int token = 0;
                 if (p.rank() == 0) world.send_value<int>(1, next);
                 auto request = world.irecv(std::span<int>(&token, 1), prev);
                 while (!world.test(request)) {
                 }
                 if (p.rank() == 0)
                   EXPECT_EQ(token, nranks);
                 else
                   world.send_value<int>(token + 1, next);
               });
             });
}

TEST(RankEngine, CoResidentRanksShareAWorker) {
  // Ranks are numbered host by host and container by container, and rank r
  // runs on worker floor(r * W / n): contiguous blocks, so co-resident ranks
  // share a worker thread and their traffic stays on it.
  JobConfig config;
  config.deployment = DeploymentSpec::containers(4, 4, 16);
  const int nranks = config.deployment.total_ranks();
  const int nworkers = std::min(nranks, hardware_threads());
  std::vector<std::thread::id> thread_of(static_cast<std::size_t>(nranks));
  run_job(config, [&](mpi::Process& p) {
    thread_of[static_cast<std::size_t>(p.rank())] = std::this_thread::get_id();
    p.world().barrier();
  });
  const auto worker_of = [&](int r) {
    return static_cast<int>(static_cast<std::int64_t>(r) * nworkers / nranks);
  };
  for (int a = 0; a < nranks; ++a) {
    for (int b = a + 1; b < nranks; ++b) {
      EXPECT_EQ(thread_of[static_cast<std::size_t>(a)] == thread_of[static_cast<std::size_t>(b)],
                worker_of(a) == worker_of(b))
          << "ranks " << a << " and " << b << " with " << nworkers << " workers";
    }
  }
  std::map<std::thread::id, int> load;
  for (const auto id : thread_of) ++load[id];
  EXPECT_EQ(static_cast<int>(load.size()), nworkers);
  const auto [least, most] = std::ranges::minmax(load | std::views::values);
  EXPECT_LE(most - least, 1);
  // With whole hosts per worker, every host's 16 ranks run on one thread.
  if (config.deployment.num_hosts % nworkers == 0) {
    for (int r = 0; r < nranks; ++r)
      EXPECT_EQ(thread_of[static_cast<std::size_t>(r)],
                thread_of[static_cast<std::size_t>(r - r % 16)])
          << "rank " << r;
  }
}

}  // namespace
}  // namespace cbmpi
