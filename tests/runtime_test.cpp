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
#include <string>
#include <thread>

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

TEST(Runtime, ShmStagingUsesOneQueuePerSendingRank) {
  // 2 hosts x 2 containers x 2 ranks, all sharing each host's IPC namespace:
  // the even ranks send a 1 KiB SHM eager message to every co-resident peer,
  // the odd ranks only receive.
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
    p.sync_time();  // every send has been staged; no message follows
    segments[static_cast<std::size_t>(me)] = p.os().host().shm().segment_count();
  });
  EXPECT_GE(result.profile.total.channel_ops(ChannelKind::Shm), 12u);
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Hca), 0u);
  for (int r = 0; r < kRanks; ++r) {
    // Each rank hears from the co-resident even ranks other than itself.
    EXPECT_EQ(received[static_cast<std::size_t>(r)], r % 2 == 0 ? 1 : 2) << "rank " << r;
    // Two sending ranks per host, plus the host's container locality list.
    EXPECT_EQ(segments[static_cast<std::size_t>(r)], 3u) << "rank " << r;
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
      Error);
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
      EXPECT_NE(what.find("rank 2 waits in recv("), std::string::npos) << what;
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
      } catch (const Error& e) {
        const std::string what = e.what();
        const std::string expected =
            "message truncation: rank 0 recv(source=1, tag=9, comm=0) got " +
            std::to_string(bytes) + " bytes into a 16-byte buffer";
        EXPECT_NE(what.find(expected), std::string::npos) << what;
      }
    }
  }
}

TEST(RankEngine, ArrivalOrderCompletionLeavesOnlyUnmatchedReceivesPosted) {
  // Rank 0 completes receives A and B in arrival order while C stays posted.
  // Whether A completes or throws on truncation, C must be the oldest posted
  // receive afterwards: no matched receive lingers in the posted queue.
  for (const std::size_t first_bytes : {4u, 16u}) {
    run_job(two_rank_native(), [&](mpi::Process& p) {
      auto& world = p.world();
      if (p.rank() == 1) {
        const std::vector<std::byte> out(16);
        for (const auto& [bytes, tag] : {std::pair{first_bytes, 1}, {4, 2}, {4, 3}})
          world.send(std::span<const std::byte>(out.data(), bytes), 0, tag);
        return;
      }
      auto& engine = world.engine();
      std::array<std::array<std::byte, 4>, 3> in{};
      std::vector<mpi::Request> recvs;
      for (int tag = 1; tag <= 3; ++tag)
        recvs.push_back(engine.post_recv(in[static_cast<std::size_t>(tag - 1)], 1, tag,
                                         world.id(), /*immediate=*/false));
      bool truncated = false;
      try {
        engine.complete_in_arrival_order(std::span(recvs).first(2));
      } catch (const Error&) {
        truncated = true;
      }
      EXPECT_EQ(truncated, first_bytes > 4);
      EXPECT_EQ(engine.oldest_posted(), recvs[2].get());
      engine.wait(recvs[2]);
      EXPECT_EQ(engine.oldest_posted(), nullptr);
    });
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
