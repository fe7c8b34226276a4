// Tests for passive-target RMA (lock/unlock), one-sided atomics
// (fetch_and_add, compare_and_swap), and the request-set / probe additions.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>

#include "mpi/runtime.hpp"
#include "mpi/window.hpp"

namespace cbmpi {
namespace {

using container::DeploymentSpec;
using fabric::LocalityPolicy;
using mpi::JobConfig;
using mpi::LockKind;

JobConfig cfg(int ranks = 4) {
  JobConfig config;
  config.deployment = DeploymentSpec::containers(1, 2, ranks);
  config.policy = LocalityPolicy::ContainerAware;
  return config;
}

TEST(RmaPassive, LockPutUnlockVisibleAfterBarrier) {
  mpi::run_job(cfg(2), [](mpi::Process& p) {
    std::vector<std::int64_t> memory(8, 0);
    mpi::Window<std::int64_t> window(p.world(), std::span<std::int64_t>(memory));
    if (p.rank() == 0) {
      window.lock(LockKind::Exclusive, 1);
      const std::int64_t v = 99;
      window.put(std::span<const std::int64_t>(&v, 1), 1, 3);
      window.unlock(1);
    }
    p.world().barrier();
    if (p.rank() == 1) {
      EXPECT_EQ(memory[3], 99);
    }
    p.world().barrier();
  });
}

TEST(RmaPassive, DoubleLockThrows) {
  EXPECT_THROW(mpi::run_job(cfg(2),
                            [](mpi::Process& p) {
                              std::vector<int> memory(4);
                              mpi::Window<int> window(p.world(),
                                                      std::span<int>(memory));
                              if (p.rank() == 0) {
                                window.lock(LockKind::Shared, 1);
                                window.lock(LockKind::Shared, 1);
                              } else {
                                p.world().barrier();
                              }
                            }),
               Error);
}

TEST(RmaPassive, UnlockWithoutLockThrows) {
  EXPECT_THROW(mpi::run_job(cfg(2),
                            [](mpi::Process& p) {
                              std::vector<int> memory(4);
                              mpi::Window<int> window(p.world(),
                                                      std::span<int>(memory));
                              if (p.rank() == 0)
                                window.unlock(1);
                              else
                                p.world().barrier();
                            }),
               Error);
}

TEST(RmaPassive, ExclusiveEpochsSerializeReadModifyWrite) {
  // A non-atomic get/put increment is safe only inside an exclusive epoch:
  // any overlap of two epochs would lose an update.
  mpi::run_job(cfg(4), [](mpi::Process& p) {
    std::vector<std::int64_t> memory(1, 0);
    mpi::Window<std::int64_t> window(p.world(), std::span<std::int64_t>(memory));
    for (int round = 0; round < 25; ++round) {
      window.lock(LockKind::Exclusive, 0);
      std::int64_t value = 0;
      window.get(std::span<std::int64_t>(&value, 1), 0, 0);
      window.flush(0);
      ++value;
      window.put(std::span<const std::int64_t>(&value, 1), 0, 0);
      window.unlock(0);
    }
    p.world().barrier();
    if (p.rank() == 0) {
      EXPECT_EQ(memory[0], 100);
    }
    p.world().barrier();
  });
}

TEST(RmaPassive, SharedEpochsOverlap) {
  // Ranks 1 and 2 pass a token back and forth while both hold a shared
  // epoch on target 0; if shared epochs excluded each other this would
  // deadlock, so a watchdog turns a hang into a failure.
  auto job = std::async(std::launch::async, [] {
    mpi::run_job(cfg(4), [](mpi::Process& p) {
      std::vector<int> memory(1, 7);
      mpi::Window<int> window(p.world(), std::span<int>(memory));
      if (p.rank() == 1 || p.rank() == 2) {
        const int peer = 3 - p.rank();
        window.lock(LockKind::Shared, 0);
        for (int hop = 0; hop < 6; ++hop) {
          if ((hop % 2 == 0) == (p.rank() == 1))
            p.world().send_value<int>(hop, peer);
          else
            EXPECT_EQ(p.world().recv_value<int>(peer), hop);
        }
        int value = 0;
        window.get(std::span<int>(&value, 1), 0, 0);
        window.unlock(0);
        EXPECT_EQ(value, 7);
      }
      p.world().barrier();
    });
  });
  if (job.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    std::fprintf(stderr, "shared epochs on one target did not overlap\n");
    std::_Exit(1);
  }
  job.get();
}

TEST(RmaAtomics, FetchAndAddIsGloballyAtomic) {
  mpi::run_job(cfg(4), [](mpi::Process& p) {
    std::vector<std::int64_t> memory(2, 0);
    mpi::Window<std::int64_t> window(p.world(), std::span<std::int64_t>(memory));
    window.fence();
    // Every rank increments a shared counter on rank 0 many times; the set
    // of fetched "before" values must be exactly {0..4*25-1} with no dupes.
    std::vector<std::int64_t> fetched;
    for (int i = 0; i < 25; ++i) fetched.push_back(window.fetch_and_add(0, 1, 1));
    window.fence();
    if (p.rank() == 0) {
      EXPECT_EQ(memory[1], 100);
    }
    // Local monotonicity of my own fetches.
    for (std::size_t i = 1; i < fetched.size(); ++i)
      EXPECT_GT(fetched[i], fetched[i - 1]);
    // Global uniqueness: gather all fetched values.
    std::vector<std::int64_t> all(100);
    p.world().allgather(std::span<const std::int64_t>(fetched),
                        std::span<std::int64_t>(all));
    std::sort(all.begin(), all.end());
    for (std::int64_t k = 0; k < 100; ++k)
      EXPECT_EQ(all[static_cast<std::size_t>(k)], k) << "duplicate or gap";
    window.fence();
  });
}

TEST(RmaAtomics, CompareAndSwapElectsOneWinner) {
  mpi::run_job(cfg(4), [](mpi::Process& p) {
    std::vector<std::int32_t> memory(1, -1);
    mpi::Window<std::int32_t> window(p.world(), std::span<std::int32_t>(memory));
    window.fence();
    const std::int32_t before = window.compare_and_swap(0, 0, -1, p.rank());
    const int won = before == -1 ? 1 : 0;
    window.fence();
    const auto winners = p.world().allreduce_value(won, mpi::ReduceOp::Sum);
    EXPECT_EQ(winners, 1) << "exactly one rank must win the election";
    if (p.rank() == 0) {
      EXPECT_GE(memory[0], 0);
      EXPECT_LT(memory[0], 4);
    }
    window.fence();
  });
}

TEST(RequestSets, WaitAnyReturnsACompletedIndex) {
  mpi::run_job(cfg(2), [](mpi::Process& p) {
    if (p.rank() == 0) {
      p.compute(5000.0);  // delay so receiver genuinely waits
      p.world().send_value<int>(7, 1, 2);
    } else {
      int a = 0, b = 0;
      std::vector<mpi::Request> reqs;
      reqs.push_back(p.world().irecv(std::span<int>(&a, 1), 0, 1));  // never sent
      reqs.push_back(p.world().irecv(std::span<int>(&b, 1), 0, 2));
      const std::size_t index = p.world().wait_any(reqs);
      EXPECT_EQ(index, 1u);
      EXPECT_EQ(b, 7);
      p.world().cancel(reqs[0]);
    }
  });
}

TEST(RequestSets, TestAllAndTestAny) {
  mpi::run_job(cfg(2), [](mpi::Process& p) {
    if (p.rank() == 0) {
      p.world().send_value<int>(1, 1, 11);
      p.world().send_value<int>(2, 1, 12);
      p.world().barrier();
    } else {
      int a = 0, b = 0;
      std::vector<mpi::Request> reqs;
      reqs.push_back(p.world().irecv(std::span<int>(&a, 1), 0, 11));
      reqs.push_back(p.world().irecv(std::span<int>(&b, 1), 0, 12));
      p.world().barrier();  // both messages now delivered
      EXPECT_TRUE(p.world().test_any(reqs).has_value());
      EXPECT_TRUE(p.world().test_all(reqs));
      EXPECT_EQ(a + b, 3);
    }
  });
}

TEST(RequestSets, BlockingProbeWaitsForMessage) {
  mpi::run_job(cfg(2), [](mpi::Process& p) {
    if (p.rank() == 0) {
      p.compute(2000.0);
      std::vector<double> payload(37, 1.5);
      p.world().send(std::span<const double>(payload), 1, 8);
    } else {
      const auto status = p.world().probe(0, 8);
      EXPECT_EQ(status.source, 0);
      EXPECT_EQ(status.count<double>(), 37u);
      // Size the receive from the probe, like real MPI code does.
      std::vector<double> payload(status.count<double>());
      p.world().recv(std::span<double>(payload), 0, 8);
      EXPECT_DOUBLE_EQ(payload[36], 1.5);
    }
  });
}

}  // namespace
}  // namespace cbmpi
