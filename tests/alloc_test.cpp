// Allocation budget of the eager message path, and hygiene of the recycled
// request states behind it.
//
// This binary replaces the global operator new with a counting one, so it
// is its own executable. Each block carries a 16-byte header naming the
// thread that allocated it, so operator delete also counts the blocks freed
// on another thread. The counts are taken over whole jobs of two lengths;
// the difference divided by the extra messages is the steady-state cost of
// one message, free of job setup.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "mpi/runtime.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_remote_frees{0};

/// One per thread; its address names the calling thread.
thread_local const char t_thread_tag = 0;

/// Sits in front of every block; 16 bytes keep the block 16-byte aligned.
struct alignas(16) Header {
  const void* thread;
};
static_assert(sizeof(Header) == 16);

void free_with_header(void* block) noexcept {
  if (block == nullptr) return;
  auto* header = static_cast<Header*>(block) - 1;
  if (header->thread != &t_thread_tag)
    g_remote_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(header);
}
}  // namespace

// None of the three is inlined: gcc would otherwise see malloc() or free()
// at a call site and warn of a mismatched new/delete pair.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* raw = std::malloc(sizeof(Header) + bytes)) {
    auto* header = static_cast<Header*>(raw);
    header->thread = &t_thread_tag;
    return header + 1;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept { free_with_header(block); }
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  free_with_header(block);
}

namespace cbmpi {
namespace {

using container::DeploymentSpec;
using mpi::JobConfig;
using mpi::run_job;

constexpr std::size_t kEagerBytes = 1024;
/// Above every channel's eager threshold.
constexpr std::size_t kRndvBytes = 256 * 1024;

/// Heap allocations, and blocks freed off their allocating thread, of one job.
struct HeapCounts {
  std::uint64_t allocations = 0;
  std::uint64_t remote_frees = 0;
};

/// The heap counts of a job whose two ranks exchange `iters` messages of
/// `bytes` each way with sendrecv.
HeapCounts sendrecv_job_counts(const DeploymentSpec& deployment, std::size_t bytes,
                               int iters) {
  JobConfig config;
  config.deployment = deployment;
  const HeapCounts before{g_allocations.load(), g_remote_frees.load()};
  run_job(config, [bytes, iters](mpi::Process& p) {
    std::vector<std::byte> out(bytes, std::byte{1});
    std::vector<std::byte> in(bytes);
    const int peer = 1 - p.rank();
    for (int i = 0; i < iters; ++i)
      p.world().sendrecv(std::span<const std::byte>(out), peer, std::span<std::byte>(in),
                         peer, 3);
  });
  return {g_allocations.load() - before.allocations,
          g_remote_frees.load() - before.remote_frees};
}

/// Steady-state heap counts per message: two job lengths, so job setup and
/// the warm-up of every recycled buffer cancel out.
struct PerMessage {
  double allocations = 0.0;
  double remote_frees = 0.0;
};

PerMessage per_message(const DeploymentSpec& deployment,
                       std::size_t bytes = kEagerBytes) {
  constexpr int kShort = 1000;
  constexpr int kLong = 3000;
  const auto short_job = sendrecv_job_counts(deployment, bytes, kShort);
  const auto long_job = sendrecv_job_counts(deployment, bytes, kLong);
  const double messages = 2.0 * (kLong - kShort);  // both ranks send each round
  const auto delta = [messages](std::uint64_t long_count, std::uint64_t short_count) {
    return (static_cast<double>(long_count) - static_cast<double>(short_count)) /
           messages;
  };
  return {delta(long_job.allocations, short_job.allocations),
          delta(long_job.remote_frees, short_job.remote_frees)};
}

// The one allocation left is the message block, header and payload: request
// states come from the worker's recycled blocks and a matched message moves
// into its request.
TEST(AllocCount, ShmEagerMessageAllocatesOnlyItsPayload) {
  const double allocations = per_message(DeploymentSpec::native_hosts(1, 2)).allocations;
  RecordProperty("allocations_per_message", std::to_string(allocations));
  EXPECT_LE(allocations, 1.0);
}

TEST(AllocCount, HcaEagerMessageAllocatesOnlyItsPayload) {
  const double allocations = per_message(DeploymentSpec::native_hosts(2, 1)).allocations;
  RecordProperty("allocations_per_message", std::to_string(allocations));
  EXPECT_LE(allocations, 1.0);
}

// A rendezvous message allocates its shared RndvState and its header-only
// RTS block, over CMA (one host) and over the HCA (two hosts).
TEST(AllocCount, RendezvousMessageAllocatesItsStateAndHeader) {
  const std::pair<const char*, DeploymentSpec> pairs[] = {
      {"cma", DeploymentSpec::native_hosts(1, 2)},
      {"hca", DeploymentSpec::native_hosts(2, 1)}};
  for (const auto& [channel, deployment] : pairs) {
    const double allocations = per_message(deployment, kRndvBytes).allocations;
    RecordProperty(std::string(channel) + "_allocations_per_message",
                   std::to_string(allocations));
    EXPECT_LE(allocations, 2.0) << channel;
  }
}

// The two ranks run on two workers, so each payload is received on the
// thread that did not allocate it; the receiver hands it back to the
// sender's home and the sender frees it. What a job leaves in the homes at
// its end is freed off its thread, but that is a few blocks per job, the
// same for both lengths, hence the margin below one block in a hundred
// messages (a shared heap frees about one per message here).
TEST(AllocCount, EagerPayloadIsFreedByItsAllocatingThread) {
  if (std::thread::hardware_concurrency() < 2)
    GTEST_SKIP() << "two ranks share one worker on a single hardware thread";
  const std::pair<const char*, DeploymentSpec> pairs[] = {
      {"shm", DeploymentSpec::native_hosts(1, 2)},
      {"hca", DeploymentSpec::native_hosts(2, 1)}};
  for (const auto& [channel, deployment] : pairs) {
    const auto counts = per_message(deployment);
    RecordProperty(std::string(channel) + "_remote_frees_per_message",
                   std::to_string(counts.remote_frees));
    EXPECT_LT(counts.remote_frees, 0.01) << channel;
  }
}

/// Steady-state heap allocations per rank per call of a 1 KiB spread
/// alltoall, or ring allgather, over `ranks` ranks on four hosts (SHM eager
/// inside a host, HCA eager across), from two job lengths.
double allocations_per_rank_call(int ranks, coll::Coll coll) {
  constexpr int kShort = 20;
  constexpr int kLong = 60;
  const auto job_allocations = [ranks, coll](int calls) {
    JobConfig config;
    config.deployment = DeploymentSpec::native_hosts(4, ranks / 4);
    config.coll_tuning.add({.coll = coll,
                            .algo = coll == coll::Coll::Alltoall ? coll::Algo::Spread
                                                                 : coll::Algo::Ring});
    const std::uint64_t before = g_allocations.load();
    run_job(config, [calls, coll](mpi::Process& p) {
      const std::vector<std::byte> out(kEagerBytes * static_cast<std::size_t>(p.size()));
      std::vector<std::byte> in(out.size());
      for (int i = 0; i < calls; ++i)
        if (coll == coll::Coll::Alltoall)
          p.world().alltoall(std::span<const std::byte>(out), std::span<std::byte>(in));
        else
          p.world().allgather(std::span<const std::byte>(out).first(kEagerBytes),
                              std::span<std::byte>(in));
    });
    return g_allocations.load() - before;
  };
  const auto short_job = job_allocations(kShort);
  const auto long_job = job_allocations(kLong);
  return (static_cast<double>(long_job) - static_cast<double>(short_job)) /
         (static_cast<double>(ranks) * (kLong - kShort));
}

// The spread alltoall sends no message: each rank publishes its blocks in
// its slot of the communicator's exchange, reused from call to call, so a
// call costs no allocation per peer (one message per block cost 3(n-1)).
TEST(AllocCount, SpreadAlltoallAllocationsDoNotGrowWithRanks) {
  const double at8 = allocations_per_rank_call(8, coll::Coll::Alltoall);
  const double at32 = allocations_per_rank_call(32, coll::Coll::Alltoall);
  RecordProperty("allocations_per_rank_call_8", std::to_string(at8));
  RecordProperty("allocations_per_rank_call_32", std::to_string(at32));
  EXPECT_LE(at32, at8 + 0.25);
  EXPECT_LE(at8, 1.0);
}

// The ring allgather is a step exchange on the same slots: no message per
// step (one cost 3 allocations per step, n-1 steps per call).
TEST(AllocCount, RingAllgatherAllocationsDoNotGrowWithRanks) {
  const double at8 = allocations_per_rank_call(8, coll::Coll::Allgather);
  const double at32 = allocations_per_rank_call(32, coll::Coll::Allgather);
  RecordProperty("allocations_per_rank_call_8", std::to_string(at8));
  RecordProperty("allocations_per_rank_call_32", std::to_string(at32));
  EXPECT_LE(at32, at8 + 0.25);
  EXPECT_LE(at8, 1.0);
}

/// Runs `body` on an SHM pair (one host) and on an HCA pair (two hosts).
template <typename Body>
void on_both_pairs(const Body& body) {
  for (const auto& deployment :
       {DeploymentSpec::native_hosts(1, 2), DeploymentSpec::native_hosts(2, 1)}) {
    JobConfig config;
    config.deployment = deployment;
    run_job(config, body);
  }
}

// Requests of every kind follow each other on one pair, so each new request
// reuses the block of one just released: eager and rendezvous sends,
// specific and wildcard receives, a receive that fails on truncation and an
// alltoall. Every status and completion must be the one of its own message.
TEST(RequestPool, RecycledRequestsInheritNoState) {
  on_both_pairs([](mpi::Process& p) {
    auto& comm = p.world();
    const int peer = 1 - p.rank();
    constexpr std::size_t kEager = 256;
    constexpr std::size_t kRndv = 256 * 1024;  // above every eager threshold
    for (int round = 0; round < 24; ++round) {
      const int tag = 10 + round;
      const auto fill = static_cast<std::byte>(round + 1);
      switch (round % 4) {
        case 0:
        case 1: {  // eager, then rendezvous; every other pair by wildcard
          const std::size_t bytes = round % 4 == 0 ? kEager : kRndv;
          if (p.rank() == 0) {
            std::vector<std::byte> data(bytes, fill);
            const auto send = comm.isend(std::span<const std::byte>(data), peer, tag);
            comm.wait(send);
            EXPECT_TRUE(send->complete);
          } else {
            std::vector<std::byte> data(bytes + 8);
            const int src = (round / 4) % 2 == 1 ? mpi::kAnySource : peer;
            const auto recv = comm.irecv(std::span<std::byte>(data), src, tag);
            const auto status = comm.wait(recv);
            EXPECT_TRUE(recv->complete);
            EXPECT_EQ(status.source, peer);
            EXPECT_EQ(status.tag, tag);
            EXPECT_EQ(status.bytes, bytes);
            EXPECT_EQ(data[0], fill);
            EXPECT_EQ(data[bytes - 1], fill);
            EXPECT_EQ(data[bytes], std::byte{0});
          }
          break;
        }
        case 2: {  // a truncated receive, caught
          if (p.rank() == 0) {
            std::vector<std::byte> data(kEager, fill);
            comm.send(std::span<const std::byte>(data), peer, tag);
          } else {
            // irecv itself completes (and throws) if the message is already in.
            std::vector<std::byte> small(16);
            bool truncated = false;
            try {
              comm.recv(std::span<std::byte>(small), peer, tag);
            } catch (const Error&) {
              truncated = true;
            }
            EXPECT_TRUE(truncated);
          }
          break;
        }
        case 3: {  // both directions at once, then an alltoall
          std::vector<int> out(64, round * 100 + p.rank());
          std::vector<int> in(64, -1);
          comm.sendrecv(std::span<const int>(out), peer, std::span<int>(in), peer, tag);
          EXPECT_EQ(in.front(), round * 100 + peer);
          // Block j of rank r holds round * 10 + r * 2 + j.
          const int me = p.rank();
          std::vector<int> a2a_out{round * 10 + me * 2, round * 10 + me * 2 + 1};
          std::vector<int> a2a_in(2, -1);
          comm.alltoall(std::span<const int>(a2a_out), std::span<int>(a2a_in));
          EXPECT_EQ(a2a_in[static_cast<std::size_t>(peer)], round * 10 + peer * 2 + me);
          EXPECT_EQ(a2a_in[static_cast<std::size_t>(me)], round * 10 + me * 3);
          break;
        }
      }
    }
  });
}

// A finished alltoall leaves nothing behind for the deadlock report: the
// deadlock at the end names the receive each rank is really stuck in, not
// the alltoall.
TEST(RequestPool, CompletedReceivesLeaveThePostedQueue) {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 2);
  try {
    run_job(config, [](mpi::Process& p) {
      for (int round = 0; round < 3; ++round) {
        std::vector<int> out{round, round};
        std::vector<int> in(2);
        p.world().alltoall(std::span<const int>(out), std::span<int>(in));
      }
      (void)p.world().recv_value<int>(1 - p.rank(), 999);
    });
    ADD_FAILURE() << "expected a DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0 waits in recv(source=1, tag=999, comm=0)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1 waits in recv(source=0, tag=999, comm=0)"),
              std::string::npos)
        << what;
  }
}

// A request that outlives its job is released on the calling thread, off
// every worker, after the workers freed their block lists.
TEST(RequestPool, RequestKeptPastRunJobIsFreedSafely) {
  std::vector<mpi::Request> kept(4);
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 2);
  run_job(config, [&kept](mpi::Process& p) {
    auto& comm = p.world();
    const int peer = 1 - p.rank();
    std::vector<int> out(32, p.rank() + 1);
    std::vector<int> in(32);
    auto recv = comm.irecv(std::span<int>(in), peer, 1);
    auto send = comm.isend(std::span<const int>(out), peer, 1);
    comm.wait(recv);
    comm.wait(send);
    kept[static_cast<std::size_t>(2 * p.rank())] = std::move(recv);
    kept[static_cast<std::size_t>(2 * p.rank() + 1)] = std::move(send);
  });
  for (int rank = 0; rank < 2; ++rank) {
    const auto& recv = kept[static_cast<std::size_t>(2 * rank)];
    ASSERT_NE(recv, nullptr);
    EXPECT_TRUE(recv->complete);
    EXPECT_EQ(recv->status.source, 1 - rank);
    EXPECT_EQ(recv->status.bytes, 32 * sizeof(int));
    EXPECT_TRUE(kept[static_cast<std::size_t>(2 * rank + 1)]->complete);
  }
  kept.clear();
}

}  // namespace
}  // namespace cbmpi
