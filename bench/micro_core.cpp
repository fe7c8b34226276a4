// google-benchmark microbenchmarks of core primitives, including JSON number
// and Perfetto emission and the DESIGN.md ablation: the paper's lock-free
// byte-list locality detector vs a lock-based alternative.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/graph500/kronecker.hpp"
#include "container/engine.hpp"
#include "mpi/fiber.hpp"
#include "mpi/locality.hpp"
#include "mpi/matcher.hpp"
#include "mpi/runtime.hpp"
#include "net/fabric.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "osl/machine.hpp"

namespace {

using namespace cbmpi;

/// One message of `home` from `src` with tag `tag` on communicator 0.
fabric::MessagePtr make_message(fabric::PayloadHome& home, int src, int tag) {
  fabric::MessagePtr message = home.allocate(0);
  message->env.src = src;
  message->env.dst = 0;
  message->env.tag = tag;
  message->env.comm_id = 0;
  return message;
}

// One message block goes round: delivered, matched, delivered again.
void BM_MatcherDeliverAndMatch(benchmark::State& state) {
  fabric::PayloadHome home;
  mpi::Matcher matcher;
  fabric::MessagePtr message = make_message(home, 1, 3);
  for (auto _ : state) {
    matcher.deliver(std::move(message));
    message = matcher.try_match(1, 3, 0);
    benchmark::DoNotOptimize(message.get());
  }
}
BENCHMARK(BM_MatcherDeliverAndMatch);

void BM_MatcherWildcardScan(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  fabric::PayloadHome home;
  mpi::Matcher matcher;
  // Tag 99 is never matched below.
  for (int i = 0; i < depth; ++i) matcher.deliver(make_message(home, i % 7, 99));
  for (auto _ : state) {
    auto matched = matcher.try_match(mpi::kAnySource, 3, 0);
    benchmark::DoNotOptimize(matched.get());
  }
}
BENCHMARK(BM_MatcherWildcardScan)->Arg(4)->Arg(64)->Arg(512);

// One pending message from each of Arg sources; a specific-source receive
// takes the last source's message and the sender re-delivers it, so the
// queue keeps its shape. Per-source bins cost a binary search here where a
// single queue scans every message.
void BM_MatcherManySources(benchmark::State& state) {
  const auto sources = static_cast<int>(state.range(0));
  fabric::PayloadHome home;
  mpi::Matcher matcher;
  for (int src = 0; src < sources; ++src) matcher.deliver(make_message(home, src, 3));
  for (auto _ : state) {
    auto matched = matcher.try_match(sources - 1, 3, 0);
    benchmark::DoNotOptimize(matched.get());
    matcher.deliver(std::move(matched));
  }
}
BENCHMARK(BM_MatcherManySources)->Arg(64)->Arg(1024);

// One sender thread allocates 64-byte messages from its own home and
// delivers them, at most kWindow in flight; the owner takes each one from
// the inbox and drops it, so its block goes back through the home's return
// stack. One iteration is one message across threads.
void BM_MatcherCrossThreadDeliver(benchmark::State& state) {
  constexpr int kWindow = 64;
  fabric::PayloadHome home;
  mpi::Matcher matcher;
  std::atomic<int> credits{kWindow};
  std::atomic<bool> stop{false};
  std::thread sender([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (credits.load(std::memory_order_acquire) == 0) {
        std::this_thread::yield();
        continue;
      }
      credits.fetch_sub(1, std::memory_order_relaxed);
      fabric::MessagePtr message = home.allocate(64);
      message->env.src = 1;
      message->env.tag = 3;
      matcher.deliver(std::move(message));
    }
  });
  for (auto _ : state) {
    fabric::MessagePtr message;
    while (message == nullptr) message = matcher.try_match(1, 3, 0);
    benchmark::DoNotOptimize(message.get());
    message.reset();
    credits.fetch_add(1, std::memory_order_release);
  }
  stop.store(true);
  sender.join();
}
BENCHMARK(BM_MatcherCrossThreadDeliver)->UseRealTime();

// Park/wake round trip of the rank engine. Arg 1: one rank parks and its own
// publish hook wakes it, so the round trip stays on one worker. Arg 2: two
// ranks on two workers ping-pong through their matchers, the path
// Adi3Engine::block_until takes; one iteration is a full 0 -> 1 -> 0 trip.
void BM_FiberHandoff(benchmark::State& state) {
  const auto nranks = static_cast<int>(state.range(0));
  std::array<mpi::Matcher, 2> matchers;
  std::atomic<bool> done{false};
  auto wait_past = [&](mpi::Matcher& matcher, std::uint64_t seen) {
    while (matcher.version() == seen)
      mpi::RankScheduler::park(
          [&](mpi::Fiber* self) { return matcher.park_past(seen, self); });
  };
  mpi::RankScheduler scheduler([] { std::abort(); });
  scheduler.run(nranks, [&](int rank) {
    if (nranks == 1) {
      for (auto _ : state)
        mpi::RankScheduler::park([](mpi::Fiber* self) {
          mpi::RankScheduler::wake(self);
          return true;
        });
    } else if (rank == 0) {
      for (auto _ : state) {
        const std::uint64_t seen = matchers[0].version();
        matchers[1].poke();
        wait_past(matchers[0], seen);
      }
      done.store(true);
      matchers[1].poke();
    } else {
      std::uint64_t seen = 0;
      while (true) {
        wait_past(matchers[1], seen);
        seen = matchers[1].version();  // before the poke: rank 0 waits for it
        if (done.load()) return;
        matchers[0].poke();
      }
    }
  });
}
BENCHMARK(BM_FiberHandoff)->Arg(1)->Arg(2);

// Host cost of one eager message: two ranks run a 1 KiB sendrecv loop
// through run_job. Arg 1: both ranks on one host (SHM); Arg 2: one rank per
// host (HCA). With two hardware threads the ranks sit on two workers, so
// every payload is received off the thread that allocated it. ns_per_msg is
// wall time over both ranks' sends, job setup included.
void BM_EagerSendrecv(benchmark::State& state) {
  constexpr int kRounds = 5000;
  constexpr std::size_t kBytes = 1024;
  const auto hosts = static_cast<int>(state.range(0));
  mpi::JobConfig config;
  config.deployment = container::DeploymentSpec::native_hosts(hosts, 2 / hosts);
  std::int64_t wall_ns = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    mpi::run_job(config, [](mpi::Process& p) {
      std::vector<std::byte> out(kBytes, std::byte{1});
      std::vector<std::byte> in(kBytes);
      const int peer = 1 - p.rank();
      for (int i = 0; i < kRounds; ++i)
        p.world().sendrecv(std::span<const std::byte>(out), peer,
                           std::span<std::byte>(in), peer, 3);
    });
    wall_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }
  state.counters["ns_per_msg"] =
      static_cast<double>(wall_ns) /
      (static_cast<double>(state.iterations()) * 2.0 * kRounds);
}
BENCHMARK(BM_EagerSendrecv)->Arg(1)->Arg(2)->UseRealTime()->Unit(benchmark::kMillisecond);

// Host cost of the spread alltoall: Arg ranks on four hosts run 1 KiB
// alltoalls through run_job (SHM eager inside a host, HCA eager across).
// ns_per_block is wall time over every rank's n-1 outgoing blocks, job setup
// included.
void BM_AlltoallSpread(benchmark::State& state) {
  constexpr int kCalls = 50;
  constexpr std::size_t kBytes = 1024;
  const auto ranks = static_cast<int>(state.range(0));
  mpi::JobConfig config;
  config.deployment = container::DeploymentSpec::native_hosts(4, ranks / 4);
  config.coll_tuning.add({.coll = coll::Coll::Alltoall, .algo = coll::Algo::Spread});
  std::int64_t wall_ns = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    mpi::run_job(config, [](mpi::Process& p) {
      const std::vector<std::byte> out(kBytes * static_cast<std::size_t>(p.size()),
                                       std::byte{1});
      std::vector<std::byte> in(out.size());
      for (int i = 0; i < kCalls; ++i)
        p.world().alltoall(std::span<const std::byte>(out), std::span<std::byte>(in));
    });
    wall_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }
  state.counters["ns_per_block"] =
      static_cast<double>(wall_ns) / (static_cast<double>(state.iterations()) * kCalls *
                                      ranks * (ranks - 1));
}
BENCHMARK(BM_AlltoallSpread)
    ->Arg(16)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Host cost of the ring allgather, a step exchange on the same slots: 64
// ranks on four hosts run 1 KiB allgathers through run_job. ns_per_step is
// wall time over every rank's n-1 steps, job setup included.
void BM_AllgatherRing(benchmark::State& state) {
  constexpr int kCalls = 50;
  constexpr std::size_t kBytes = 1024;
  const auto ranks = static_cast<int>(state.range(0));
  mpi::JobConfig config;
  config.deployment = container::DeploymentSpec::native_hosts(4, ranks / 4);
  config.coll_tuning.add({.coll = coll::Coll::Allgather, .algo = coll::Algo::Ring});
  std::int64_t wall_ns = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    mpi::run_job(config, [](mpi::Process& p) {
      const std::vector<std::byte> mine(kBytes, std::byte{1});
      std::vector<std::byte> all(kBytes * static_cast<std::size_t>(p.size()));
      for (int i = 0; i < kCalls; ++i)
        p.world().allgather(std::span<const std::byte>(mine), std::span<std::byte>(all));
    });
    wall_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }
  state.counters["ns_per_step"] =
      static_cast<double>(wall_ns) / (static_cast<double>(state.iterations()) * kCalls *
                                      ranks * (ranks - 1));
}
BENCHMARK(BM_AllgatherRing)->Arg(64)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ShmByteStoreLoad(benchmark::State& state) {
  osl::ShmSegment segment(4096);
  Bytes i = 0;
  for (auto _ : state) {
    segment.store_byte(i % 4096, 1);
    benchmark::DoNotOptimize(segment.load_byte(i % 4096));
    ++i;
  }
}
BENCHMARK(BM_ShmByteStoreLoad);

// --- detector ablation: byte-list (paper) vs lock-based ---------------------

void BM_DetectorByteList(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  osl::Machine machine(topo::ClusterBuilder().hosts(1).build());
  container::Engine engine(machine);
  container::ContainerSpec spec;
  spec.name = "c";
  auto& cont = engine.run(0, spec);
  auto proc = engine.spawn(cont, 0);
  std::uint64_t tag = 0;
  for (auto _ : state) {
    mpi::ContainerLocalityDetector detector("bm" + std::to_string(tag++), nranks);
    // Only the last rank announces, so the scan for the lowest announced
    // rank reads all nranks bytes.
    detector.announce(*proc, nranks - 1);
    auto key = detector.list_key(*proc);
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_DetectorByteList)->Arg(16)->Arg(256)->Arg(4096);

/// Lock-based alternative the paper's byte-granularity design avoids: a
/// mutex-guarded membership set.
void BM_DetectorLockBased(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::mutex mutex;
    std::vector<std::uint8_t> list(static_cast<std::size_t>(nranks), 0);
    for (int r = 0; r < nranks; ++r) {
      const std::scoped_lock lock(mutex);
      list[static_cast<std::size_t>(r)] = 1;
    }
    std::vector<std::uint8_t> row;
    {
      const std::scoped_lock lock(mutex);
      row = list;
    }
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_DetectorLockBased)->Arg(16)->Arg(256)->Arg(4096);

void BM_KroneckerEdge(benchmark::State& state) {
  const apps::graph500::EdgeListParams params{20, 16, 1};
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto edge = apps::graph500::kronecker_edge(params, i++);
    benchmark::DoNotOptimize(edge);
  }
}
BENCHMARK(BM_KroneckerEdge);

void BM_ShmEagerCostEval(benchmark::State& state) {
  const topo::MachineProfile profile;
  const fabric::ShmChannel shm(profile, fabric::TuningParams{});
  Bytes size = 1;
  for (auto _ : state) {
    auto costs = shm.eager_costs(size, true);
    benchmark::DoNotOptimize(costs);
    size = size % 8192 + 64;
  }
}
BENCHMARK(BM_ShmEagerCostEval);

/// The fabric-contention settle of one record pass, on a flow set shaped
/// like a Fig. 12 job on the fat-tree: fattree:4 with 4 hosts of 8 ranks
/// each, two alltoall rounds of 64 KiB per peer. Every rank posts its
/// inter-host sends one post overhead apart; the second round starts once
/// the first has drained.
void BM_Settle(benchmark::State& state) {
  constexpr int kHosts = 4, kRanksPerHost = 8, kRanks = kHosts * kRanksPerHost;
  const topo::MachineProfile profile;
  const net::Fabric fabric(net::FabricConfig::parse("fattree:4"), profile,
                           std::vector<int>(kHosts, 1));
  const auto& topology = fabric.topology();
  std::vector<double> caps;
  for (int l = 0; l < topology.num_links(); ++l) caps.push_back(topology.link(l).bw);

  std::vector<net::Flow> flows;
  std::vector<std::uint64_t> seq(kRanks, 0);
  for (int round = 0; round < 2; ++round)
    for (int rank = 0; rank < kRanks; ++rank)
      for (int step = 1; step < kRanks; ++step) {
        const int peer = (rank + step) % kRanks;
        const int src = rank / kRanksPerHost, dst = peer / kRanksPerHost;
        if (src == dst) continue;
        net::Flow f;
        f.key = {rank, seq[static_cast<std::size_t>(rank)]++};
        f.path = topology.route(src, dst);
        f.bytes = static_cast<double>(64_KiB);
        f.start = 2500.0 * round + 0.05 * rank +
                  profile.hca_post_overhead * static_cast<double>(step);
        f.rate_cap = fabric.flow_rate_cap(src, dst, false);
        flows.push_back(std::move(f));
      }

  for (auto _ : state) {
    auto settled = net::settle(flows, caps);
    benchmark::DoNotOptimize(settled);
  }
  state.counters["flows"] = static_cast<double>(flows.size());
}
BENCHMARK(BM_Settle)->Unit(benchmark::kMicrosecond);

/// One JSON number on virtual-time-like doubles (log-uniform over 0.1 us to
/// 10 s, so ten significant digits each): the per-timestamp cost of every
/// run report and Perfetto export.
void BM_AppendNumber(benchmark::State& state) {
  std::mt19937_64 rng(8);
  std::uniform_real_distribution<double> log_us(-1.0, 7.0);
  std::vector<double> values(4096);
  for (double& v : values) v = std::pow(10.0, log_us(rng));
  std::string out;
  out.reserve(32 * values.size());
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == values.size()) {
      i = 0;
      out.clear();
    }
    obs::append_number(out, values[i++]);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AppendNumber);

/// to_perfetto over a synthetic ~10k-span job already in canonical order:
/// 64 ranks, each a run of MPI_Send/MPI_Recv calls where every receive
/// carries an eager transfer span and its flow arrow.
void BM_ToPerfetto(benchmark::State& state) {
  constexpr int kRanks = 64, kCallsPerRank = 104;
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<obs::Span> spans;
  for (int r = 0; r < kRanks; ++r) {
    const int peer = r ^ 1;
    Micros t = 0.0;
    for (int call = 0; call < kCallsPerRank; ++call) {
      const Micros dur = 0.5 + 20.0 * unit(rng);
      const bool recv = call % 2 == 1;
      spans.push_back({recv ? "MPI_Recv" : "MPI_Send", obs::SpanCat::Mpi, r, peer, -1,
                       4096, t, t + dur, ""});
      if (recv) {
        obs::Span xfer{"eager", obs::SpanCat::Proto, r, peer, 0, 4096,
                       t + 0.3 * dur, t + dur, ""};
        xfer.xfer = (static_cast<std::int64_t>(peer) << 32) | call;
        xfer.sent_at = t;
        spans.push_back(std::move(xfer));
      }
      t += dur + 5.0 * unit(rng);
    }
  }
  obs::sort_spans(spans);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string doc = obs::to_perfetto(spans, {});
    bytes = doc.size();
    benchmark::DoNotOptimize(doc.data());
  }
  state.counters["spans"] = static_cast<double>(spans.size());
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ToPerfetto)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
