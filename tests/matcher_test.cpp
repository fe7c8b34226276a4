// Matcher tests: the per-source bins against the linear std::deque scan they
// replaced (differential, seeded op streams), per-source FIFO order under
// concurrent delivery into the lock-free inbox, and no lost wake-up while
// senders on other workers deliver to a parking owner (the tsan CI job runs
// this binary).
//
// This binary replaces the global operator new to count message blocks:
// each block carries a 16-byte header holding its size, and blocks of the
// size the concurrent test's messages have are counted on allocation and
// on free.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <new>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mpi/matcher.hpp"

namespace {
/// The payload size of the concurrent test's messages; no other block of
/// this binary has their total size.
constexpr std::size_t kCountedPayload = 1013;
constexpr std::size_t kCountedBlock = sizeof(cbmpi::fabric::Message) + kCountedPayload;
std::atomic<std::uint64_t> g_counted_allocs{0};
std::atomic<std::uint64_t> g_counted_frees{0};

/// Sits in front of every block; 16 bytes keep the block 16-byte aligned.
struct alignas(16) Header {
  std::size_t bytes;
};
static_assert(sizeof(Header) == 16);
}  // namespace

// Neither is inlined: gcc would otherwise see malloc() or free() at a call
// site and warn of a mismatched new/delete pair.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  if (bytes == kCountedBlock) g_counted_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* raw = std::malloc(sizeof(Header) + bytes)) {
    auto* header = static_cast<Header*>(raw);
    header->bytes = bytes;
    return header + 1;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  if (block == nullptr) return;
  auto* header = static_cast<Header*>(block) - 1;
  if (header->bytes == kCountedBlock)
    g_counted_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(header);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  operator delete(block);
}

namespace cbmpi {
namespace {

using fabric::Envelope;
using fabric::MessagePtr;
using mpi::kAnySource;
using mpi::kAnyTag;
using mpi::Request;
using mpi::Status;

namespace oracle {

// The linear std::deque scan that the per-source bins replaced, kept as the
// oracle: the bins must pick the same envelope for every receive. Its
// envelopes are plain copies, so a matched receive comes back paired with
// its envelope.
class DequeMatcher {
 public:
  struct Matched {
    Request request;
    Envelope envelope;
  };

  void deliver(Envelope envelope) { unexpected_.push_back(std::move(envelope)); }

  std::optional<Envelope> try_match(int src_world, int tag, std::uint64_t comm_id) {
    const auto it = find_locked(src_world, tag, comm_id);
    if (it == unexpected_.end()) return std::nullopt;
    Envelope env = std::move(*it);
    unexpected_.erase(it);
    return env;
  }

  std::size_t match_posted(std::vector<Request>& posted, std::vector<Matched>& matched) {
    const std::size_t before = matched.size();
    auto keep = posted.begin();
    for (auto& request : posted) {
      const auto it = find_locked(request->src_world, request->tag, request->comm_id);
      if (it == unexpected_.end()) {
        std::swap(*keep++, request);
        continue;
      }
      matched.push_back({std::move(request), std::move(*it)});
      unexpected_.erase(it);
    }
    posted.erase(keep, posted.end());
    return matched.size() - before;
  }

  std::optional<Status> peek(int src_world, int tag, std::uint64_t comm_id) const {
    for (const auto& env : unexpected_) {
      if (matches(env, src_world, tag, comm_id)) return Status{env.src, env.tag, env.size};
    }
    return std::nullopt;
  }

  const std::deque<Envelope>& queue() const { return unexpected_; }

 private:
  using Queue = std::deque<Envelope>;

  static bool matches(const Envelope& env, int src_world, int tag, std::uint64_t comm_id) {
    if (env.comm_id != comm_id) return false;
    if (src_world != kAnySource && env.src != src_world) return false;
    if (tag != kAnyTag && env.tag != tag) return false;
    return true;
  }

  Queue::iterator find_locked(int src_world, int tag, std::uint64_t comm_id) {
    auto best = unexpected_.end();
    std::vector<int> seen_sources;
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (!matches(*it, src_world, tag, comm_id)) continue;
      if (src_world != kAnySource) return it;
      if (std::find(seen_sources.begin(), seen_sources.end(), it->src) !=
          seen_sources.end())
        continue;
      seen_sources.push_back(it->src);
      if (best == unexpected_.end() ||
          std::tie(it->available_at, it->src, it->seq) <
              std::tie(best->available_at, best->src, best->seq)) {
        best = it;
      }
    }
    return best;
  }

  Queue unexpected_;
};

}  // namespace oracle

constexpr std::uint64_t kComms = 3;
constexpr int kTags = 4;

/// One seeded stream of deliver/try_match/match_posted/peek calls, applied
/// to the matcher and the oracle in lockstep. Each source's messages come
/// from its own home.
class Stream {
 public:
  Stream(std::uint64_t seed, int sources, double deliver_share)
      : rng_(seed), sources_(sources), deliver_share_(deliver_share),
        next_seq_(static_cast<std::size_t>(sources), 0),
        homes_(static_cast<std::size_t>(sources)) {}

  void step() {
    const double op = rng_.uniform();
    if (op < deliver_share_) {
      deliver();
    } else if (op < deliver_share_ + (1.0 - deliver_share_) * 0.4) {
      try_match();
    } else if (op < deliver_share_ + (1.0 - deliver_share_) * 0.8) {
      match_posted();
    } else {
      peek();
    }
    ASSERT_EQ(matcher_.pending(), oracle_.queue().size());
  }

 private:
  struct Selector {
    int src;
    int tag;
    std::uint64_t comm;
  };

  void deliver() {
    Envelope env;
    env.src = static_cast<int>(rng_.below(static_cast<std::uint64_t>(sources_)));
    env.dst = 0;
    env.tag = static_cast<int>(rng_.below(kTags));
    env.comm_id = rng_.below(kComms);
    env.seq = next_seq_[static_cast<std::size_t>(env.src)]++;
    // Few distinct times, so wildcard receives often see equal available_at.
    env.available_at = static_cast<double>(rng_.below(4)) * 0.5;
    env.size = ids_++;  // unique: peek's Status names the envelope
    MessagePtr message = homes_[static_cast<std::size_t>(env.src)].allocate(0);
    message->env = env;
    oracle_.deliver(env);
    matcher_.deliver(std::move(message));
  }

  /// A receive selector; usually aimed at a pending envelope, so most calls
  /// hit, with kAnySource and kAnyTag mixed in.
  Selector selector() {
    Selector s{static_cast<int>(rng_.below(static_cast<std::uint64_t>(sources_))),
               static_cast<int>(rng_.below(kTags)), rng_.below(kComms)};
    const auto& queue = oracle_.queue();
    if (!queue.empty() && rng_.uniform() < 0.75) {
      const Envelope& target = queue[rng_.below(queue.size())];
      s = {target.src, target.tag, target.comm_id};
    }
    if (rng_.uniform() < 0.35) s.src = kAnySource;
    if (rng_.uniform() < 0.3) s.tag = kAnyTag;
    return s;
  }

  static void expect_same(const Envelope& got, const Envelope& want) {
    EXPECT_EQ(got.src, want.src);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.size, want.size);
  }

  static void expect_same(const MessagePtr& got, const std::optional<Envelope>& want) {
    ASSERT_EQ(got != nullptr, want.has_value());
    if (got) expect_same(got->env, *want);
  }

  void try_match() {
    const Selector s = selector();
    expect_same(matcher_.try_match(s.src, s.tag, s.comm),
                oracle_.try_match(s.src, s.tag, s.comm));
  }

  /// The matcher and the oracle each get their own receives, with equal
  /// selectors; posted_at numbers them.
  void match_posted() {
    std::vector<Request> posted;
    std::vector<Request> oracle_posted;
    const auto n = 1 + rng_.below(5);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Selector s = selector();
      for (auto* list : {&posted, &oracle_posted}) {
        auto request = std::make_shared<mpi::RequestState>();
        request->kind = mpi::RequestState::Kind::Recv;
        request->src_world = s.src;
        request->tag = s.tag;
        request->comm_id = s.comm;
        request->posted_at = static_cast<double>(i);
        list->push_back(std::move(request));
      }
    }
    // Earlier matches stay in front of the ones appended now.
    std::vector<Request> got(1, std::make_shared<mpi::RequestState>());
    std::vector<oracle::DequeMatcher::Matched> want;
    const std::size_t got_n = matcher_.match_posted(posted, got);
    const std::size_t want_n = oracle_.match_posted(oracle_posted, want);
    ASSERT_EQ(got_n, want_n);
    ASSERT_EQ(got.size(), 1 + got_n);
    EXPECT_EQ(got.front()->message, nullptr);
    for (std::size_t i = 0; i < want_n; ++i) {
      const Request& request = got[i + 1];
      EXPECT_EQ(request->posted_at, want[i].request->posted_at);
      ASSERT_NE(request->message, nullptr);
      expect_same(request->message->env, want[i].envelope);
    }
    ASSERT_EQ(posted.size(), oracle_posted.size());
    for (std::size_t i = 0; i < posted.size(); ++i) {
      EXPECT_EQ(posted[i]->posted_at, oracle_posted[i]->posted_at);
      EXPECT_EQ(posted[i]->message, nullptr);
    }
  }

  void peek() {
    const Selector s = selector();
    const auto got = matcher_.peek(s.src, s.tag, s.comm);
    const auto want = oracle_.peek(s.src, s.tag, s.comm);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got) return;
    EXPECT_EQ(got->source, want->source);
    EXPECT_EQ(got->tag, want->tag);
    EXPECT_EQ(got->bytes, want->bytes);
  }

  Xoshiro256 rng_;
  int sources_;
  double deliver_share_;
  std::vector<std::uint64_t> next_seq_;
  Bytes ids_ = 0;
  /// Declared before the matcher, so they outlive the messages it holds.
  std::vector<fabric::PayloadHome> homes_;
  mpi::Matcher matcher_;
  oracle::DequeMatcher oracle_;
};

TEST(MatcherDifferential, BinsPickWhatTheDequeScanPicked) {
  constexpr std::array kSources{1, 3, 17, 256, 1024};
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const int sources = kSources[seed % kSources.size()];
    // Alternate shallow and deep queues.
    Stream stream(seed, sources, seed % 2 == 0 ? 0.5 : 0.62);
    for (int i = 0; i < 3000; ++i) {
      stream.step();
      if (HasFailure()) FAIL() << "seed " << seed << ", " << sources << " sources, step " << i;
    }
  }
}

TEST(MatcherDifferential, DrainedMatcherIsEmptyAndReusable) {
  fabric::PayloadHome home;
  mpi::Matcher matcher;
  for (int round = 0; round < 3; ++round) {
    for (int src = 0; src < 64; ++src) {
      MessagePtr message = home.allocate(0);
      message->env.src = src;
      message->env.seq = static_cast<std::uint64_t>(round);
      matcher.deliver(std::move(message));
    }
    EXPECT_EQ(matcher.pending(), 64u);
    for (int src = 63; src >= 0; --src) {
      const auto message = matcher.try_match(src, kAnyTag, 0);
      ASSERT_NE(message, nullptr);
      EXPECT_EQ(message->env.seq, static_cast<std::uint64_t>(round));
    }
    EXPECT_EQ(matcher.pending(), 0u);
    EXPECT_EQ(matcher.try_match(kAnySource, kAnyTag, 0), nullptr);
    EXPECT_FALSE(matcher.peek(kAnySource, kAnyTag, 0).has_value());
  }
}

// Sender threads, each with its own home, push into one matcher while the
// owner drains it; the owner drops every message, so each block goes back to
// its sender's home, and the homes free them all once the senders joined.
TEST(MatcherConcurrent, PerSourceFifoHoldsUnderConcurrentDelivery) {
  constexpr int kSenders = 4;
  constexpr int kSourcesPerSender = 8;
  constexpr int kPerSource = 500;
  constexpr int kSources = kSenders * kSourcesPerSender;
  const std::uint64_t allocs_before = g_counted_allocs.load();
  const std::uint64_t frees_before = g_counted_frees.load();
  {
    std::vector<fabric::PayloadHome> homes(kSenders);
    mpi::Matcher matcher;
    std::vector<std::thread> senders;
    for (int t = 0; t < kSenders; ++t) {
      senders.emplace_back([&home = homes[static_cast<std::size_t>(t)], &matcher, t] {
        for (int i = 0; i < kPerSource; ++i) {
          for (int k = 0; k < kSourcesPerSender; ++k) {
            MessagePtr message = home.allocate(kCountedPayload);
            Envelope& env = message->env;
            env.src = t * kSourcesPerSender + k;
            env.tag = i % 3;
            env.seq = static_cast<std::uint64_t>(i);
            env.available_at = static_cast<double>(i % 5);
            matcher.deliver(std::move(message));
          }
        }
      });
    }
    // The drain mixes wildcard and specific-source receives; every source's
    // messages must still come out in delivery order.
    std::vector<std::uint64_t> next(kSources, 0);
    int received = 0;
    int round = 0;
    while (received < kSources * kPerSource && !HasFailure()) {
      std::vector<Request> posted;
      for (int i = 0; i < 8; ++i) {
        auto request = std::make_shared<mpi::RequestState>();
        request->kind = mpi::RequestState::Kind::Recv;
        request->src_world = i % 2 == 0 ? kAnySource : (round + i) % kSources;
        request->tag = kAnyTag;
        posted.push_back(std::move(request));
      }
      ++round;
      std::vector<Request> matched;
      if (matcher.match_posted(posted, matched) == 0) std::this_thread::yield();
      for (const auto& request : matched) {
        const Envelope& env = request->message->env;
        if (env.src < 0 || env.src >= kSources) {
          ADD_FAILURE() << "unknown source " << env.src;
          break;
        }
        if (request->src_world != kAnySource) {
          EXPECT_EQ(env.src, request->src_world);
        }
        EXPECT_EQ(env.seq, next[static_cast<std::size_t>(env.src)]++)
            << "source " << env.src << " overtook itself";
        ++received;
      }
    }
    for (auto& sender : senders) sender.join();
    EXPECT_EQ(matcher.pending(), 0u);
    for (auto& home : homes) home.reclaim();
    EXPECT_EQ(g_counted_allocs.load() - allocs_before,
              static_cast<std::uint64_t>(kSources) * kPerSource);
  }
  EXPECT_EQ(g_counted_allocs.load() - allocs_before, g_counted_frees.load() - frees_before)
      << "a message block never went back to its home";
}

// Senders on other workers deliver and poke while the owner drains and
// parks in a loop, the way Adi3Engine::block_until does. Each sender waits
// for the owner to take its last message before it sends the next, so
// nearly every delivery races with the owner parking. A lost wake leaves the
// owner parked and its senders waiting: the run then overruns its wall
// budget, or, if every fiber is parked, the scheduler's deadlock handler
// fires.
TEST(MatcherConcurrent, OwnerParkingInALoopSeesEveryMessage) {
  static constexpr int kSenders = 3;
  static constexpr int kPerSender = 5000;
  constexpr auto kBudget = std::chrono::seconds(60);
  auto run = std::async(std::launch::async, [] {
    std::vector<fabric::PayloadHome> homes(kSenders + 1);
    mpi::Matcher matcher;
    std::atomic<bool> deadlocked{false};
    std::array<std::atomic<int>, kSenders + 1> taken{};
    int parks = 0;
    mpi::RankScheduler scheduler([&] {
      deadlocked.store(true);
      matcher.poke();
    });
    scheduler.run(kSenders + 1, [&](int rank) {
      const auto me = static_cast<std::size_t>(rank);
      if (rank > 0) {
        for (int i = 0; i < kPerSender; ++i) {
          MessagePtr message = homes[me].allocate(0);
          message->env.src = rank;
          message->env.seq = static_cast<std::uint64_t>(i);
          matcher.deliver(std::move(message));
          if (i % 7 == 0) matcher.poke();
          while (taken[me].load() <= i && !deadlocked.load()) mpi::RankScheduler::yield();
        }
        return;
      }
      int received = 0;
      while (received < kSenders * kPerSender && !deadlocked.load()) {
        const std::uint64_t seen = matcher.version();
        while (const auto message = matcher.try_match(kAnySource, kAnyTag, 0)) {
          auto& count = taken[static_cast<std::size_t>(message->env.src)];
          EXPECT_EQ(message->env.seq, static_cast<std::uint64_t>(count.load()));
          count.fetch_add(1);
          ++received;
        }
        if (received == kSenders * kPerSender) break;
        ++parks;
        mpi::RankScheduler::park(
            [&](mpi::Fiber* self) { return matcher.park_past(seen, self); });
      }
    });
    EXPECT_FALSE(deadlocked.load()) << "the owner stayed parked with messages pending";
    for (int rank = 1; rank <= kSenders; ++rank)
      EXPECT_EQ(taken[static_cast<std::size_t>(rank)].load(), kPerSender) << "sender " << rank;
    RecordProperty("parks", parks);
  });
  if (run.wait_for(kBudget) != std::future_status::ready) {
    std::fprintf(stderr, "the owner missed a wake-up: not done within %llds\n",
                 static_cast<long long>(kBudget.count()));
    std::_Exit(1);
  }
  run.get();
}

}  // namespace
}  // namespace cbmpi
