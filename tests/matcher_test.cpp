// Matcher tests: the per-source bins against the linear std::deque scan they
// replaced (differential, seeded op streams), and per-source FIFO order under
// concurrent delivery (the tsan CI job runs this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mpi/matcher.hpp"

namespace cbmpi {
namespace {

using fabric::Envelope;
using mpi::kAnySource;
using mpi::kAnyTag;
using mpi::Request;
using mpi::Status;

namespace oracle {

// The linear std::deque scan that the per-source bins replaced, kept verbatim
// as the oracle: the bins must pick the same envelope for every receive.
class DequeMatcher {
 public:
  void deliver(Envelope envelope) { unexpected_.push_back(std::move(envelope)); }

  std::optional<Envelope> try_match(int src_world, int tag, std::uint64_t comm_id) {
    const auto it = find_locked(src_world, tag, comm_id);
    if (it == unexpected_.end()) return std::nullopt;
    Envelope env = std::move(*it);
    unexpected_.erase(it);
    return env;
  }

  std::vector<std::pair<Request, Envelope>> match_posted(std::vector<Request>& posted) {
    std::vector<std::pair<Request, Envelope>> matched;
    auto keep = posted.begin();
    for (auto& request : posted) {
      const auto it = find_locked(request->src_world, request->tag, request->comm_id);
      if (it == unexpected_.end()) {
        std::swap(*keep++, request);
        continue;
      }
      matched.emplace_back(std::move(request), std::move(*it));
      unexpected_.erase(it);
    }
    posted.erase(keep, posted.end());
    return matched;
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
/// to the matcher and the oracle in lockstep.
class Stream {
 public:
  Stream(std::uint64_t seed, int sources, double deliver_share)
      : rng_(seed), sources_(sources), deliver_share_(deliver_share),
        next_seq_(static_cast<std::size_t>(sources), 0) {}

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
    oracle_.deliver(env);
    matcher_.deliver(std::move(env));
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

  static void expect_same(const std::optional<Envelope>& got,
                          const std::optional<Envelope>& want) {
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got) return;
    EXPECT_EQ(got->src, want->src);
    EXPECT_EQ(got->seq, want->seq);
    EXPECT_EQ(got->size, want->size);
  }

  void try_match() {
    const Selector s = selector();
    expect_same(matcher_.try_match(s.src, s.tag, s.comm),
                oracle_.try_match(s.src, s.tag, s.comm));
  }

  void match_posted() {
    std::vector<Request> posted;
    const auto n = 1 + rng_.below(5);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Selector s = selector();
      auto request = std::make_shared<mpi::RequestState>();
      request->kind = mpi::RequestState::Kind::Recv;
      request->src_world = s.src;
      request->tag = s.tag;
      request->comm_id = s.comm;
      posted.push_back(std::move(request));
    }
    auto oracle_posted = posted;
    const auto got = matcher_.match_posted(posted);
    const auto want = oracle_.match_posted(oracle_posted);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first);
      expect_same(got[i].second, want[i].second);
    }
    EXPECT_EQ(posted, oracle_posted);
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
  mpi::Matcher matcher;
  for (int round = 0; round < 3; ++round) {
    for (int src = 0; src < 64; ++src) {
      Envelope env;
      env.src = src;
      env.seq = static_cast<std::uint64_t>(round);
      matcher.deliver(std::move(env));
    }
    EXPECT_EQ(matcher.pending(), 64u);
    for (int src = 63; src >= 0; --src) {
      const auto env = matcher.try_match(src, kAnyTag, 0);
      ASSERT_TRUE(env.has_value());
      EXPECT_EQ(env->seq, static_cast<std::uint64_t>(round));
    }
    EXPECT_EQ(matcher.pending(), 0u);
    EXPECT_FALSE(matcher.try_match(kAnySource, kAnyTag, 0).has_value());
    EXPECT_FALSE(matcher.peek(kAnySource, kAnyTag, 0).has_value());
  }
}

TEST(MatcherConcurrent, PerSourceFifoHoldsUnderConcurrentDelivery) {
  constexpr int kSenders = 4;
  constexpr int kSourcesPerSender = 8;
  constexpr int kPerSource = 500;
  constexpr int kSources = kSenders * kSourcesPerSender;
  mpi::Matcher matcher;
  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&matcher, t] {
      for (int i = 0; i < kPerSource; ++i) {
        for (int k = 0; k < kSourcesPerSender; ++k) {
          Envelope env;
          env.src = t * kSourcesPerSender + k;
          env.tag = i % 3;
          env.seq = static_cast<std::uint64_t>(i);
          env.available_at = static_cast<double>(i % 5);
          matcher.deliver(std::move(env));
        }
      }
    });
  }
  // The drain mixes wildcard and specific-source receives; every source's
  // envelopes must still come out in delivery order.
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
    const auto matched = matcher.match_posted(posted);
    if (matched.empty()) std::this_thread::yield();
    for (const auto& [request, env] : matched) {
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
}

}  // namespace
}  // namespace cbmpi
