#include "mpi/matcher.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

namespace cbmpi::mpi {

using fabric::Message;

Matcher::~Matcher() {
  drain();
  for (const Bin& bin : bins_) {
    for (Message* node = bin.head; node != nullptr;) {
      const fabric::MessagePtr message(std::exchange(node, node->next));
    }
  }
}

void Matcher::deliver(fabric::MessagePtr message) {
  Message* node = message.release();
  node->next = inbox_.load(std::memory_order_relaxed);
  while (!inbox_.compare_exchange_weak(node->next, node, std::memory_order_release,
                                       std::memory_order_relaxed)) {
  }
  poke();
}

void Matcher::poke() {
  // Sequentially consistent, as is park_past: see the handshake in matcher.hpp.
  version_.fetch_add(1);
  if (waiter_.load() == nullptr) return;
  if (Fiber* waiter = waiter_.exchange(nullptr)) RankScheduler::wake(waiter);
}

bool Matcher::park_past(std::uint64_t seen, Fiber* fiber) {
  waiter_.store(fiber);
  if (version_.load() == seen) return true;
  // The version moved: resume at once, unless a waker already took the
  // waiter, in which case that waker wakes the fiber.
  return waiter_.exchange(nullptr) != fiber;
}

std::uint64_t Matcher::version() const {
  return version_.load(std::memory_order_acquire);
}

void Matcher::drain() {
  if (inbox_.load(std::memory_order_relaxed) == nullptr) return;
  // The stack holds the newest message first; reverse it into delivery order.
  Message* newest = inbox_.exchange(nullptr, std::memory_order_acquire);
  Message* oldest = nullptr;
  while (newest != nullptr) {
    Message* next = newest->next;
    newest->next = oldest;
    oldest = std::exchange(newest, next);
  }
  while (oldest != nullptr) {
    Message* node = std::exchange(oldest, oldest->next);
    node->next = nullptr;
    node->stamp = arrivals_++;
    ++pending_;
    const int src = node->env.src;
    const auto bin = std::ranges::lower_bound(bins_, src, {}, &Bin::src);
    if (bin != bins_.end() && bin->src == src) {
      bin->tail->next = node;
      bin->tail = node;
    } else {
      bins_.insert(bin, Bin{src, node, node});
    }
  }
}

std::optional<Matcher::Hit> Matcher::first_in_bin(std::size_t b, int tag,
                                                  std::uint64_t comm_id) const {
  Message* prev = nullptr;
  for (Message* node = bins_[b].head; node != nullptr; prev = node, node = node->next) {
    const fabric::Envelope& env = node->env;
    if (env.comm_id == comm_id && (tag == kAnyTag || env.tag == tag))
      return Hit{b, prev, node};
  }
  return std::nullopt;
}

std::optional<Matcher::Hit> Matcher::find(int src_world, int tag,
                                          std::uint64_t comm_id) const {
  if (src_world != kAnySource) {
    const auto bin = std::ranges::lower_bound(bins_, src_world, {}, &Bin::src);
    if (bin == bins_.end() || bin->src != src_world) return std::nullopt;
    return first_in_bin(static_cast<std::size_t>(bin - bins_.begin()), tag, comm_id);
  }
  // Per-sender candidates are the *first* matching message from each sender
  // (delivery order == sender program order, so taking the first preserves
  // the non-overtaking rule). Among candidates, the earliest virtual
  // availability wins; ties break by source rank then sequence number.
  const auto key = [](const Hit& hit) {
    const fabric::Envelope& env = hit.node->env;
    return std::tie(env.available_at, env.src, env.seq);
  };
  std::optional<Hit> best;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    const auto hit = first_in_bin(b, tag, comm_id);
    if (hit && (!best || key(*hit) < key(*best))) best = hit;
  }
  return best;
}

fabric::MessagePtr Matcher::take(const Hit& hit) {
  Bin& bin = bins_[hit.bin];
  Message* next = std::exchange(hit.node->next, nullptr);
  (hit.prev == nullptr ? bin.head : hit.prev->next) = next;
  if (bin.tail == hit.node) bin.tail = hit.prev;
  if (bin.head == nullptr) bins_.erase(bins_.begin() + static_cast<std::ptrdiff_t>(hit.bin));
  --pending_;
  return fabric::MessagePtr(hit.node);
}

fabric::MessagePtr Matcher::try_match(int src_world, int tag, std::uint64_t comm_id) {
  drain();
  const auto hit = find(src_world, tag, comm_id);
  if (!hit) return nullptr;
  return take(*hit);
}

std::size_t Matcher::match_posted(std::vector<Request>& posted,
                                  std::vector<Request>& matched) {
  if (posted.empty()) return 0;
  drain();
  if (pending_ == 0) return 0;
  const std::size_t before = matched.size();
  auto keep = posted.begin();
  for (auto& request : posted) {
    const auto hit = find(request->src_world, request->tag, request->comm_id);
    if (!hit) {
      std::swap(*keep++, request);
      continue;
    }
    request->message = take(*hit);
    matched.push_back(std::move(request));
  }
  posted.erase(keep, posted.end());
  return matched.size() - before;
}

std::optional<Status> Matcher::peek(int src_world, int tag, std::uint64_t comm_id) {
  drain();
  // The earliest delivered match: the first match of the source's bin, or
  // the lowest arrival stamp among every bin's first match.
  std::optional<Hit> first;
  if (src_world != kAnySource) {
    first = find(src_world, tag, comm_id);
  } else {
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      const auto hit = first_in_bin(b, tag, comm_id);
      if (hit && (!first || hit->node->stamp < first->node->stamp)) first = hit;
    }
  }
  if (!first) return std::nullopt;
  const fabric::Envelope& env = first->node->env;
  return Status{env.src, env.tag, env.size};
}

std::size_t Matcher::pending() {
  drain();
  return pending_;
}

}  // namespace cbmpi::mpi
