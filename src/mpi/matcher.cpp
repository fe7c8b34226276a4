#include "mpi/matcher.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

namespace cbmpi::mpi {

Fiber* Matcher::bump_locked() {
  version_.store(version_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  return std::exchange(waiter_, nullptr);
}

void Matcher::deliver(fabric::Envelope envelope) {
  Fiber* waiter = nullptr;
  {
    const std::scoped_lock lock(mutex_);
    const Link link{kNone, envelope.tag, envelope.comm_id, arrivals_++};
    const int src = envelope.src;
    std::uint32_t slot = free_;
    if (slot == kNone) {
      slot = static_cast<std::uint32_t>(links_.size());
      links_.push_back(link);
      envelopes_.push_back(std::move(envelope));
    } else {
      free_ = links_[slot].next;
      links_[slot] = link;
      envelopes_[slot] = std::move(envelope);
    }
    const auto bin = std::ranges::lower_bound(bins_, src, {}, &Bin::src);
    if (bin != bins_.end() && bin->src == src) {
      links_[bin->tail].next = slot;
      bin->tail = slot;
    } else {
      bins_.insert(bin, Bin{src, slot, slot});
    }
    // Published before the version bump: see matcher.hpp.
    pending_.store(pending_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
    waiter = bump_locked();
  }
  if (waiter != nullptr) RankScheduler::wake(waiter);
}

std::optional<Matcher::Hit> Matcher::first_in_bin(std::size_t b, int tag,
                                                  std::uint64_t comm_id) const {
  std::uint32_t prev = kNone;
  for (std::uint32_t node = bins_[b].head; node != kNone;
       prev = node, node = links_[node].next) {
    const Link& link = links_[node];
    if (link.comm_id == comm_id && (tag == kAnyTag || link.tag == tag))
      return Hit{b, prev, node};
  }
  return std::nullopt;
}

std::optional<Matcher::Hit> Matcher::find_locked(int src_world, int tag,
                                                 std::uint64_t comm_id) const {
  if (src_world != kAnySource) {
    const auto bin = std::ranges::lower_bound(bins_, src_world, {}, &Bin::src);
    if (bin == bins_.end() || bin->src != src_world) return std::nullopt;
    return first_in_bin(static_cast<std::size_t>(bin - bins_.begin()), tag, comm_id);
  }
  // Per-sender candidates are the *first* matching envelope from each sender
  // (delivery order == sender program order, so taking the first preserves
  // the non-overtaking rule). Among candidates, the earliest virtual
  // availability wins; ties break by source rank then sequence number.
  const auto key = [this](const Hit& hit) {
    const fabric::Envelope& env = envelopes_[hit.node];
    return std::tie(env.available_at, env.src, env.seq);
  };
  std::optional<Hit> best;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    const auto hit = first_in_bin(b, tag, comm_id);
    if (hit && (!best || key(*hit) < key(*best))) best = hit;
  }
  return best;
}

fabric::Envelope Matcher::take_locked(const Hit& hit) {
  Link& link = links_[hit.node];
  Bin& bin = bins_[hit.bin];
  if (hit.prev == kNone)
    bin.head = link.next;
  else
    links_[hit.prev].next = link.next;
  if (bin.tail == hit.node) bin.tail = hit.prev;
  if (bin.head == kNone) bins_.erase(bins_.begin() + static_cast<std::ptrdiff_t>(hit.bin));
  link.next = std::exchange(free_, hit.node);
  pending_.store(pending_.load(std::memory_order_relaxed) - 1, std::memory_order_release);
  return std::move(envelopes_[hit.node]);
}

std::optional<fabric::Envelope> Matcher::try_match(int src_world, int tag,
                                                   std::uint64_t comm_id) {
  const std::scoped_lock lock(mutex_);
  const auto hit = find_locked(src_world, tag, comm_id);
  if (!hit) return std::nullopt;
  return take_locked(*hit);
}

std::size_t Matcher::match_posted(std::vector<Request>& posted,
                                  std::vector<Request>& matched) {
  if (posted.empty() || pending_.load(std::memory_order_acquire) == 0) return 0;
  const std::scoped_lock lock(mutex_);
  const std::size_t before = matched.size();
  auto keep = posted.begin();
  for (auto& request : posted) {
    const auto hit = find_locked(request->src_world, request->tag, request->comm_id);
    if (!hit) {
      std::swap(*keep++, request);
      continue;
    }
    request->envelope = take_locked(*hit);
    request->matched = true;
    matched.push_back(std::move(request));
  }
  posted.erase(keep, posted.end());
  return matched.size() - before;
}

std::optional<Status> Matcher::peek(int src_world, int tag, std::uint64_t comm_id) const {
  const std::scoped_lock lock(mutex_);
  // The earliest delivered match: the first match of the source's bin, or
  // the lowest arrival stamp among every bin's first match.
  std::optional<Hit> first;
  if (src_world != kAnySource) {
    first = find_locked(src_world, tag, comm_id);
  } else {
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      const auto hit = first_in_bin(b, tag, comm_id);
      if (hit && (!first || links_[hit->node].stamp < links_[first->node].stamp))
        first = hit;
    }
  }
  if (!first) return std::nullopt;
  const fabric::Envelope& env = envelopes_[first->node];
  return Status{env.src, env.tag, env.size};
}

std::uint64_t Matcher::version() const {
  return version_.load(std::memory_order_acquire);
}

bool Matcher::park_past(std::uint64_t seen, Fiber* fiber) {
  const std::scoped_lock lock(mutex_);
  if (version_.load(std::memory_order_relaxed) != seen) return false;
  waiter_ = fiber;
  return true;
}

void Matcher::poke() {
  Fiber* waiter = nullptr;
  {
    const std::scoped_lock lock(mutex_);
    waiter = bump_locked();
  }
  if (waiter != nullptr) RankScheduler::wake(waiter);
}

std::size_t Matcher::pending() const {
  return pending_.load(std::memory_order_acquire);
}

}  // namespace cbmpi::mpi
