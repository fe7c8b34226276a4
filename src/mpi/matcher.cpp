#include "mpi/matcher.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

namespace cbmpi::mpi {

Fiber* Matcher::bump_locked() {
  ++version_;
  return std::exchange(waiter_, nullptr);
}

void Matcher::deliver(fabric::Envelope envelope) {
  Fiber* waiter = nullptr;
  {
    const std::scoped_lock lock(mutex_);
    unexpected_.push_back(std::move(envelope));
    waiter = bump_locked();
  }
  if (waiter != nullptr) RankScheduler::wake(waiter);
}

namespace {
bool matches(const fabric::Envelope& env, int src_world, int tag, std::uint64_t comm_id) {
  if (env.comm_id != comm_id) return false;
  if (src_world != kAnySource && env.src != src_world) return false;
  if (tag != kAnyTag && env.tag != tag) return false;
  return true;
}
}  // namespace

Matcher::Queue::iterator Matcher::find_locked(int src_world, int tag,
                                              std::uint64_t comm_id) {
  auto best = unexpected_.end();
  // Per-sender candidates are the *first* matching envelope from each sender
  // (delivery order == sender program order, so taking the first preserves
  // the non-overtaking rule). Among candidates, the earliest virtual
  // availability wins; ties break by source rank then sequence number.
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

std::optional<fabric::Envelope> Matcher::try_match(int src_world, int tag,
                                                   std::uint64_t comm_id) {
  const std::scoped_lock lock(mutex_);
  const auto it = find_locked(src_world, tag, comm_id);
  if (it == unexpected_.end()) return std::nullopt;
  fabric::Envelope env = std::move(*it);
  unexpected_.erase(it);
  return env;
}

std::vector<std::pair<Request, fabric::Envelope>> Matcher::match_posted(
    std::vector<Request>& posted) {
  std::vector<std::pair<Request, fabric::Envelope>> matched;
  const std::scoped_lock lock(mutex_);
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

std::optional<Status> Matcher::peek(int src_world, int tag, std::uint64_t comm_id) const {
  const std::scoped_lock lock(mutex_);
  for (const auto& env : unexpected_) {
    if (matches(env, src_world, tag, comm_id))
      return Status{env.src, env.tag, env.size};
  }
  return std::nullopt;
}

std::uint64_t Matcher::version() const {
  const std::scoped_lock lock(mutex_);
  return version_;
}

bool Matcher::park_past(std::uint64_t seen, Fiber* fiber) {
  const std::scoped_lock lock(mutex_);
  if (version_ != seen) return false;
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
  const std::scoped_lock lock(mutex_);
  return unexpected_.size();
}

}  // namespace cbmpi::mpi
