// Per-rank message matcher: the unexpected-message queue and the rank's
// one wake-up point.
//
// Senders (other ranks) deliver envelopes; the owning rank matches them
// against receives by (source, tag, communicator). Matching preserves the
// MPI non-overtaking rule on both sides: envelopes from one sender are
// scanned in delivery order, which equals that sender's program order, and
// posted receives are matched in post order under one lock, so a later
// receive never takes a message an earlier one matches. For wildcard
// receives the match picks the candidate with the earliest virtual
// availability (ties broken by source rank, then sequence number) to keep
// simulations as deterministic as possible.
//
// Wake-up rule: every event that can unblock the owning rank bumps
// version() — a delivery, a rendezvous completion (the receiver pokes the
// sender's matcher), the last arrival at a phase alignment (it pokes every
// matcher), an RMA epoch unlock (it pokes the window's ranks) and a job
// abort (the runtime pokes every matcher). A blocked rank therefore parks
// its fiber here (park_past) without a timeout, and the next bump wakes it.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "fabric/message.hpp"
#include "mpi/fiber.hpp"
#include "mpi/types.hpp"

namespace cbmpi::mpi {

class Matcher {
 public:
  /// Called by the sending rank's fiber, possibly on another worker.
  void deliver(fabric::Envelope envelope);

  /// Removes and returns the first envelope matching (src, tag, comm);
  /// src/tag may be wildcards. Returns nullopt if nothing matches now.
  std::optional<fabric::Envelope> try_match(int src_world, int tag,
                                            std::uint64_t comm_id);

  /// Pairs the posted receives, in post order, with the envelopes try_match
  /// would return for them, all inside one critical section. Matched
  /// receives leave `posted`; the pairs come back in post order.
  std::vector<std::pair<Request, fabric::Envelope>> match_posted(
      std::vector<Request>& posted);

  /// Non-destructive variant for MPI_Iprobe.
  std::optional<Status> peek(int src_world, int tag, std::uint64_t comm_id) const;

  /// Monotone counter bumped by every event that can unblock the owning
  /// rank: a delivery or a poke().
  std::uint64_t version() const;

  /// Runs on the worker after the owning rank's fiber parked: publishes
  /// `fiber` as the waiter the next deliver() or poke() wakes, unless
  /// version() already moved past `seen`. Returns whether it parked.
  bool park_past(std::uint64_t seen, Fiber* fiber);

  /// Bumps version() without delivering anything: a rendezvous completion,
  /// a released phase alignment, an epoch unlock or a job abort.
  void poke();

  std::size_t pending() const;

 private:
  using Queue = std::deque<fabric::Envelope>;
  /// The envelope try_match would take; end() if none. Caller holds mutex_.
  Queue::iterator find_locked(int src_world, int tag, std::uint64_t comm_id);

  /// Bumps version_ and takes the parked owner, if any. Caller holds mutex_.
  Fiber* bump_locked();

  mutable std::mutex mutex_;
  Queue unexpected_;
  std::uint64_t version_ = 0;
  Fiber* waiter_ = nullptr;
};

}  // namespace cbmpi::mpi
