// Per-rank message matcher: the rank's lock-free inbox, its unexpected-message
// queue and its one wake-up point.
//
// Senders (other ranks, possibly on other workers) deliver messages; the
// owning rank matches them against receives by (source, tag, communicator).
// The only state senders touch is one cache line: the inbox head, version()
// and the parked waiter. deliver() pushes the message onto the inbox, a
// Treiber stack linked through Message::next, with one CAS, then bumps the
// version and wakes the waiter if there is one. Everything else belongs to
// the owning rank: it takes the whole inbox with one exchange, reverses it
// into delivery order, stamps each message with its arrival order and
// appends it to its source's bin. try_match, match_posted, peek and pending
// drain the inbox first, and run only on the owning rank's fiber, or after
// every worker has joined, so matching takes no lock.
//
// The queue keeps one FIFO per source rank (per-source bins, as in Flajslik,
// Dinan and Underwood, "Mitigating MPI Message Matching Misery", ISC 2016).
// Each source's messages chain through their own links, and a vector sorted
// by source holds a {head, tail} pair for each source that has messages
// pending. A specific-source receive binary-searches its bin and walks only
// that chain; memory stays proportional to what is pending.
//
// Matching preserves the MPI non-overtaking rule on both sides: one sender's
// pushes are ordered, so its messages reach its bin in program order, and
// posted receives are matched in post order, so a later receive never takes
// a message an earlier one matches. For wildcard receives the match takes
// the first match of every bin and picks the one with the earliest virtual
// availability (ties broken by source rank, then sequence number) to keep
// simulations as deterministic as possible. peek() reports matches in
// delivery order, through the arrival stamp.
//
// Wake-up rule: every event that can unblock the owning rank bumps
// version() — a delivery, a rendezvous completion (the receiver pokes the
// sender's matcher), the last arrival at a phase alignment (it pokes every
// matcher), an RMA epoch unlock (it pokes the window's ranks) and a job
// abort (the runtime pokes every matcher). A blocked rank therefore parks
// its fiber here (park_past) without a timeout, and the next bump wakes it.
//
// The handshake that loses no wake, all of it sequentially consistent:
//   * park_past stores the fiber as the waiter, then re-reads the version;
//   * a waker bumps the version (after its push, if it delivers), then takes
//     the waiter with an exchange.
// Of the parker's store-then-load and the waker's bump-then-read, one comes
// first in the single total order, so either the parker sees the bump or
// the waker sees the waiter. If the version has moved, the parker takes its
// waiter back with an exchange and resumes at once; if a waker took it
// first, that waker wakes the fiber, so the fiber resumes exactly once.
// A rank that read a version and then found nothing pending therefore either
// sees a later delivery on its next drain or parks on a stale version, which
// park_past refuses.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "fabric/message.hpp"
#include "mpi/fiber.hpp"
#include "mpi/types.hpp"

namespace cbmpi::mpi {

class alignas(64) Matcher {
 public:
  Matcher() = default;
  Matcher(const Matcher&) = delete;
  Matcher& operator=(const Matcher&) = delete;
  /// Releases every message still pending; runs after every worker joined.
  ~Matcher();

  /// Called by the sending rank's fiber, possibly on another worker.
  void deliver(fabric::MessagePtr message);

  /// Removes and returns the first message matching (src, tag, comm);
  /// src/tag may be wildcards. Returns null if nothing matches now.
  fabric::MessagePtr try_match(int src_world, int tag, std::uint64_t comm_id);

  /// Moves into each receive of `posted`, in post order, the message
  /// try_match would return for it. Matched receives leave `posted` (the rest
  /// keep their order) and are appended to `matched` in post order; returns
  /// how many. Allocates nothing once `matched` has the capacity.
  std::size_t match_posted(std::vector<Request>& posted, std::vector<Request>& matched);

  /// Non-destructive variant for MPI_Iprobe.
  std::optional<Status> peek(int src_world, int tag, std::uint64_t comm_id);

  /// Monotone counter bumped by every event that can unblock the owning
  /// rank: a delivery or a poke().
  std::uint64_t version() const;

  /// Runs on the worker after the owning rank's fiber parked: publishes
  /// `fiber` as the waiter the next deliver() or poke() wakes, unless
  /// version() already moved past `seen`. Returns whether it parked.
  bool park_past(std::uint64_t seen, Fiber* fiber);

  /// Bumps version(), then wakes the parked owner, if any. deliver() ends
  /// with it; called alone, it signals a rendezvous completion, a released
  /// phase alignment, an epoch unlock or a job abort.
  void poke();

  /// How many messages are delivered and not matched yet.
  std::size_t pending();

 private:
  /// The pending messages of one source, oldest first.
  struct Bin {
    int src;
    fabric::Message* head;
    fabric::Message* tail;
  };
  /// A matched message and what unlinking it needs.
  struct Hit {
    std::size_t bin;
    fabric::Message* prev;  ///< predecessor in the bin's chain, or null
    fabric::Message* node;
  };

  /// Moves everything delivered so far from the inbox into the bins.
  void drain();
  /// The message try_match would take, from what is already drained.
  std::optional<Hit> find(int src_world, int tag, std::uint64_t comm_id) const;
  /// The first message of bin `b` matching (tag, comm).
  std::optional<Hit> first_in_bin(std::size_t b, int tag, std::uint64_t comm_id) const;
  /// Unlinks the hit's message and returns it.
  fabric::MessagePtr take(const Hit& hit);

  // Shared with senders on other workers: this cache line only.
  std::atomic<fabric::Message*> inbox_{nullptr};
  std::atomic<std::uint64_t> version_{0};
  std::atomic<Fiber*> waiter_{nullptr};

  // The owning rank's own, on the next cache line.
  alignas(64) std::vector<Bin> bins_;  ///< sorted by src; only sources with messages
  std::uint64_t arrivals_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace cbmpi::mpi
