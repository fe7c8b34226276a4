// Per-rank message matcher: the unexpected-message queue and the rank's
// one wake-up point.
//
// The queue keeps one FIFO per source rank (per-source bins, as in
// Flajslik, Dinan and Underwood, "Mitigating MPI Message Matching Misery",
// ISC 2016). Envelopes live in one slab, vectors of slots with a free list;
// each source's envelopes form a singly linked chain through it, and
// a vector sorted by source holds a {head, tail} pair for each source that
// has envelopes pending. A specific-source receive binary-searches its bin
// and walks only that chain; memory stays proportional to what is pending.
//
// Senders (other ranks) deliver envelopes; the owning rank matches them
// against receives by (source, tag, communicator). Matching preserves the
// MPI non-overtaking rule on both sides: envelopes from one sender are
// scanned in delivery order, which equals that sender's program order, and
// posted receives are matched in post order under one lock, so a later
// receive never takes a message an earlier one matches. For wildcard
// receives the match takes the first match of every bin and picks the one
// with the earliest virtual availability (ties broken by source rank, then
// sequence number) to keep simulations as deterministic as possible. peek()
// reports matches in delivery order, through a per-matcher arrival stamp.
//
// Wake-up rule: every event that can unblock the owning rank bumps
// version() — a delivery, a rendezvous completion (the receiver pokes the
// sender's matcher), the last arrival at a phase alignment (it pokes every
// matcher), an RMA epoch unlock (it pokes the window's ranks) and a job
// abort (the runtime pokes every matcher). A blocked rank therefore parks
// its fiber here (park_past) without a timeout, and the next bump wakes it.
#pragma once

#include <cstdint>
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
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// The matching keys and chain link of one slab slot, kept apart from the
  /// envelopes so a chain walk stays in a few cache lines.
  struct Link {
    std::uint32_t next = kNone;  ///< next slot of the bin, or of the free list
    int tag = 0;
    std::uint64_t comm_id = 0;
    std::uint64_t stamp = 0;     ///< delivery order within this matcher
  };
  /// The pending envelopes of one source, oldest first.
  struct Bin {
    int src;
    std::uint32_t head;
    std::uint32_t tail;
  };
  /// A matched node and what unlinking it needs.
  struct Hit {
    std::size_t bin;
    std::uint32_t prev;  ///< predecessor in the bin's chain, or kNone
    std::uint32_t node;
  };

  /// The envelope try_match would take. Caller holds mutex_.
  std::optional<Hit> find_locked(int src_world, int tag, std::uint64_t comm_id) const;
  /// The first envelope of bin `b` matching (tag, comm). Caller holds mutex_.
  std::optional<Hit> first_in_bin(std::size_t b, int tag, std::uint64_t comm_id) const;
  /// Unlinks the hit's node, frees its slot and returns its envelope.
  /// Caller holds mutex_.
  fabric::Envelope take_locked(const Hit& hit);

  /// Bumps version_ and takes the parked owner, if any. Caller holds mutex_.
  Fiber* bump_locked();

  mutable std::mutex mutex_;
  // The slab: slot i holds links_[i] and envelopes_[i].
  std::vector<Link> links_;
  std::vector<fabric::Envelope> envelopes_;
  std::uint32_t free_ = kNone;
  std::vector<Bin> bins_;  ///< sorted by src; only sources with envelopes
  std::size_t pending_ = 0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t version_ = 0;
  Fiber* waiter_ = nullptr;
};

}  // namespace cbmpi::mpi
