// Message envelopes and rendezvous handshake state.
//
// One Envelope is what a sender deposits into the receiver's matcher. Eager
// envelopes carry the payload (already staged through the channel). A
// rendezvous envelope is the RTS: it carries a shared RndvState pointing at
// the sender's buffer; the *receiver* performs the transfer at match time
// (exactly how CMA works: process_vm_readv is issued by the destination) and
// then reports the sender's completion time back through the state. The
// state only holds the outcome and never blocks a wait. The receiver wakes a
// blocked sender by poking the sender's matcher right after complete(), the
// same wake-up path a delivery takes. A sender that aborts or crashes
// withdraws its unfinished sends before it unwinds and frees the buffers; a
// receiver's copy and the withdrawal exclude each other.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "osl/cma.hpp"

namespace cbmpi::fabric {

enum class ChannelKind : std::uint8_t { Shm = 0, Cma = 1, Hca = 2 };
inline constexpr std::size_t kChannelKinds = 3;

const char* to_string(ChannelKind kind);

enum class Protocol : std::uint8_t { Eager, Rendezvous };

/// Shared sender/receiver state of one rendezvous transfer.
class RndvState {
 public:
  RndvState(std::span<const std::byte> src_view, const osl::SimProcess* sender)
      : src_view_(src_view), sender_(sender) {}

  std::span<const std::byte> source() const { return src_view_; }
  const osl::SimProcess& sender_process() const { return *sender_; }

  /// Receiver side: runs copy() while the sender cannot withdraw, so the
  /// source buffer stays alive throughout. Returns false, without running
  /// copy(), once the sender has withdrawn.
  template <typename Copy>
  bool read_source(Copy&& copy) {
    const std::scoped_lock lock(mutex_);
    if (withdrawn_) return false;
    copy();
    return true;
  }

  /// Sender side, right before a failing rank unwinds and frees its send
  /// buffers: from here on no receiver reads the source.
  void withdraw() {
    const std::scoped_lock lock(mutex_);
    withdrawn_ = true;
  }

  /// Receiver side: publish the sender's virtual completion time.
  void complete(Micros sender_complete_at) {
    sender_complete_at_ = sender_complete_at;
    done_ = true;
  }

  bool done() const { return done_; }

  /// Valid once done(): the sender's virtual completion time.
  Micros sender_complete_at() const { return sender_complete_at_; }

 private:
  std::span<const std::byte> src_view_;
  const osl::SimProcess* sender_;
  Micros sender_complete_at_ = 0.0;
  std::atomic<bool> done_{false};
  std::mutex mutex_;
  bool withdrawn_ = false;  // guarded by mutex_
};

struct Envelope {
  int src = -1;  ///< world rank of the sender
  int dst = -1;  ///< world rank of the receiver
  int tag = 0;
  std::uint64_t comm_id = 0;
  std::uint64_t seq = 0;  ///< per-(src,dst) send order

  ChannelKind channel = ChannelKind::Shm;
  Protocol protocol = Protocol::Eager;
  Bytes size = 0;

  /// Physical path attributes captured at selection time (cost inputs).
  bool same_socket = false;
  bool loopback = false;
  bool sriov = false;
  /// Eager only: receiver-side completion cost, precomputed by the sender.
  Micros receiver_cost = 0.0;

  /// HCA rendezvous under TuningParams::reg_model: outcome of the sender's
  /// pin-down-cache lookup, performed at RTS time and consumed by the
  /// receiver when it builds the RegPlan at match time.
  bool reg_sender_hit = false;
  Micros reg_sender_extra = 0.0;  ///< sender-side eviction/unpin charge

  /// Eager: virtual time at which the payload is available receiver-side.
  /// Rendezvous: virtual time at which the RTS arrives.
  Micros available_at = 0.0;

  /// Sender's clock when the message left its hands: after the eager
  /// staging cost, or at RTS post time for rendezvous. Feeds the
  /// sender->receiver dependency edge on the receiver-side Proto span.
  Micros sent_at = 0.0;

  std::vector<std::byte> payload;    ///< eager only
  std::shared_ptr<RndvState> rndv;   ///< rendezvous only
};

inline const char* to_string(ChannelKind kind) {
  switch (kind) {
    case ChannelKind::Shm: return "SHM";
    case ChannelKind::Cma: return "CMA";
    case ChannelKind::Hca: return "HCA";
  }
  return "?";
}

}  // namespace cbmpi::fabric
