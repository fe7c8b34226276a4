// Messages, the blocks they live in, and rendezvous handshake state.
//
// A send deposits one Message into the receiver's matcher: a single heap
// block of the sending rank's PayloadHome that holds the matcher's intrusive
// link, an arrival stamp and the Envelope, followed, for an eager message, by
// the payload bytes, which the sender copies straight in, over SHM and
// the HCA alike. A rendezvous message is the RTS, a header-only block whose
// envelope carries a shared RndvState pointing at the sender's buffer; the
// *receiver* performs the transfer at match time (exactly how CMA works:
// process_vm_readv is issued by the destination) and then reports the
// sender's completion time back through the state. The state only holds the
// outcome and never blocks a wait. The receiver wakes a blocked sender by
// poking the sender's matcher right after complete(), the same wake-up path a
// delivery takes. A sender that aborts or crashes withdraws its unfinished
// sends before it unwinds and frees the buffers; a receiver's copy and the
// withdrawal exclude each other.
//
// A MessagePtr owns its block until the receive that matched it completes;
// dropping it hands the block back to its home, so only the thread that
// allocated a block frees it (PayloadHome).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>

#include "common/units.hpp"
#include "osl/cma.hpp"

namespace cbmpi::fabric {

enum class ChannelKind : std::uint8_t { Shm = 0, Cma = 1, Hca = 2 };
inline constexpr std::size_t kChannelKinds = 3;

const char* to_string(ChannelKind kind);

enum class Protocol : std::uint8_t { Eager, Rendezvous };

/// Guards a buffer that readers on other threads copy from while its owner
/// may unwind past it: a rendezvous source (RndvState) or an exchange slot's
/// send blocks (mpi::Exchange::Slot).
class WithdrawGuard {
 public:
  /// Reader side: runs copy() while the owner cannot withdraw, so the
  /// buffer stays alive throughout. Returns false, without running copy(),
  /// once the owner has withdrawn.
  template <typename Copy>
  bool read(Copy&& copy) {
    reading_.fetch_add(1);
    const struct Leave {
      std::atomic<int>& reading;
      ~Leave() { reading.fetch_sub(1); }
    } leave{reading_};
    if (withdrawn_.load()) return false;
    copy();
    return true;
  }

  /// Owner side, right before it unwinds and frees the buffer: from here on
  /// no reader copies from it. It spins rather than parks, since it is
  /// unwinding; a read never parks, so the spin is short.
  void withdraw() {
    withdrawn_.store(true);
    while (reading_.load() != 0) std::this_thread::yield();
  }

 private:
  std::atomic<bool> withdrawn_{false};  ///< set once; it stays set
  std::atomic<int> reading_{0};         ///< reads in progress
};

/// Shared sender/receiver state of one rendezvous transfer.
class RndvState {
 public:
  RndvState(std::span<const std::byte> src_view, const osl::SimProcess* sender)
      : src_view_(src_view), sender_(sender) {}

  std::span<const std::byte> source() const { return src_view_; }
  const osl::SimProcess& sender_process() const { return *sender_; }

  /// The receiver reads the source through it; a failing sender withdraws
  /// it before it frees its send buffers.
  WithdrawGuard guard;

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

  std::shared_ptr<RndvState> rndv;  ///< rendezvous only
};

class PayloadHome;

/// One message: the header of a PayloadHome block, with the payload bytes
/// right behind it.
class Message {
 public:
  Message(const Message&) = delete;
  Message& operator=(const Message&) = delete;

  Envelope env;
  /// The receiver's inbox and per-source bin chain through this link; the
  /// sender writes it only while pushing the message (Matcher::deliver).
  Message* next = nullptr;
  /// Arrival order within the receiver's matcher, set when it takes the
  /// message from its inbox.
  std::uint64_t stamp = 0;

  /// Eager: the env.size payload bytes behind the header, uninitialized
  /// until the sender's copy. Empty for a rendezvous RTS.
  std::span<std::byte> payload() {
    return {reinterpret_cast<std::byte*>(this + 1), payload_bytes_};
  }

 private:
  friend class PayloadHome;
  friend struct MessageRelease;
  Message(PayloadHome* home, std::size_t payload_bytes)
      : home_(home), payload_bytes_(payload_bytes) {}

  PayloadHome* home_;
  std::size_t payload_bytes_;
};

/// Gives a message's block back to its home (PayloadHome::release).
struct MessageRelease {
  inline void operator()(Message* message) const noexcept;
};
using MessagePtr = std::unique_ptr<Message, MessageRelease>;

/// Where one rank's message blocks come from and go back to. Every block is
/// freed by the thread that allocated it, so no heap arena is shared between
/// worker threads: a message dropped on that thread is freed at once, and one
/// dropped anywhere else is pushed onto the home's lock-free return stack
/// (one CAS). The owning rank frees the returned blocks on its own fiber with
/// reclaim(), which takes the whole stack with one exchange; the destructor
/// frees whatever is left at job end. Freed blocks are not cached: a cache
/// per rank holds its peak in-flight messages for the whole job.
class alignas(64) PayloadHome {
 public:
  PayloadHome() = default;
  PayloadHome(const PayloadHome&) = delete;
  PayloadHome& operator=(const PayloadHome&) = delete;
  ~PayloadHome() { reclaim(); }

  /// A message with a default envelope and `payload_bytes` uninitialized
  /// payload bytes, in one block. Only the owning rank's fiber calls it; it
  /// first frees the blocks handed back since its last call.
  MessagePtr allocate(std::size_t payload_bytes);

  /// Frees every block handed back so far. Owning rank's fiber only, or
  /// after every worker joined.
  void reclaim() noexcept;

 private:
  friend struct MessageRelease;
  /// A returned block, reused as a link of the return stack.
  struct Returned {
    Returned* next;
  };
  /// Destroys `message`, then frees its block on its owner's thread or hands
  /// it back from any other.
  void release(Message* message) noexcept;

  /// The thread of the owning rank's fiber, bound by the first allocate();
  /// every message of this home is delivered after that write.
  const void* owner_ = nullptr;
  std::atomic<Returned*> returned_{nullptr};
};

void MessageRelease::operator()(Message* message) const noexcept {
  message->home_->release(message);
}

inline const char* to_string(ChannelKind kind) {
  switch (kind) {
    case ChannelKind::Shm: return "SHM";
    case ChannelKind::Cma: return "CMA";
    case ChannelKind::Hca: return "HCA";
  }
  return "?";
}

}  // namespace cbmpi::fabric
