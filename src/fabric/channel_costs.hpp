// Cost structures shared by all channels.
#pragma once

#include "common/units.hpp"

namespace cbmpi::fabric {

/// Cost decomposition of one eager transfer.
struct EagerCosts {
  /// Added to the sender's clock (staging copy, descriptor post, stalls).
  /// The bandwidth term lives here: back-to-back sends serialize on it,
  /// which is what produces realistic windowed-bandwidth behaviour.
  Micros sender = 0.0;
  /// Pure latency from send completion until the payload is visible at the
  /// receiver (queue flag propagation / wire time).
  Micros delivery = 0.0;
  /// Added to the receiver's clock at completion (copy-out of the queue or
  /// eager ring into the user buffer).
  Micros receiver = 0.0;
};

/// Explicit memory-registration (pin-down) cost of one buffer, charged on
/// the HCA rendezvous path when the registration model is on.
struct RegCosts {
  Micros reg = 0.0;    ///< ibv_reg_mr: fixed base + size / pinning bandwidth
  Micros dereg = 0.0;  ///< ibv_dereg_mr: cheaper, same shape
};

/// Registration plan of one rendezvous transfer under the pin-down model:
/// each endpoint's cache outcome, resolved against the pin-down cache before
/// the timeline is computed. A cache hit skips registration entirely; a miss
/// pins the buffer chunk by chunk, overlapped with the RDMA pipeline.
struct RegPlan {
  bool sender_hit = false;
  bool receiver_hit = false;
  /// Dereg work that precedes each side's chunk-0 registration (LRU victims
  /// evicted to make room, transient unpin of oversized buffers).
  Micros sender_extra = 0.0;
  Micros receiver_extra = 0.0;
};

/// Completion times of one rendezvous transfer, computed at match time from
/// the RTS send time and the receiver-side match time.
struct RndvTimes {
  Micros receiver_done = 0.0;
  Micros sender_done = 0.0;
  /// When the receiver's serialized resource (CPU copy engine / PCIe) frees
  /// up — excludes trailing pure-latency terms. 0 means "same as
  /// receiver_done".
  Micros receiver_busy_until = 0.0;
  /// When the sender starts injecting the payload (CTS received, descriptor
  /// posted). The fabric model records the flow from this instant.
  Micros inject_begin = 0.0;
  /// HCA only: the receiver-side chunk-0 pin window — it delays the CTS, so
  /// it sits on the critical path — and the total registration time that
  /// survived pipelining. Without the registration model the window is empty
  /// (begin == end) and reg_stall is zero.
  Micros recv_reg_begin = 0.0;
  Micros recv_reg_end = 0.0;
  Micros reg_stall = 0.0;
};

/// Cost of one pipelined one-sided op (put/get) within an epoch.
struct OneSidedCosts {
  /// Minimum spacing between back-to-back ops (message-rate limit).
  Micros gap = 0.0;
  /// Full completion latency of a single op (used by flush / latency tests).
  Micros latency = 0.0;
};

}  // namespace cbmpi::fabric
