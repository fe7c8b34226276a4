// Basic MPI-level types: wildcards, status, reduction operators, requests.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/units.hpp"
#include "fabric/message.hpp"

namespace cbmpi::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Set in the context id of every transfer a collective makes internally: a
/// communicator's collectives travel in a context of their own, as in MPI.
inline constexpr std::uint64_t kCollectiveContextBit = std::uint64_t{1} << 63;

struct Status {
  int source = kAnySource;  ///< communicator-relative source rank
  int tag = kAnyTag;
  Bytes bytes = 0;          ///< received payload size

  template <typename T>
  std::size_t count() const {
    return bytes / sizeof(T);
  }
};

enum class ReduceOp : std::uint8_t { Sum, Prod, Min, Max, LogicalAnd, LogicalOr, BitOr, BitAnd };

/// Applies `op` elementwise: inout[i] = inout[i] (op) in[i].
template <typename T>
void apply_reduce(ReduceOp op, std::span<const T> in, std::span<T> inout) {
  const std::size_t n = std::min(in.size(), inout.size());
  switch (op) {
    case ReduceOp::Sum:
      for (std::size_t i = 0; i < n; ++i) inout[i] = static_cast<T>(inout[i] + in[i]);
      break;
    case ReduceOp::Prod:
      for (std::size_t i = 0; i < n; ++i) inout[i] = static_cast<T>(inout[i] * in[i]);
      break;
    case ReduceOp::Min:
      for (std::size_t i = 0; i < n; ++i) inout[i] = in[i] < inout[i] ? in[i] : inout[i];
      break;
    case ReduceOp::Max:
      for (std::size_t i = 0; i < n; ++i) inout[i] = in[i] > inout[i] ? in[i] : inout[i];
      break;
    case ReduceOp::LogicalAnd:
      for (std::size_t i = 0; i < n; ++i)
        inout[i] = static_cast<T>((inout[i] != T{}) && (in[i] != T{}));
      break;
    case ReduceOp::LogicalOr:
      for (std::size_t i = 0; i < n; ++i)
        inout[i] = static_cast<T>((inout[i] != T{}) || (in[i] != T{}));
      break;
    case ReduceOp::BitOr:
      if constexpr (std::is_integral_v<T>) {
        for (std::size_t i = 0; i < n; ++i) inout[i] = static_cast<T>(inout[i] | in[i]);
      }
      break;
    case ReduceOp::BitAnd:
      if constexpr (std::is_integral_v<T>) {
        for (std::size_t i = 0; i < n; ++i) inout[i] = static_cast<T>(inout[i] & in[i]);
      }
      break;
  }
}

/// Type-erased elementwise reduction over raw bytes, the shape of MPI's
/// MPI_User_function: inout[i] = inout[i] (op) in[i] for every whole element.
/// Collectives and RMA accumulate run their reductions through one of these.
using ReduceFn = void (*)(ReduceOp op, std::span<const std::byte> in,
                          std::span<std::byte> inout);

/// apply_reduce<T> behind the ReduceFn signature.
template <typename T>
void reduce_bytes(ReduceOp op, std::span<const std::byte> in,
                  std::span<std::byte> inout) {
  apply_reduce<T>(op,
                  std::span<const T>(reinterpret_cast<const T*>(in.data()),
                                     in.size() / sizeof(T)),
                  std::span<T>(reinterpret_cast<T*>(inout.data()),
                               inout.size() / sizeof(T)));
}

/// Request shared state. A request is produced by isend/irecv and consumed by
/// test/wait on the owning rank's fiber; only the rendezvous sub-state is
/// shared with the peer (and is internally synchronized). The engine makes
/// every state from its worker's recycled blocks (fiber.hpp), so a state and
/// its shared_ptr control block cost no malloc in steady state. A matched
/// receive holds its message block; the engine releases every one it holds
/// before its rank finishes, so a request kept past its job holds none.
struct RequestState {
  enum class Kind : std::uint8_t { SendEager, SendRndv, Recv };

  Kind kind = Kind::SendEager;
  bool complete = false;
  Micros complete_at = 0.0;
  Status status{};  ///< world-relative source; translated by Communicator

  // --- recv bookkeeping -------------------------------------------------
  std::span<std::byte> buffer{};
  int src_world = kAnySource;  ///< world rank or kAnySource
  int tag = kAnyTag;
  std::uint64_t comm_id = 0;
  Micros posted_at = 0.0;
  /// The message the matcher matched to this receive, owned from the match
  /// until the engine completes the receive and releases it to its sender's
  /// home; null before and after.
  fabric::MessagePtr message;

  // --- rendezvous send bookkeeping ---------------------------------------
  std::shared_ptr<fabric::RndvState> rndv;
};

using Request = std::shared_ptr<RequestState>;

}  // namespace cbmpi::mpi
