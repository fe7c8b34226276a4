// One-sided communication (MPI-3 RMA subset): windows, put/get/accumulate,
// flush and fence synchronisation.
//
// Each op is pipelined: the origin pays the channel's per-op gap immediately
// and records the op's full completion time; flush advances the origin clock
// to the last completion for that target (so `put; flush` costs one op
// latency while N back-to-back puts cost ~N gaps — the message-rate behaviour
// behind the paper's one-sided bandwidth results, Fig. 9). Data lands in the
// target's exposed memory at call time under a per-target lock; epochs must
// be separated by flush/fence as the MPI RMA rules require.
//
// Channel selection is per (origin, target) pair under the active locality
// policy, so the default runtime drives co-resident puts through the HCA
// loopback (15-ish MB/s at 4 B in the paper) while the locality-aware one
// uses shared memory (~148 MB/s).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "mpi/communicator.hpp"

namespace cbmpi::mpi {

/// Byte-level window; the typed Window<T> below is the public face.
enum class LockKind { Shared, Exclusive };

class WindowHandle {
 public:
  /// Collective on `comm`. `local` stays exposed until the window dies.
  WindowHandle(Communicator& comm, std::span<std::byte> local, Bytes elem_size);

  void put_bytes(std::span<const std::byte> src, int target, Bytes byte_offset);
  void get_bytes(std::span<std::byte> dst, int target, Bytes byte_offset);

  /// Atomic read-modify-write on the target memory (MPI_Accumulate core).
  void rmw_bytes(std::span<const std::byte> src, int target, Bytes byte_offset,
                 const std::function<void(std::span<std::byte>,
                                          std::span<const std::byte>)>& combine);

  /// Completes all pending ops to `target` at the origin (MPI_Win_flush).
  void flush(int target);
  void flush_all();

  /// Collective: flush_all + barrier (MPI_Win_fence).
  void fence();

  /// Passive-target epoch (MPI_Win_lock / MPI_Win_unlock): Exclusive blocks
  /// other epochs on the same target; Shared admits concurrent readers.
  /// lock() waits in the rank's one blocking step, so a job abort wakes it.
  /// unlock() completes all ops of the epoch at the origin.
  void lock(LockKind kind, int target);
  void unlock(int target);

  /// Atomic fetch-and-combine: fetches the target bytes into `result`, then
  /// combines `src` into the target (MPI_Get_accumulate core).
  void fetch_rmw_bytes(std::span<const std::byte> src, std::span<std::byte> result,
                       int target, Bytes byte_offset,
                       const std::function<void(std::span<std::byte>,
                                                std::span<const std::byte>)>& combine);

  Communicator& comm() { return *comm_; }

 private:
  fabric::OneSidedCosts account_op(int target, Bytes size, prof::CallKind kind);
  std::span<std::byte> target_span(int target, Bytes byte_offset, Bytes size);

  Communicator* comm_;
  std::shared_ptr<WindowInfo> info_;
  std::vector<Micros> pending_;  ///< per-target last completion time
  std::vector<int> held_;        ///< 0 none, 1 shared, 2 exclusive (per target)
};

template <typename T>
class Window {
 public:
  Window(Communicator& comm, std::span<T> local)
      : handle_(comm, std::as_writable_bytes(local), sizeof(T)) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "window element type must be trivially copyable");
  }

  void put(std::span<const T> src, int target, std::size_t elem_offset) {
    handle_.put_bytes(std::as_bytes(src), target, elem_offset * sizeof(T));
  }

  void get(std::span<T> dst, int target, std::size_t elem_offset) {
    handle_.get_bytes(std::as_writable_bytes(dst), target, elem_offset * sizeof(T));
  }

  void accumulate(std::span<const T> src, int target, std::size_t elem_offset,
                  ReduceOp op) {
    handle_.rmw_bytes(
        std::as_bytes(src), target, elem_offset * sizeof(T),
        [op](std::span<std::byte> dst, std::span<const std::byte> in) {
          reduce_bytes<T>(op, in, dst);
        });
  }

  void flush(int target) { handle_.flush(target); }
  void flush_all() { handle_.flush_all(); }
  void fence() { handle_.fence(); }
  void lock(LockKind kind, int target) { handle_.lock(kind, target); }
  void unlock(int target) { handle_.unlock(target); }

  /// Atomic fetch-then-add of one element; returns the value before the add
  /// (MPI_Fetch_and_op with MPI_SUM).
  T fetch_and_add(int target, std::size_t elem_offset, const T& increment) {
    T before{};
    handle_.fetch_rmw_bytes(
        std::as_bytes(std::span<const T>(&increment, 1)),
        std::as_writable_bytes(std::span<T>(&before, 1)), target,
        elem_offset * sizeof(T),
        [](std::span<std::byte> dst, std::span<const std::byte> in) {
          reduce_bytes<T>(ReduceOp::Sum, in, dst);
        });
    return before;
  }

  /// Atomic compare-and-swap of one element; returns the previous value
  /// (MPI_Compare_and_swap).
  T compare_and_swap(int target, std::size_t elem_offset, const T& expected,
                     const T& desired) {
    struct Args {
      T expected, desired;
    } args{expected, desired};
    static_assert(std::is_trivially_copyable_v<Args>);
    T before{};
    handle_.fetch_rmw_bytes(
        std::as_bytes(std::span<const Args>(&args, 1)),
        std::as_writable_bytes(std::span<T>(&before, 1)), target,
        elem_offset * sizeof(T),
        [](std::span<std::byte> dst_bytes, std::span<const std::byte> src_bytes) {
          const auto& a = *reinterpret_cast<const Args*>(src_bytes.data());
          T& value = *reinterpret_cast<T*>(dst_bytes.data());
          if (value == a.expected) value = a.desired;
        });
    return before;
  }

 private:
  WindowHandle handle_;
};

}  // namespace cbmpi::mpi
