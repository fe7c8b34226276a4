// Rank execution: every rank body of a job runs as a stackful fiber on one of
// W = min(nranks, hardware threads) worker threads.
//
// Rank r always runs on worker floor(r * W / nranks), which owns one ready
// queue, so a fiber never changes OS thread. The workers take contiguous
// blocks of ranks whose sizes differ by at most one; ranks are numbered host
// by host and container by container, so co-resident ranks, which talk
// through shared memory, mostly share a worker and wake each other without
// crossing threads. A fiber leaves its worker only at two points:
//   * park(publish): the rank waits for an event. The fiber switches to its
//     worker first; only then does the worker run `publish`, which either
//     resumes the fiber at once (the event already happened) or makes it
//     reachable for a later wake(). No wake can therefore resume a fiber
//     whose registers are not saved yet.
//   * yield(): an unfinished poll requeues the fiber behind the worker's
//     other ready fibers, so a polling rank cannot hold its worker.
//
// Hang detection: the scheduler counts the job's runnable fibers (ready or
// running). Only a running fiber can wake a parked one, so once the count
// reaches zero while fibers are still live, nothing can ever wake them. The
// scheduler then calls the job's deadlock handler on the worker, while every
// live fiber is parked.
//
// Block recycling: every worker keeps a bounded free list of same-size heap
// blocks (allocate_block/free_block), so the request state the engine creates
// and drops on each message reuses memory instead of reaching malloc. A rank
// creates and releases its requests on its own fiber, which never leaves its
// worker, so each list stays balanced.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

namespace cbmpi::mpi {

class Fiber;
struct FiberWorker;

/// A heap block of `bytes`, taken from the calling worker's free list when
/// that list holds blocks of this size, from the heap otherwise.
void* allocate_block(std::size_t bytes);
/// Frees a block from allocate_block. On a worker it joins the worker's free
/// list, unless the list is full or holds another size; off every worker it
/// goes back to the heap. The lists are freed when their workers stop, at
/// the end of RankScheduler::run.
void free_block(void* block, std::size_t bytes) noexcept;

class RankScheduler {
 public:
  /// `on_deadlock` runs on a worker thread, outside every fiber, when all
  /// live fibers are parked; it must wake at least one of them for good
  /// (the runtime's aborts the job, which wakes them all).
  explicit RankScheduler(std::function<void()> on_deadlock);
  ~RankScheduler();

  RankScheduler(const RankScheduler&) = delete;
  RankScheduler& operator=(const RankScheduler&) = delete;

  /// Runs body(r) as a fiber for every r in [0, nranks) and returns once all
  /// of them returned. `body` must not throw: the fiber entry is noexcept.
  /// The calling thread serves as worker 0.
  void run(int nranks, const std::function<void(int)>& body);

  /// Parks the calling fiber. On its worker, after the switch,
  /// publish(fiber) runs: it returns false to resume the fiber at once, or
  /// true once a later wake(fiber) can find it.
  template <typename Publish>
  static void park(Publish&& publish) {
    park_with(
        [](void* ctx, Fiber* fiber) {
          return (*static_cast<std::remove_reference_t<Publish>*>(ctx))(fiber);
        },
        &publish);
  }

  /// Requeues the calling fiber behind its worker's other ready fibers.
  static void yield();

  /// Makes a parked fiber ready again. Callable from any thread.
  static void wake(Fiber* fiber);

 private:
  friend struct FiberWorker;
  static void park_with(bool (*publish)(void*, Fiber*), void* ctx);
  /// A fiber of this job left the runnable set: it parked (`finished` =
  /// false) or returned.
  void leave_runnable(bool finished);
  void stop_workers();

  std::function<void()> on_deadlock_;
  std::vector<std::unique_ptr<FiberWorker>> workers_;
  std::atomic<int> live_{0};
  std::atomic<int> runnable_{0};
};

}  // namespace cbmpi::mpi
