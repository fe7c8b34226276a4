// Coordinated checkpoint/restart for job bodies.
//
// JobConfig::checkpoint_interval > 0 turns on quiesce-at-barrier snapshots:
// every round, each rank hands its serialized state to
// Process::checkpoint(); the runtime aligns all ranks to one virtual instant
// (the quiesce), makes one *uniform* take/skip decision from the aligned
// time, and commits the snapshot only once every rank has saved — so a
// crash can never leave a torn checkpoint behind. A crashed job rethrown as
// mpi::JobCrashedError carries the last committed CheckpointData; a
// scheduler re-submits the job with JobConfig::restore pointing at it and
// the body resumes from Process::start_round() / restored_state().
//
// Determinism: the take/skip decision is a pure function of the aligned
// virtual time (identical on every rank) and the store's committed history;
// it is memoized per round so the verdict is independent of which rank's
// thread evaluates it first.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "faults/fault.hpp"

namespace cbmpi::mpi {

/// One committed coordinated snapshot: every rank's opaque state bytes at
/// one aligned virtual instant, after `round` completed body rounds.
struct CheckpointData {
  int round = 0;    ///< completed body rounds at the snapshot
  Micros at = 0.0;  ///< aligned job-local virtual time it was taken
  /// Cumulative virtual work this snapshot preserves across attempts:
  /// (restore snapshot's progress, if any) + `at`.
  Micros progress_us = 0.0;
  std::vector<std::vector<std::uint8_t>> rank_state;  ///< per world rank

  Bytes total_bytes() const;
};

/// Report-friendly record of one committed checkpoint (no payload).
struct CheckpointEvent {
  int round = 0;
  Micros at = 0.0;
  Bytes bytes = 0;
};

/// Per-job checkpoint coordinator, shared by all ranks of the job.
class CheckpointStore {
 public:
  /// `interval` <= 0 disables new checkpoints (restore-only store).
  CheckpointStore(int nranks, Micros interval,
                  std::shared_ptr<const CheckpointData> restore);

  Micros interval() const { return interval_; }
  bool taking() const { return interval_ > 0.0; }
  /// The snapshot this run resumed from (null for a fresh run).
  const CheckpointData* restore() const { return restore_.get(); }

  /// Uniform take/skip decision for `round` at aligned time `aligned`.
  /// Memoized per round: the first rank to ask computes it, every other rank
  /// reads the same verdict (all callers pass the same `aligned`).
  bool decide(int round, Micros aligned);

  /// Stores one rank's state for a round decide() said `true` for. The
  /// snapshot commits — becomes the restart point — only when the last rank
  /// saves; a rank crashing before its save leaves the previous snapshot in
  /// place, never a torn one.
  void save(int rank, int round, Micros aligned,
            std::vector<std::uint8_t> state);

  /// The best restart point right now: the newest snapshot committed during
  /// this run, else the restore snapshot, else null.
  std::shared_ptr<const CheckpointData> committed() const;

  /// Checkpoints committed during this run, in virtual-time order.
  std::vector<CheckpointEvent> events() const;

  /// Modelled virtual cost of writing `bytes` of state (per rank): a base
  /// latency plus a streaming term. Restore reads cost the same.
  static Micros snapshot_cost(Bytes bytes);

 private:
  const int nranks_;
  const Micros interval_;
  const std::shared_ptr<const CheckpointData> restore_;

  mutable std::mutex mutex_;
  Micros next_due_;
  std::map<int, bool> decisions_;           ///< round -> take?
  std::unique_ptr<CheckpointData> pending_; ///< being written this round
  int pending_saves_ = 0;
  std::shared_ptr<const CheckpointData> committed_;
  std::vector<CheckpointEvent> events_;
};

/// Thrown out of run_job when the root-cause failure was a crash-class
/// fault: carries the CrashInfo plus the last committed checkpoint so a
/// scheduler can requeue the job without losing checkpointed progress.
class JobCrashedError : public faults::CrashedError {
 public:
  JobCrashedError(std::string what, faults::CrashInfo info,
                  std::shared_ptr<const CheckpointData> checkpoint,
                  int checkpoints_committed)
      : faults::CrashedError(std::move(what), info),
        checkpoint_(std::move(checkpoint)),
        checkpoints_committed_(checkpoints_committed) {}

  /// Best restart point (newest committed snapshot, possibly inherited from
  /// a previous attempt); null when the job never checkpointed.
  const std::shared_ptr<const CheckpointData>& checkpoint() const {
    return checkpoint_;
  }
  /// Checkpoints committed during the crashed attempt itself.
  int checkpoints_committed() const { return checkpoints_committed_; }

 private:
  std::shared_ptr<const CheckpointData> checkpoint_;
  int checkpoints_committed_ = 0;
};

}  // namespace cbmpi::mpi
