// Coordinated checkpoint/restart for job bodies.
//
// JobConfig::checkpoint_interval > 0 turns on quiesce-at-barrier snapshots:
// every round, each rank hands its serialized state to
// Process::checkpoint(); the runtime aligns all ranks to one virtual instant
// (the quiesce), makes one *uniform* skip/take/stop decision from the
// aligned time, and commits the snapshot only once every rank has saved — so
// a crash can never leave a torn checkpoint behind. A crashed job rethrown as
// mpi::JobCrashedError carries the last committed CheckpointData; a
// scheduler re-submits the job with JobConfig::restore pointing at it and
// the body resumes from Process::start_round() / restored_state().
//
// JobConfig::stop_at > 0 adds a stop rule to the same store: at the first
// boundary past that instant every rank saves through the same path, the
// image goes to JobResult::stop instead of the restart point, and the body
// unwinds with QuiesceInterrupt. A live migration (src/migrate/) is such a
// stop followed by an ordinary restore on the new placement.
//
// Determinism: the verdict is a pure function of the aligned virtual time
// (identical on every rank) and the store's history; it is memoized per
// round so it is independent of which rank's fiber evaluates it first.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "fabric/reg_cache.hpp"
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

/// Thrown by Process::checkpoint on every rank of a stopping job once its
/// state is saved: a clean unwind of the job body, not a failure. The
/// runtime's root-cause scan ignores it the way it ignores AbortedError.
struct QuiesceInterrupt {};

/// What a job stopped by JobConfig::stop_at leaves behind.
struct StopImage {
  /// Every rank's state at the stop boundary; never a restart point of the
  /// stopped run, but the `restore` of the run that resumes it.
  CheckpointData checkpoint;
  /// Matcher depth summed over ranks at the stop (drain evidence: 0 once
  /// every in-flight send was consumed before the boundary).
  std::uint64_t pending_msgs = 0;
  /// Each rank's live pin-down entries at job end, MRU first (filled by the
  /// runtime under TuningParams::reg_model, else empty).
  std::vector<std::vector<fabric::RegCacheEntry>> reg_entries;
};

/// Per-job checkpoint coordinator, shared by all ranks of the job.
class CheckpointStore {
 public:
  enum class Verdict { Skip, Take, Stop };

  /// `interval` <= 0 disables periodic checkpoints, `stop_at` <= 0 the stop
  /// rule; with both off the store only serves the restore snapshot.
  CheckpointStore(int nranks, Micros interval, Micros stop_at,
                  std::shared_ptr<const CheckpointData> restore);

  /// True when round boundaries can produce a snapshot (periodic or stop).
  bool active() const { return interval_ > 0.0 || stop_at_ > 0.0; }
  /// The snapshot this run resumed from (null for a fresh run).
  const CheckpointData* restore() const { return restore_.get(); }

  /// Uniform verdict for `round` at aligned time `aligned`. Stop fires once,
  /// at the first boundary with round >= 1 and aligned >= stop_at; it is
  /// checked before the periodic rule and leaves its schedule alone. Memoized
  /// per round: the first rank to ask computes it, every other rank reads the
  /// same verdict (all callers pass the same `aligned`).
  Verdict decide(int round, Micros aligned);

  /// Stores one rank's state for a round decide() said Take or Stop for;
  /// `pending_msgs` is the rank's matcher depth, summed into a stop image. A
  /// Take snapshot commits — becomes the restart point — only when the last
  /// rank saves; a rank crashing before its save leaves the previous snapshot
  /// in place, never a torn one. A Stop image completes into stopped().
  void save(int rank, int round, Micros aligned,
            std::vector<std::uint8_t> state, std::uint64_t pending_msgs);

  /// True once every rank saved the stop image.
  bool stopped() const;
  /// Moves the completed stop image out; requires stopped().
  StopImage take_stop();

  /// The best restart point right now: the newest snapshot committed during
  /// this run, else the restore snapshot, else null.
  std::shared_ptr<const CheckpointData> committed() const;

  /// Checkpoints committed during this run, in virtual-time order (the stop
  /// image is not one).
  std::vector<CheckpointEvent> events() const;

  /// Modelled virtual cost of writing `bytes` of state (per rank): a base
  /// latency plus a streaming term. Restore reads cost the same.
  static Micros snapshot_cost(Bytes bytes);

 private:
  const int nranks_;
  const Micros interval_;
  const Micros stop_at_;
  const std::shared_ptr<const CheckpointData> restore_;

  mutable std::mutex mutex_;
  Micros next_due_;
  std::map<int, Verdict> decisions_;
  std::unique_ptr<CheckpointData> pending_; ///< being written this round
  int pending_saves_ = 0;
  bool pending_stop_ = false;               ///< pending_ is the stop image
  std::uint64_t pending_msgs_ = 0;
  bool stop_decided_ = false;
  std::unique_ptr<StopImage> stopped_;
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
