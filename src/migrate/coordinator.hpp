// Quiesce coordinator: the rendezvous point between the migration engine
// and the runtime's coordinated-checkpoint hook (Process::checkpoint).
//
// The engine runs a job as two segments. During the first it installs a
// Coordinator in the JobConfig; every rank's checkpoint() call then asks
// decide() whether this round boundary is the quiesce point. The decision
// is memoized per round, so all ranks — already aligned to one virtual
// instant by the runtime's phase alignment (JobState::phase), with every
// in-flight send drained through the matcher — give the same answer. A
// rank released from that alignment returns from it even if a faster
// peer's QuiesceInterrupt has already aborted the job, so every rank
// reaches the save below. On the firing round each rank saves
// its state here and unwinds with QuiesceInterrupt; once all ranks have
// saved, fired() flips and the engine builds the resume segment from the
// captured image.
//
// Determinism: decide() keys on (round, aligned virtual time) only. The
// fabric model's record/apply passes reset the coordinator via
// begin_attempt() and decide independently — exactly like the per-attempt
// CheckpointStore — so the state that survives is always the last (apply)
// pass's, computed from the same virtual times on every rerun.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/units.hpp"

namespace cbmpi::migrate {

/// Thrown by Process::checkpoint on every rank of a quiescing job once its
/// snapshot is saved: a clean unwind of the job body, not a failure. The
/// runtime's root-cause scan ignores it the way it ignores AbortedError.
struct QuiesceInterrupt {};

class Coordinator {
 public:
  /// Quiesce at the first round boundary whose aligned time reaches `epoch`,
  /// after at least `min_rounds` completed rounds.
  explicit Coordinator(Micros epoch, int min_rounds = 1);

  /// Resets captured state for one run_job attempt (fabric record/apply
  /// passes each quiesce from scratch). Called by the runtime before rank
  /// threads start.
  void begin_attempt(int nranks);

  /// Uniform per-round verdict: true exactly once, on the firing round.
  bool decide(int round, Micros aligned);

  /// Deposits one rank's snapshot plus its matcher depth at the aligned
  /// instant (drain evidence: 0 once eager backlogs are consumed).
  void save(int rank, int round, Micros aligned, std::vector<std::uint8_t> state,
            std::uint64_t pending_msgs);

  /// True once every rank of the current attempt has saved.
  bool fired() const;

  Micros epoch() const { return epoch_; }
  int round() const;
  Micros at() const;
  Bytes total_bytes() const;
  std::uint64_t drained_pending() const;
  std::vector<std::vector<std::uint8_t>> take_state();

 private:
  const Micros epoch_;
  const int min_rounds_;

  mutable std::mutex mutex_;
  int nranks_ = 0;
  int saves_ = 0;
  bool fired_ = false;
  int decided_round_ = -1;
  bool verdict_ = false;
  int round_ = -1;
  Micros at_ = 0.0;
  std::uint64_t pending_msgs_ = 0;
  std::vector<std::vector<std::uint8_t>> state_;
};

}  // namespace cbmpi::migrate
