#include "mpi/checkpoint.hpp"

#include "common/error.hpp"

namespace cbmpi::mpi {

namespace {
// Snapshot cost model: local staging write of the rank's state. A small
// fixed syscall/metadata latency plus ~2 GB/s streaming throughput.
constexpr Micros kSnapshotBaseCost = 5.0;
constexpr double kSnapshotUsPerByte = 0.0005;
}  // namespace

Bytes CheckpointData::total_bytes() const {
  Bytes total = 0;
  for (const auto& state : rank_state) total += state.size();
  return total;
}

Micros CheckpointStore::snapshot_cost(Bytes bytes) {
  return kSnapshotBaseCost + kSnapshotUsPerByte * static_cast<double>(bytes);
}

CheckpointStore::CheckpointStore(int nranks, Micros interval, Micros stop_at,
                                 std::shared_ptr<const CheckpointData> restore)
    : nranks_(nranks),
      interval_(interval),
      stop_at_(stop_at),
      restore_(std::move(restore)),
      next_due_(interval) {
  CBMPI_REQUIRE(nranks > 0, "checkpoint store needs at least one rank");
  if (restore_)
    CBMPI_REQUIRE(restore_->rank_state.size() == static_cast<std::size_t>(nranks),
                  "restore snapshot has ", restore_->rank_state.size(),
                  " rank states, the job has ", nranks, " ranks");
}

CheckpointStore::Verdict CheckpointStore::decide(int round, Micros aligned) {
  if (!active()) return Verdict::Skip;
  std::lock_guard lock(mutex_);
  const auto [it, inserted] = decisions_.try_emplace(round, Verdict::Skip);
  if (!inserted) return it->second;
  if (stop_at_ > 0.0 && !stop_decided_ && round >= 1 && aligned >= stop_at_) {
    it->second = Verdict::Stop;
    stop_decided_ = true;
  } else if (interval_ > 0.0 && aligned >= next_due_) {
    it->second = Verdict::Take;
    next_due_ = aligned + interval_;
  } else {
    return Verdict::Skip;
  }
  pending_ = std::make_unique<CheckpointData>();
  pending_->round = round;
  pending_->at = aligned;
  pending_->progress_us = (restore_ ? restore_->progress_us : 0.0) + aligned;
  pending_->rank_state.resize(static_cast<std::size_t>(nranks_));
  pending_saves_ = 0;
  pending_stop_ = it->second == Verdict::Stop;
  pending_msgs_ = 0;
  return it->second;
}

void CheckpointStore::save(int rank, int round, Micros aligned,
                           std::vector<std::uint8_t> state,
                           std::uint64_t pending_msgs) {
  std::lock_guard lock(mutex_);
  CBMPI_REQUIRE(pending_ && pending_->round == round,
                "checkpoint save for round ", round,
                " without a matching decide()");
  CBMPI_REQUIRE(rank >= 0 && rank < nranks_, "checkpoint save by rank ", rank);
  auto& slot = pending_->rank_state[static_cast<std::size_t>(rank)];
  CBMPI_REQUIRE(slot.empty() || state.empty(),
                "rank ", rank, " saved twice for round ", round);
  slot = std::move(state);
  pending_msgs_ += pending_msgs;
  if (++pending_saves_ < nranks_) return;
  if (pending_stop_) {
    stopped_ = std::make_unique<StopImage>();
    stopped_->checkpoint = std::move(*pending_);
    stopped_->pending_msgs = pending_msgs_;
    pending_.reset();
    return;
  }
  committed_ = std::shared_ptr<const CheckpointData>(std::move(pending_));
  events_.push_back({round, aligned, committed_->total_bytes()});
}

bool CheckpointStore::stopped() const {
  std::lock_guard lock(mutex_);
  return stopped_ != nullptr;
}

StopImage CheckpointStore::take_stop() {
  std::lock_guard lock(mutex_);
  CBMPI_REQUIRE(stopped_, "take_stop before every rank saved the stop image");
  StopImage image = std::move(*stopped_);
  stopped_.reset();
  return image;
}

std::shared_ptr<const CheckpointData> CheckpointStore::committed() const {
  std::lock_guard lock(mutex_);
  return committed_ ? committed_ : restore_;
}

std::vector<CheckpointEvent> CheckpointStore::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

}  // namespace cbmpi::mpi
