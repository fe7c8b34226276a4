// ADI3-like progress engine: byte-level point-to-point protocols.
//
// One engine per rank, driven by that rank's fiber. It owns the list of
// posted (pending) receives and implements the eager and rendezvous
// protocols over whichever channel the selector picked.
//
// Progress semantics mirror a single-threaded MPI library without an async
// progress thread: transfers advance only inside MPI calls. Any blocking
// call (and every test) progresses *all* posted receives, not just the one
// being waited on — that is what lets a peer's blocking rendezvous send
// complete while this rank waits on an unrelated request, exactly like a
// real progress engine. Posted receives are matched in post order (see
// Matcher::match_posted), and every blocking call parks the rank in the one
// blocking step, block_until().
//
// Virtual-time rules:
//   * eager completion  = max(posted_at, available_at) + receiver_cost
//   * rendezvous times come from the channel's rndv_times(rts_sent, posted_at)
// Completion times depend only on post/send times (not on when the fiber
// happens to run), which keeps results reproducible.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mpi/fiber.hpp"
#include "mpi/job_state.hpp"
#include "mpi/types.hpp"
#include "osl/process.hpp"
#include "osl/shm.hpp"

namespace cbmpi::mpi {

class Adi3Engine {
 public:
  Adi3Engine(JobState& job, int world_rank, osl::SimProcess& proc);

  Adi3Engine(const Adi3Engine&) = delete;
  Adi3Engine& operator=(const Adi3Engine&) = delete;

  int world_rank() const { return rank_; }
  osl::SimProcess& process() { return *proc_; }
  sim::VirtualClock& clock() { return proc_->clock(); }
  JobState& job() { return *job_; }
  const JobState& job() const { return *job_; }
  prof::RankProfile& profile() { return job_->rank_profile(rank_); }

  /// Starts a send; the returned request is complete immediately for eager
  /// transfers and completes via the receiver for rendezvous ones. The data
  /// span must stay valid until the request completes.
  Request start_send(std::span<const std::byte> data, int dst_world, int tag,
                     std::uint64_t comm_id);

  /// Posts a receive. The buffer must stay valid until completion.
  /// With immediate=true the engine progresses every posted receive right
  /// away, so this one completes at once if its message already arrived.
  /// With immediate=false nothing is matched at post time; pair with
  /// complete_in_arrival_order().
  Request post_recv(std::span<std::byte> buffer, int src_world, int tag,
                    std::uint64_t comm_id, bool immediate = true);

  /// Completes every receive in `recvs`, processing messages in *virtual*
  /// arrival order (available_at, src, seq) rather than wall-clock arrival
  /// order — the receiver busy chain then serializes identically
  /// run-to-run no matter how sender fibers were scheduled. Blocks until
  /// all matching messages have been delivered, so every matching send
  /// must already be started and non-blocking (e.g. alltoall, where each
  /// rank posts all transfers before waiting). Wildcard receives are not
  /// supported here.
  void complete_in_arrival_order(std::span<const Request> recvs);

  /// Non-blocking progress + completion check (MPI_Test).
  bool test(const Request& request);

  /// Blocks until the request completes (MPI_Wait); returns its status.
  Status wait(const Request& request);

  void wait_all(std::span<const Request> requests);

  /// MPI_Cancel analogue for receive requests: withdraws a posted receive
  /// that has not completed. No-op if it already completed.
  void cancel(const Request& request);

  /// MPI_Iprobe: is a matching message pending? (world-relative source)
  std::optional<Status> iprobe(int src_world, int tag, std::uint64_t comm_id);

  /// The one blocking step: returns once `done()` holds, parking this
  /// rank's fiber on its matcher in between. It reads the matcher version
  /// before it evaluates `done` and checks for abort, and the park only
  /// sticks if the version has not moved since, so an event that lands after
  /// the check still ends the wait — no wake-up is lost and no timed poll is
  /// needed. Throws AbortedError once the job aborts and `done` still fails:
  /// an event that already happened (a released phase alignment, say) wins
  /// over a later abort.
  template <typename Done>
  void block_until(Done&& done) {
    Matcher& matcher = job_->matcher(rank_);
    while (true) {
      const std::uint64_t seen = matcher.version();
      if (done()) return;
      check_abort();
      RankScheduler::park(
          [&](Fiber* self) { return matcher.park_past(seen, self); });
    }
  }

  /// The oldest posted receive that has not completed; null if none. Only
  /// safe to read while this rank is parked.
  const RequestState* oldest_posted() const {
    return posted_.empty() ? nullptr : posted_.front().get();
  }

  /// Crash injection: throws faults::CrashedError once this rank's virtual
  /// clock crosses its scheduled crash time (JobState::crash_at). Checked at
  /// op boundaries (send start, wait completion, compute, phase alignment),
  /// so detection follows the deterministic virtual clock, never wall time.
  /// No-op (one empty-vector test) when no crash faults are planned.
  void check_crash();

  /// Connects this rank's HCA queue pair to `dst_world` on first use; later
  /// calls only test this engine's bit for that peer.
  void connect_hca(int dst_world);

  /// Fills `ctx` and returns its address when an inter-host HCA transfer
  /// must be routed through the attached fabric; null otherwise (Ideal
  /// model, loopback, or co-located hosts). `seq` keys the flow for the
  /// contention engine.
  const net::TransferCtx* fabric_ctx(int src_rank, int dst_rank,
                                     std::uint64_t seq, bool loopback,
                                     net::TransferCtx& ctx) const;

 private:
  /// Throws AbortedError once the job aborted, after withdraw_sends().
  void check_abort();
  [[noreturn]] void raise_crash();
  /// Withdraws this rank's unfinished rendezvous sends before a failure
  /// unwinds the rank and frees their buffers.
  void withdraw_sends();
  /// Fault injection: charges the sender for transient HCA failures of this
  /// transfer — bounded retries with exponential backoff and deterministic
  /// jitter — and throws (per-rank abort, failing rank identified) once the
  /// retry budget is exhausted. No-op when no injector is attached.
  void charge_hca_retries(int dst_world, std::uint64_t seq, Bytes size);
  /// Completes every posted receive whose message has arrived, in post order.
  void progress_posted();
  /// Non-blocking completion check without the clock advance: progresses
  /// posted receives for a receive request, picks up a finished rendezvous
  /// for a send request.
  bool poll(RequestState& request);
  /// Completes a matched receive under either protocol: the one truncation
  /// check, the eager copy-out (or pull() for a rendezvous), the status and
  /// busy chain, the Proto span and the recv-latency histogram.
  void complete_recv(RequestState& request, fabric::Envelope& env);
  /// Rendezvous only: prices the transfer on its channel (with the pin-down
  /// lookup and the "rndv-reg" span on the HCA), records the fabric flow and
  /// copies the payload out of the sender's buffer.
  fabric::RndvTimes pull(const RequestState& request, fabric::Envelope& env,
                         const net::TransferCtx* ctxp);
  /// NetCongest trace breadcrumb in the apply pass for transfers the settle
  /// step slowed down.
  void trace_congestion(const net::TransferCtx* ctx, int src, int dst,
                        Bytes size, Micros at);

  JobState* job_;
  int rank_;
  osl::SimProcess* proc_;

  /// Observability handles, resolved once at construction when the job has a
  /// metrics registry attached (all null otherwise, so the hot path is one
  /// pointer test). Values are virtual-time-deterministic, so concurrent
  /// atomic bumps still yield bit-identical snapshots. The pin-down cache
  /// counts its own hits, misses and evictions; run_job copies them into the
  /// registry at job end.
  struct ObsHandles {
    obs::Counter* eager_sends = nullptr;
    obs::Counter* rndv_sends = nullptr;
    obs::Counter* channel_ops[fabric::kChannelKinds] = {};
    obs::Histogram* msg_size = nullptr;
    /// Post-to-completion time of each receive, in whole virtual
    /// microseconds. Derived from virtual timestamps only — never from queue
    /// occupancy, which depends on wall-clock drain order.
    obs::Histogram* recv_latency = nullptr;
  };
  ObsHandles obs_;

  /// Stable per-rank buffer identity for the pin-down cache: ids are handed
  /// out in this rank's first-use order, a deterministic function of the
  /// rank's program — never of pointer values or thread scheduling.
  std::uint64_t reg_buffer_id(const void* base);
  std::map<const void*, std::uint64_t> reg_buffer_ids_;

  /// This rank's SHM staging segment, opened on its first SHM eager send;
  /// only this rank's fiber writes it.
  std::shared_ptr<osl::ShmSegment> shm_queue_;
  /// Destinations this rank already has an HCA queue pair to (one bit per
  /// world rank), so only the first transfer to a peer reaches the channel.
  std::vector<bool> hca_connected_;

  std::uint64_t next_seq_ = 0;
  std::vector<Request> posted_;
  /// Rendezvous sends whose receiver may still read the source buffer.
  std::vector<std::shared_ptr<fabric::RndvState>> rndv_sends_;
  /// Receiver-side copies/pulls serialize on this rank's CPU: the next
  /// incoming payload cannot start processing before the previous one
  /// finished. This is what bounds windowed bandwidth to the per-message
  /// receive cost (instead of letting a window of receives complete in
  /// parallel virtual time).
  Micros recv_busy_until_ = 0.0;
};

}  // namespace cbmpi::mpi
