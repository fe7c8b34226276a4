// ADI3-like progress engine: byte-level point-to-point protocols.
//
// One engine per rank, driven by that rank's fiber. It owns the list of
// posted (pending) receives and implements the eager and rendezvous
// protocols over whichever channel the selector picked.
//
// Progress semantics mirror a single-threaded MPI library without an async
// progress thread: posting a receive only queues it, and every wait, test
// or iprobe progresses *all* posted receives, not just its own — that is
// what lets a peer's blocking rendezvous send complete while this rank
// waits on an unrelated request, exactly like a real progress engine.
// Posted receives are matched in post order (see Matcher::match_posted),
// and every blocking call parks the rank in the one blocking step,
// block_until().
//
// The eager path is allocation-light: request states come from the worker's
// recycled blocks (fiber.hpp), a send is one fabric::Message block (header
// and payload) from the sender's PayloadHome that one CAS links into the
// receiver's inbox, a matched message moves into its receive request, and
// the engine reuses its own lists, so in steady state an eager message costs
// one heap allocation. The block is freed on the sender's worker: at once
// when the receiver shares that worker, otherwise by the sender in its next
// allocation or progress_posted, after the receiver handed it back. Nothing
// on the message path takes a lock: HCA queue pairs are one bit per peer in
// the rank's own records, an observed job's message metrics are plain
// histograms there too (run_job builds the job's registry from them once
// the workers join), and only this rank's fiber touches its matcher's bins.
// A matched receive whose completion fails leaves the others matched for the
// next progress; ~Adi3Engine, on the rank's fiber, releases the messages of
// any still held, so no request outlives the job holding a block.
//
// The message path carries only user traffic: alltoall() and
// exchange_steps() run every collective over the communicator's exchange in
// host memory (Exchange, job_state.hpp). The sender side of each block
// (send_block) and the receiver side (receive) are the code the message path
// runs, so a block costs, traces and records exactly what its message did,
// SHM's modelled double copy included; only where the bytes and envelope
// wait differs.
//
// Virtual-time rules:
//   * eager completion  = max(posted_at, available_at) + receiver_cost
//   * rendezvous times come from the channel's rndv_times(rts_sent, posted_at)
// Completion times depend only on post/send times (not on when the fiber
// happens to run), which keeps results reproducible.
#pragma once

#include <cstdint>
#include <exception>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mpi/fiber.hpp"
#include "mpi/job_state.hpp"
#include "mpi/types.hpp"
#include "osl/process.hpp"

namespace cbmpi::mpi {

class Adi3Engine {
 public:
  Adi3Engine(JobState& job, int world_rank, osl::SimProcess& proc);

  Adi3Engine(const Adi3Engine&) = delete;
  Adi3Engine& operator=(const Adi3Engine&) = delete;
  ~Adi3Engine();

  int world_rank() const { return rank_; }
  osl::SimProcess& process() { return *proc_; }
  sim::VirtualClock& clock() { return proc_->clock(); }
  JobState& job() { return *job_; }
  const JobState& job() const { return *job_; }
  /// This rank's records; only this rank's fiber writes them.
  RankRecords& records() { return job_->records(rank_); }
  prof::RankProfile& profile() { return records().profile; }

  /// Starts a send; the returned request is complete immediately for eager
  /// transfers and completes via the receiver for rendezvous ones. The data
  /// span must stay valid until the request completes.
  Request start_send(std::span<const std::byte> data, int dst_world, int tag,
                     std::uint64_t comm_id);

  /// Posts a receive. The buffer must stay valid until completion. Nothing
  /// is matched at post time: the next wait, test or iprobe does that.
  Request post_recv(std::span<std::byte> buffer, int src_world, int tag,
                    std::uint64_t comm_id);

  /// The spread alltoall over `exchange`, as its comm rank `me`: the
  /// `block` bytes at `send` + d * block go to comm rank d, and the block
  /// from comm rank s lands at `recv` + s * block. Blocks are priced and
  /// published in send order, then, once every member has published,
  /// received in *virtual* arrival order (available_at, src, seq), so the
  /// busy chain does not depend on how the fibers were scheduled. The clock
  /// advances where wait_all over the receives, then the sends, would advance
  /// it, and every wait progresses posted receives.
  void alltoall(Exchange& exchange, int me, std::span<const std::byte> send,
                std::span<std::byte> recv, std::size_t block, int tag);

  /// One phase of a collective over `exchange`, as its comm rank `me`, named
  /// by `tag` (unique per call and phase): `body(step)` runs this rank's
  /// `count` steps (Exchange::Step) one at a time and does its local work (a
  /// reduction, a pack) in between. A step runs as the message path ran its
  /// send, receive or sendrecv, at the same virtual times: a receive wait and
  /// a rendezvous send's wait progress posted receives first, an eager
  /// send's does not, and a rendezvous step returns once its block is pulled.
  /// An eager block is copied into its entry, as into its message block, so
  /// the phase returns at once unless a step was `in_place`; then it returns
  /// once that block has been read. A send buffer need only outlive the phase.
  template <typename Body>
  void exchange_steps(Exchange& exchange, int me, int tag, int count, Body&& body) {
    if (count == 0) return;
    begin_phase(exchange, me, tag, count);
    const WithdrawOnThrow withdraw_on_throw{*this, exchange.slot(me)};
    body([this](const Exchange::Step& step) { run_step(step); });
    end_phase();
  }

  /// The collective call a rank is in: its kind (`allreduce`) and its
  /// 1-based sequence number among its communicator's collectives. `kind` is
  /// null outside any collective.
  struct CollectiveCall {
    const char* kind = nullptr;
    std::uint64_t seq = 0;
  };

  /// One collective call on this rank, open from its entry until it
  /// returns. Every exchange phase publishes its kind, and while it is open
  /// describe_wait names the call. Scopes nest; each restores the outer one.
  class CollectiveScope {
   public:
    CollectiveScope(Adi3Engine& engine, CollectiveCall call)
        : engine_(engine), outer_(std::exchange(engine.collective_, call)) {}
    ~CollectiveScope() { engine_.collective_ = outer_; }
    CollectiveScope(const CollectiveScope&) = delete;
    CollectiveScope& operator=(const CollectiveScope&) = delete;

   private:
    Adi3Engine& engine_;
    CollectiveCall outer_;
  };

  /// Non-blocking progress + completion check (MPI_Test).
  bool test(const Request& request);

  /// Blocks until the request completes (MPI_Wait); returns its status.
  Status wait(const Request& request);

  void wait_all(std::span<const Request> requests);

  /// MPI_Cancel analogue for receive requests: withdraws a posted receive
  /// that has not matched. No-op if it already completed; throws Error if it
  /// matched a message it has not completed with yet.
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

  /// Out-of-band phase alignment, named `what` (`sync_time`, `checkpoint
  /// quiesce`): waits for every rank at the job's PhaseAlignment, advances
  /// this clock to the max over all ranks' clocks and returns that instant.
  Micros align_clocks(const char* what);

  /// What this rank is blocked on, for DeadlockError: the phase alignment
  /// it waits in and how many ranks arrived, or the collective it is in, by
  /// its CollectiveScope number (and the exchange step), and what its
  /// exchange waits for, else its oldest posted receive. Only safe to call
  /// while this rank is parked.
  void describe_wait(std::ostream& os) const;

  /// Crash injection: throws faults::CrashedError once this rank's virtual
  /// clock crosses its scheduled crash time (JobState::crash_at). Checked at
  /// op boundaries (send start, wait completion, compute, phase alignment),
  /// so detection follows the deterministic virtual clock, never wall time.
  /// No-op (one empty-vector test) when no crash faults are planned.
  void check_crash();

  /// Connects this rank's HCA queue pair to `dst_world`: sets that peer's
  /// bit in this rank's RankRecords::hca_peers.
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
  /// Completes the receives of matched_ in their list order.
  void complete_matched();
  /// Non-blocking completion check without the clock advance: progresses
  /// posted receives for a receive request, picks up a finished rendezvous
  /// for a send request.
  bool poll(RequestState& request);
  /// Where send_block puts one transfer's envelope and, if it is eager, its
  /// payload bytes: exactly the data's size, or empty when the receiver
  /// copies straight from the data (the exchange).
  struct SendTarget {
    fabric::Envelope& env;
    std::span<std::byte> payload;
  };
  /// The sender's side of one transfer, for start_send and alltoall alike:
  /// the crash check, channel selection, the profile's channel count and
  /// the rank's message-size record, the sequence number, the HCA queue pair
  /// and fault retries, then either the eager costs, SHM's host and IPC
  /// namespace check, copy, flow record and trace event, or the RTS
  /// overhead, sender pin-down lookup and RndvState.
  /// `place(eager)` returns where the envelope and eager bytes go.
  template <typename Place>
  const fabric::Envelope& send_block(std::span<const std::byte> data, int dst_world,
                                     int tag, std::uint64_t comm_id, Place&& place);
  /// Completes a matched receive from the message the matcher moved into
  /// it, and releases the message.
  void complete_recv(RequestState& request);
  /// The receiver's side of one transfer, under either protocol, for
  /// complete_recv and alltoall alike: the one truncation check, the eager
  /// copy-out of `payload` (or pull() and RndvState::complete for a
  /// rendezvous), the busy chain, the trace events, the Proto span and the
  /// rank's recv-latency record. Returns the receive's completion time.
  Micros receive(const fabric::Envelope& env, std::span<const std::byte> payload,
                 std::span<std::byte> buffer, Micros posted_at);
  /// Rendezvous only: prices the transfer on its channel (with the pin-down
  /// lookup and the "rndv-reg" span on the HCA), records the fabric flow and
  /// copies the payload out of the sender's buffer.
  fabric::RndvTimes pull(std::span<std::byte> buffer, Micros posted_at,
                         const fabric::Envelope& env, const net::TransferCtx* ctxp);
  /// From a call's or phase's first publish until it leaves, peers may read
  /// the owner's send buffers, which an exception (a truncated block, say)
  /// frees as it unwinds the caller: one that leaves withdraws the slot and
  /// the rendezvous sends first.
  struct WithdrawOnThrow {
    Adi3Engine& engine;
    Exchange::Slot& slot;
    int in_flight = std::uncaught_exceptions();
    ~WithdrawOnThrow() {
      if (std::uncaught_exceptions() == in_flight) return;
      slot.guard.withdraw();
      engine.withdraw_sends();
    }
  };
  /// block_until for the exchange: while `done` fails it progresses posted
  /// receives, and describe_wait reports that phase_ waits for comm rank
  /// `from`'s entry, for comm rank `to` to pull its rendezvous block, or
  /// (both -1) for its entries to be read or, in alltoall, for every member.
  template <typename Done>
  void wait_in(int from, int to, Done&& done);
  /// Receives the block of entry `entry` of comm rank `from`'s slot into
  /// `buffer` through the slot's guard (AbortedError once the owner withdrew),
  /// counts the read off that slot and pokes the owner when it was the last
  /// one and the owner waits for it, or a rendezvous pull. Returns the
  /// receive's completion time. Throws an Error when the owner is in another
  /// collective or the block is shorter than `buffer`, and TruncationError
  /// when it is longer.
  Micros read_entry(Exchange& exchange, int from, int entry,
                    std::span<std::byte> buffer, Micros posted_at);
  /// Before this rank's first publish in a call or phase named `tag`: waits
  /// until every block it published before has been read, hides its entries
  /// from readers still scanning them, then publishes the open collective's
  /// kind and sizes the entries to `entries`. So an owner runs at most one
  /// phase ahead of its slowest reader.
  void claim_slot(Exchange::Slot& mine, int tag, int entries);
  /// Waits until every block this rank published has been read.
  void wait_for_readers(Exchange::Slot& mine);
  /// exchange_steps' parts: begin_phase starts the phase, run_step runs one
  /// step, and end_phase waits until its in-place blocks have been read.
  void begin_phase(Exchange& exchange, int me, int tag, int count);
  void run_step(const Exchange::Step& step);
  void end_phase();
  /// Waits for the phase's next entry of comm rank `from` addressed to this
  /// rank (Exchange) and returns its index.
  int next_entry_from(int from);
  /// NetCongest trace breadcrumb in the apply pass for transfers the settle
  /// step slowed down.
  void trace_congestion(const net::TransferCtx* ctx, int src, int dst,
                        Bytes size, Micros at);

  JobState* job_;
  int rank_;
  osl::SimProcess* proc_;

  /// Stable per-rank buffer identity for the pin-down cache: ids are handed
  /// out in this rank's first-use order, a deterministic function of the
  /// rank's program — never of pointer values or thread scheduling.
  std::uint64_t reg_buffer_id(const void* base);
  std::map<const void*, std::uint64_t> reg_buffer_ids_;

  std::uint64_t next_seq_ = 0;
  std::vector<Request> posted_;
  /// Receives matched and not completed yet, in completion order, from
  /// next_matched_ on; kept so its capacity is reused. Only
  /// complete_matched empties it.
  std::vector<Request> matched_;
  std::size_t next_matched_ = 0;
  /// The collective this rank is in (CollectiveScope).
  CollectiveCall collective_;
  /// The exchange call or phase this rank is in or last ran: alltoall's
  /// (count 0) or exchange_steps' (its step and the entries it has
  /// published), its number among this rank's phases, which marks the
  /// cursors valid in it, what it waits for while it waits (wait_in), and
  /// whether it published a block in place.
  struct Phase {
    Exchange* exchange = nullptr;
    int me = 0;
    int tag = 0;
    int count = 0;
    int step = 0;
    int published = 0;
    std::uint64_t number = 0;
    bool waiting = false;
    int from = -1;
    int to = -1;
    bool in_place = false;
  };
  Phase phase_;
  /// Per comm rank of the phase's exchange: the next entry of that owner to
  /// look at for a block addressed here, valid in the phase it names.
  struct Cursor {
    std::uint64_t phase = 0;
    int next = 0;
  };
  std::vector<Cursor> cursors_;
  /// The phase alignment this rank waits in (align_clocks); null else.
  const char* aligning_ = nullptr;
  /// Scratch of alltoall, kept so its capacity is reused: each peer's
  /// arrival key, gathered once and sorted into virtual arrival order, and
  /// each peer's receive completion time.
  struct Arrival {
    Micros available_at;
    int src;
    std::uint64_t seq;
    int peer;
  };
  std::vector<Arrival> incoming_;
  std::vector<Micros> received_at_;
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
