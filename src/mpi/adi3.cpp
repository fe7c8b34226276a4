#include "mpi/adi3.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <sstream>
#include <tuple>

#include "common/error.hpp"

namespace cbmpi::mpi {

namespace {
/// CPU cost of posting an RTS descriptor.
constexpr Micros kRtsPostOverhead = 0.10;

/// Fault recovery: an HCA transfer that hits a transient send/completion
/// failure is retried up to kHcaMaxRetries times before the rank aborts.
/// Retry i backs off kHcaRetryBackoff * kHcaRetryBackoffFactor^i (plus
/// deterministic jitter), charged to the sender's virtual clock.
constexpr int kHcaMaxRetries = 6;
constexpr Micros kHcaRetryBackoff = 4.0;
constexpr double kHcaRetryBackoffFactor = 2.0;

/// Job-unique transfer id: seq is per-sender-engine, so (src, seq) names one
/// message. Links the sender's hand-off to the receiver-side Proto span for
/// the analysis engine and Perfetto flow arrows.
std::int64_t transfer_id(const fabric::Envelope& env) {
  return (static_cast<std::int64_t>(env.src) << 32) |
         static_cast<std::int64_t>(env.seq & 0xffffffffu);
}

/// allocate_shared's allocator for request states: the state and its
/// control block share one block from the worker's free list (fiber.hpp).
template <typename T>
struct WorkerAllocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  WorkerAllocator() = default;
  template <typename U>
  WorkerAllocator(const WorkerAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) { return static_cast<T*>(allocate_block(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) noexcept { free_block(p, n * sizeof(T)); }
  bool operator==(const WorkerAllocator&) const = default;
};

Request make_request() {
  return std::allocate_shared<RequestState>(WorkerAllocator<RequestState>());
}

}  // namespace

// A note on MPI_Test/MPI_Iprobe time: an idle poll advances *no* virtual
// time. A wall-clock polling loop may spin thousands of times waiting for a
// peer thread to be scheduled, and charging each spin would couple virtual
// time to host scheduling noise. The true waiting cost is captured exactly
// once, by the advance_to() jump to the request's completion time — which the
// profiler attributes to the MPI_Test/MPI_Wait call that observed completion,
// just like mpiP attributes polling time in the real library.

Adi3Engine::Adi3Engine(JobState& job, int world_rank, osl::SimProcess& proc)
    : job_(&job), rank_(world_rank), proc_(&proc) {
  CBMPI_REQUIRE(world_rank >= 0 && world_rank < job.nranks, "bad world rank");
}

std::uint64_t Adi3Engine::reg_buffer_id(const void* base) {
  return reg_buffer_ids_.try_emplace(base, reg_buffer_ids_.size())
      .first->second;
}

void Adi3Engine::connect_hca(int dst_world) {
  auto& peers = records().hca_peers;
  if (peers.empty()) peers.resize(static_cast<std::size_t>(job_->nranks));
  peers[static_cast<std::size_t>(dst_world)] = true;
}

const net::TransferCtx* Adi3Engine::fabric_ctx(int src_rank, int dst_rank,
                                               std::uint64_t seq, bool loopback,
                                               net::TransferCtx& ctx) const {
  if (job_->fabric == nullptr || loopback) return nullptr;
  ctx.src_host = job_->rank_phys_host[static_cast<std::size_t>(src_rank)];
  ctx.dst_host = job_->rank_phys_host[static_cast<std::size_t>(dst_rank)];
  if (ctx.src_host == ctx.dst_host) return nullptr;
  ctx.key = {src_rank, seq};
  return &ctx;
}

void Adi3Engine::trace_congestion(const net::TransferCtx* ctx, int src, int dst,
                                  Bytes size, Micros at) {
  if (ctx == nullptr || job_->congestion == nullptr || !job_->record_trace)
    return;
  const double factor = job_->congestion->factor(ctx->key);
  if (factor <= 1.0) return;
  std::ostringstream os;
  os << "x" << factor << " over " << job_->fabric->hops(ctx->src_host, ctx->dst_host)
     << " hops";
  records().trace.push_back({sim::TraceKind::NetCongest, src, dst, size, at, os.str()});
}

template <typename Place>
const fabric::Envelope& Adi3Engine::send_block(std::span<const std::byte> data,
                                               int dst_world, int tag,
                                               std::uint64_t comm_id, Place&& place) {
  check_crash();
  const Bytes size = data.size();
  const auto decision = job_->selector->select(rank_, dst_world, size);
  profile().add_channel_op(decision.channel, size);
  const bool eager = decision.protocol == fabric::Protocol::Eager;
  if (job_->record_spans) {
    records().message_bytes.observe(size);
    if (!eager) ++records().rndv_sends;
  }
  const std::uint64_t seq = next_seq_++;
  if (decision.channel == fabric::ChannelKind::Hca) {
    connect_hca(dst_world);
    // Transient send/completion failures (injected) retry here, before the
    // successful attempt's cost is charged; the backoff time lands on the
    // sender's clock and therefore delays available_at for the receiver.
    charge_hca_retries(dst_world, seq, size);
  }

  const SendTarget target = place(eager);
  fabric::Envelope& env = target.env;
  env.src = rank_;
  env.dst = dst_world;
  env.tag = tag;
  env.comm_id = comm_id;
  env.seq = seq;
  env.channel = decision.channel;
  env.protocol = decision.protocol;
  env.size = size;
  env.same_socket = decision.same_socket;
  env.loopback = decision.loopback;
  env.sriov = decision.sriov;

  if (eager) {
    fabric::EagerCosts costs;
    switch (decision.channel) {
      case fabric::ChannelKind::Shm:
        costs = job_->shm->eager_costs(size, decision.same_socket);
        job_->shm->check_peers(*proc_, *job_->selector->endpoint(dst_world).process);
        break;
      case fabric::ChannelKind::Hca: {
        net::TransferCtx ctx;
        const auto* ctxp = fabric_ctx(rank_, dst_world, seq, decision.loopback, ctx);
        costs = job_->hca->eager_costs(size, decision.loopback, decision.sriov, ctxp);
        if (ctxp != nullptr && job_->record_flows())
          // Injection starts after the descriptor post; the sender-side
          // bandwidth term runs from there.
          records().flows.push_back({ctx.key, ctx.src_host, ctx.dst_host, size,
                                     clock().now() + job_->profile->hca_post_overhead,
                                     decision.sriov});
        trace_congestion(ctxp, rank_, dst_world, size, clock().now());
        break;
      }
      case fabric::ChannelKind::Cma:
        // The selector never routes eager traffic onto CMA.
        CBMPI_REQUIRE(false, "eager protocol on CMA channel — selector bug");
    }
    if (!target.payload.empty()) std::memcpy(target.payload.data(), data.data(), size);
    clock().advance(costs.sender);
    env.sent_at = clock().now();
    env.available_at = clock().now() + costs.delivery;
    env.receiver_cost = costs.receiver;

    if (job_->record_trace)
      records().trace.push_back({sim::TraceKind::SendEager, rank_, dst_world, size,
                                 clock().now(), fabric::to_string(decision.channel)});
    return env;
  }

  // Rendezvous: post the RTS carrying a view of the user buffer; the
  // receiver performs the transfer and reports our completion time back.
  clock().advance(kRtsPostOverhead);
  if (decision.channel == fabric::ChannelKind::Hca && job_->hca->reg_model()) {
    // Sender-side pin-down lookup at RTS time. The pin itself overlaps the
    // CTS handshake inside rndv_times; only the outcome rides the envelope.
    const auto look =
        job_->hca->reg_lookup(rank_, reg_buffer_id(data.data()), size);
    env.reg_sender_hit = look.hit;
    env.reg_sender_extra = look.extra;
  }
  auto rndv = std::make_shared<fabric::RndvState>(data, proc_);
  std::erase_if(rndv_sends_, [](const auto& sent) { return sent->done(); });
  rndv_sends_.push_back(rndv);
  env.sent_at = clock().now();
  env.available_at = clock().now();
  env.rndv = std::move(rndv);

  if (job_->record_trace)
    records().trace.push_back({sim::TraceKind::SendRndvRts, rank_, dst_world, size,
                               clock().now(), fabric::to_string(decision.channel)});
  return env;
}

Request Adi3Engine::start_send(std::span<const std::byte> data, int dst_world, int tag,
                               std::uint64_t comm_id) {
  CBMPI_REQUIRE(dst_world >= 0 && dst_world < job_->nranks,
                "send to invalid rank ", dst_world);
  fabric::MessagePtr message;
  const fabric::Envelope& env =
      send_block(data, dst_world, tag, comm_id, [&](bool eager) {
        message = job_->payload_home(rank_).allocate(eager ? data.size() : 0);
        return SendTarget{message->env, message->payload()};
      });
  auto request = make_request();
  if (env.protocol == fabric::Protocol::Eager) {
    request->kind = RequestState::Kind::SendEager;
    request->complete = true;
    request->complete_at = clock().now();
  } else {
    request->kind = RequestState::Kind::SendRndv;
    request->rndv = env.rndv;
  }
  job_->matcher(dst_world).deliver(std::move(message));
  return request;
}

Request Adi3Engine::post_recv(std::span<std::byte> buffer, int src_world, int tag,
                              std::uint64_t comm_id) {
  auto request = make_request();
  request->kind = RequestState::Kind::Recv;
  request->buffer = buffer;
  request->src_world = src_world;
  request->tag = tag;
  request->comm_id = comm_id;
  request->posted_at = clock().now();
  posted_.push_back(request);
  return request;
}

Adi3Engine::~Adi3Engine() {
  // A receive that a failure left matched but not completed gives its
  // message back here, on this rank's fiber, while the job's homes exist.
  for (const auto& request : matched_) request->message = nullptr;
}

template <typename Done>
void Adi3Engine::wait_in(int from, int to, Done&& done) {
  phase_.waiting = true;
  phase_.from = from;
  phase_.to = to;
  const struct Leave {
    bool& waiting;
    ~Leave() { waiting = false; }
  } leave{phase_.waiting};
  block_until([&] {
    if (done()) return true;
    progress_posted();
    return done();
  });
}

Micros Adi3Engine::read_entry(Exchange& exchange, int from, int entry,
                              std::span<std::byte> buffer, Micros posted_at) {
  Exchange::Slot& slot = exchange.slot(from);
  const Exchange::Entry& block = slot.entries[static_cast<std::size_t>(entry)];
  const fabric::Envelope& env = block.env;
  const char* const kind = collective_.kind;
  if (std::strcmp(slot.kind, kind) != 0) {
    std::ostringstream os;
    os << "rank " << rank_ << " called " << kind << " #" << collective_.seq << " but rank "
       << env.src << " called " << slot.kind << " #" << collective_.seq << " (comm "
       << exchange.comm_id << ")";
    throw Error(os.str());
  }
  // A block fills its receive range exactly; only point-to-point accepts a
  // shorter message.
  if (env.size != buffer.size()) {
    const bool longer = env.size > buffer.size();
    std::ostringstream os;
    os << (longer ? "message truncation" : "short collective block") << ": rank " << rank_
       << " recv(source=" << env.src << ", tag=" << env.tag << ", in " << kind << " #"
       << collective_.seq << ") got " << env.size << " bytes into a " << buffer.size()
       << "-byte buffer";
    if (longer) throw TruncationError(os.str());
    throw Error(os.str());
  }
  Micros received_at = 0.0;
  const auto copy = [&] { received_at = receive(env, block.send, buffer, posted_at); };
  if (!slot.guard.read(copy))
    throw AbortedError("job aborted: rank " + std::to_string(env.src) +
                       " failed before its exchange send completed");
  // A rendezvous sender waits for its pull, and an owner rewrites its slot
  // only once its last reader is done; an owner not waiting yet needs no wake.
  const bool rendezvous = env.protocol == fabric::Protocol::Rendezvous;
  const bool last = slot.readers_left.fetch_sub(1) == 1;
  if ((last && slot.owner_waits.load()) || rendezvous)
    job_->matcher(exchange.world(from)).poke();
  return received_at;
}

void Adi3Engine::alltoall(Exchange& exchange, int me, std::span<const std::byte> send,
                          std::span<std::byte> recv, std::size_t block, int tag) {
  const int n = exchange.size();
  const auto peer_at = [me, n](int step) { return (me + step) % n; };
  const auto at = [block](int peer) { return block * static_cast<std::size_t>(peer); };
  // The message path posted every receive before its first send.
  const Micros posted_at = clock().now();
  phase_ = {&exchange, me, tag, 0, 0, 0, phase_.number + 1};

  // Sender side, in the message path's send order; every block stays in
  // `send`, where its reader copies it from.
  Exchange::Slot& mine = exchange.slot(me);
  claim_slot(mine, tag, n);
  for (int step = 1; step < n; ++step) {
    const int peer = peer_at(step);
    Exchange::Entry& entry = mine.entries[static_cast<std::size_t>(peer)];
    entry.env = {};
    entry.send = send.subspan(at(peer), block);
    send_block(entry.send, exchange.world(peer), tag, exchange.comm_id,
               [&](bool) { return SendTarget{entry.env, {}}; });
  }

  // Publish the slot; the arrival that completes the call wakes the others.
  mine.readers_left.store(n - 1);
  const std::uint64_t call = mine.calls.load() + 1;
  mine.calls.store(call);
  const WithdrawOnThrow withdraw_on_throw{*this, mine};
  const std::uint64_t everyone = call * static_cast<std::uint64_t>(n);
  if (exchange.arrived.fetch_add(1) + 1 == everyone)
    for (int step = 1; step < n; ++step)
      job_->matcher(exchange.world(peer_at(step))).poke();
  wait_in(-1, -1, [&] { return exchange.arrived.load() >= everyone; });

  // Receiver side, in virtual arrival order, so the busy chain is a pure
  // function of the envelopes. Each peer's key is read once, before the sort.
  incoming_.clear();
  for (int step = 1; step < n; ++step) {
    const int peer = peer_at(step);
    const fabric::Envelope& env =
        exchange.slot(peer).entries[static_cast<std::size_t>(me)].env;
    incoming_.push_back({env.available_at, env.src, env.seq, peer});
  }
  std::ranges::sort(incoming_, {}, [](const Arrival& a) {
    return std::tie(a.available_at, a.src, a.seq);
  });
  received_at_.resize(static_cast<std::size_t>(n));
  for (const Arrival& arrival : incoming_)
    received_at_[static_cast<std::size_t>(arrival.peer)] = read_entry(
        exchange, arrival.peer, me, recv.subspan(at(arrival.peer), block), posted_at);

  // What wait_all over the receives did (one progress of the posted queue, a
  // clock advance and crash check per receive), then wait_all over the sends
  // once every reader of this slot is done.
  progress_posted();
  for (int step = 1; step < n; ++step) {
    clock().advance_to(received_at_[static_cast<std::size_t>(peer_at(step))]);
    check_crash();
  }
  wait_for_readers(mine);
  for (int step = 1; step < n; ++step) {
    const auto& rndv = mine.entries[static_cast<std::size_t>(peer_at(step))].env.rndv;
    if (rndv != nullptr) clock().advance_to(rndv->sender_complete_at());
    check_crash();
  }
}

void Adi3Engine::wait_for_readers(Exchange::Slot& mine) {
  // A last reader pokes only an owner that waits here; the flag and the
  // count are sequentially consistent, so one side sees the other.
  mine.owner_waits.store(true);
  wait_in(-1, -1, [&] { return mine.readers_left.load() == 0; });
  mine.owner_waits.store(false);
}

void Adi3Engine::claim_slot(Exchange::Slot& mine, int tag, int entries) {
  // Copies this rank published earlier may still be read; then a reader of
  // another call may still be scanning the entries, so they are hidden and
  // the scans drained before any entry changes.
  wait_for_readers(mine);
  mine.published.store(static_cast<std::uint64_t>(tag) << 32);
  mine.guard.drain();
  mine.kind = collective_.kind;
  if (mine.entries.size() < static_cast<std::size_t>(entries))
    mine.entries.resize(static_cast<std::size_t>(entries));
}

void Adi3Engine::begin_phase(Exchange& exchange, int me, int tag, int count) {
  phase_ = {&exchange, me, tag, count, 0, 0, phase_.number + 1};
  if (cursors_.size() < static_cast<std::size_t>(exchange.size()))
    cursors_.resize(static_cast<std::size_t>(exchange.size()));
}

int Adi3Engine::next_entry_from(int from) {
  Cursor& cursor = cursors_[static_cast<std::size_t>(from)];
  if (cursor.phase != phase_.number) cursor = {phase_.number, 0};
  Exchange::Slot& owner = phase_.exchange->slot(from);
  // The scan also reads entries addressed to other ranks, which no read
  // count covers, so it holds the guard that claim_slot drains.
  const auto addressed_here = [&] {
    const std::uint64_t word = owner.published.load();
    const int published =
        (word >> 32) == static_cast<std::uint64_t>(phase_.tag) ? static_cast<int>(word) : 0;
    for (; cursor.next < published; ++cursor.next)
      if (owner.entries[static_cast<std::size_t>(cursor.next)].env.dst == rank_)
        return true;
    return false;
  };
  wait_in(from, -1, [&] {
    bool found = false;
    owner.guard.hold([&] { found = addressed_here(); });
    return found;
  });
  return cursor.next++;
}

void Adi3Engine::run_step(const Exchange::Step& step) {
  Phase& phase = phase_;
  CBMPI_REQUIRE(phase.step < phase.count, "exchange phase ran past its ", phase.count,
                " steps");
  Exchange& exchange = *phase.exchange;
  Exchange::Slot& mine = exchange.slot(phase.me);
  Micros posted_at = clock().now();
  const fabric::Envelope* sent = nullptr;
  if (step.to >= 0) {
    if (phase.published == 0) claim_slot(mine, phase.tag, phase.count);
    Exchange::Entry& entry = mine.entries[static_cast<std::size_t>(phase.published)];
    entry.env = {};
    entry.send = step.send;
    phase.in_place = phase.in_place || step.in_place;
    sent = &send_block(step.send, exchange.world(step.to), phase.tag, exchange.comm_id,
                       [&](bool eager) {
                         if (!eager || step.in_place) return SendTarget{entry.env, {}};
                         entry.copy.resize(step.send.size());
                         entry.send = entry.copy;
                         return SendTarget{entry.env, entry.copy};
                       });
    mine.readers_left.fetch_add(1);
    mine.published.store(static_cast<std::uint64_t>(phase.tag) << 32 |
                         static_cast<std::uint64_t>(++phase.published));
    job_->matcher(exchange.world(step.to)).poke();
  }
  if (step.from >= 0) {
    if (step.recv_after_send) posted_at = clock().now();
    progress_posted();
    const int entry = next_entry_from(step.from);
    clock().advance_to(read_entry(exchange, step.from, entry, step.recv, posted_at));
    check_crash();
  }
  if (sent != nullptr) {
    if (sent->rndv != nullptr) {
      progress_posted();
      wait_in(-1, step.to, [&] { return sent->rndv->done(); });
      clock().advance_to(sent->rndv->sender_complete_at());
    }
    check_crash();
  }
  ++phase.step;
}

void Adi3Engine::end_phase() {
  CBMPI_REQUIRE(phase_.step == phase_.count, "exchange phase ran ", phase_.step, " of its ",
                phase_.count, " steps");
  if (!phase_.in_place) return;
  wait_for_readers(phase_.exchange->slot(phase_.me));
}

Micros Adi3Engine::align_clocks(const char* what) {
  auto& phase = job_->phase;
  std::unique_lock lock(phase.mutex);
  phase.running_max = std::max(phase.running_max, clock().now());
  Micros aligned = phase.running_max;
  if (++phase.arrived == job_->nranks) {
    phase.published_max = aligned;
    phase.running_max = 0.0;
    phase.arrived = 0;
    ++phase.generation;
    lock.unlock();
    for (auto& matcher : job_->matchers) matcher->poke();
  } else {
    // No rank re-arrives before it has read this generation's max, so
    // published_max is stable once the generation has moved.
    const std::uint64_t mine = phase.generation;
    lock.unlock();
    aligning_ = what;
    block_until([&] {
      const std::scoped_lock guard(phase.mutex);
      aligned = phase.published_max;
      return phase.generation != mine;
    });
    aligning_ = nullptr;
  }
  clock().advance_to(aligned);
  return aligned;
}

void Adi3Engine::describe_wait(std::ostream& os) const {
  if (aligning_ != nullptr) {
    const std::scoped_lock guard(job_->phase.mutex);
    os << " waits in " << aligning_ << ": " << job_->phase.arrived << " of "
       << job_->nranks << " ranks arrived";
    return;
  }
  if (phase_.waiting) {
    // Every exchange runs inside its collective's scope; a phase waiting for
    // its reads after its last step names that step.
    os << " waits in " << collective_.kind << " #" << collective_.seq;
    if (phase_.count > 0)
      os << " step " << std::min(phase_.step + 1, phase_.count) << "/" << phase_.count;
    const Exchange& exchange = *phase_.exchange;
    os << " (comm " << exchange.comm_id << "): ";
    const Exchange::Slot& mine = exchange.slot(phase_.me);
    const std::uint64_t call = mine.calls.load();
    if (phase_.from >= 0)
      os << "rank " << phase_.from << " has not published it";
    else if (phase_.to >= 0)
      os << "rank " << phase_.to << " has not read it";
    else if (phase_.count > 0 && phase_.published == 0)
      os << mine.readers_left.load() << " of its earlier entries not read yet";
    else if (phase_.count > 0 ||
             exchange.arrived.load() >= call * static_cast<std::uint64_t>(exchange.size()))
      os << mine.readers_left.load() << " of its entries not read yet";
    else {
      os << "ranks [";
      const char* sep = "";
      for (int p = 0; p < exchange.size(); ++p) {
        if (exchange.slot(p).calls.load() >= call) continue;
        os << sep << p;
        sep = ", ";
      }
      os << "] have not arrived";
    }
    return;
  }
  const RequestState* recv = oldest_posted();
  if (recv == nullptr) {
    os << " is blocked with no posted receive";
    return;
  }
  const auto field = [&](int value, int wildcard) {
    if (value == wildcard)
      os << "any";
    else
      os << value;
  };
  os << " waits in recv(source=";
  field(recv->src_world, kAnySource);
  os << ", tag=";
  field(recv->tag, kAnyTag);
  os << ", comm=" << recv->comm_id << ")";
}

void Adi3Engine::complete_matched() {
  // Each receive leaves the list before it completes, so one that throws
  // takes no other with it: the rest complete at the next progress.
  while (next_matched_ < matched_.size()) complete_recv(*matched_[next_matched_++]);
  matched_.clear();
  next_matched_ = 0;
}

void Adi3Engine::complete_recv(RequestState& request) {
  // The message leaves the request here, so its block goes back to the
  // sender's home when the receive completes, or fails.
  const fabric::MessagePtr message = std::move(request.message);
  const fabric::Envelope& env = message->env;
  request.complete_at = receive(env, message->payload(), request.buffer, request.posted_at);
  request.status = Status{env.src, env.tag, env.size};
  request.complete = true;
  // The sender may be blocked waiting on this transfer: wake it.
  if (env.protocol == fabric::Protocol::Rendezvous) job_->matcher(env.src).poke();
}

Micros Adi3Engine::receive(const fabric::Envelope& env,
                           std::span<const std::byte> payload,
                           std::span<std::byte> buffer, Micros posted_at) {
  if (env.size > buffer.size()) {
    std::ostringstream os;
    os << "message truncation: rank " << rank_ << " recv(source=" << env.src
       << ", tag=" << env.tag << ", comm=" << env.comm_id << ") got " << env.size
       << " bytes into a " << buffer.size() << "-byte buffer";
    throw TruncationError(os.str());
  }
  const bool eager = env.protocol == fabric::Protocol::Eager;
  net::TransferCtx ctx;
  const net::TransferCtx* ctxp =
      env.channel == fabric::ChannelKind::Hca
          ? fabric_ctx(env.src, rank_, env.seq, env.loopback, ctx)
          : nullptr;

  // Eager: the payload already sits at the receiver; it copies it out once
  // its CPU is free. Rendezvous: the span covers the whole handshake, from
  // RTS availability on.
  fabric::RndvTimes times;
  Micros begin = env.available_at;
  if (eager) {
    if (env.size > 0) std::memcpy(buffer.data(), payload.data(), env.size);
    begin = std::max({posted_at, env.available_at, recv_busy_until_});
    times.receiver_done = begin + env.receiver_cost;
  } else {
    times = pull(buffer, posted_at, env, ctxp);
  }
  const Micros complete_at = times.receiver_done;
  recv_busy_until_ = times.receiver_busy_until > 0.0 ? times.receiver_busy_until
                                                     : times.receiver_done;
  if (!eager) env.rndv->complete(times.sender_done);

  if (job_->record_trace) {
    const char* channel = fabric::to_string(env.channel);
    if (eager) {
      records().trace.push_back({sim::TraceKind::RecvComplete, env.src, rank_, env.size,
                                 complete_at, channel});
    } else {
      records().trace.push_back({sim::TraceKind::RecvRndvCts, rank_, env.src, 0,
                                 posted_at, channel});
      records().trace.push_back({sim::TraceKind::SendRndvData, env.src, rank_, env.size,
                                 complete_at, channel});
    }
  }
  if (job_->record_spans) {
    obs::Span span{eager ? "eager" : "rndv", obs::SpanCat::Proto, rank_, env.src,
                   static_cast<int>(env.channel), env.size, begin, complete_at,
                   fabric::to_string(env.channel)};
    span.xfer = transfer_id(env);
    span.posted_at = posted_at;
    span.sent_at = env.sent_at;
    span.avail_at = env.available_at;
    span.reg_stall = times.reg_stall;
    if (ctxp != nullptr)
      span.stall =
          job_->hca->contention_stall(env.size, env.loopback, env.sriov, ctxp);
    records().spans.push_back(std::move(span));
    records().recv_latency_us.observe(static_cast<std::uint64_t>(complete_at - posted_at));
  }
  return complete_at;
}

fabric::RndvTimes Adi3Engine::pull(std::span<std::byte> buffer, Micros posted_at,
                                   const fabric::Envelope& env,
                                   const net::TransferCtx* ctxp) {
  auto& rndv = *env.rndv;
  const std::span<std::byte> dst = buffer.subspan(0, env.size);
  // Back-to-back rendezvous pulls serialize on the receiving CPU/NIC.
  const Micros match_at = std::max(posted_at, recv_busy_until_);
  // A sender that aborted or crashed withdrew the send before freeing the
  // buffer; this receiver then aborts too instead of reading freed memory.
  const auto read_source = [&](auto&& copy) {
    if (!rndv.guard.read(copy))
      throw AbortedError("job aborted: rank " + std::to_string(env.src) +
                         " failed before its rendezvous send completed");
  };
  const auto copy_source = [&] {
    if (env.size > 0) std::memcpy(dst.data(), rndv.source().data(), env.size);
  };

  fabric::RndvTimes times;
  switch (env.channel) {
    case fabric::ChannelKind::Cma: {
      times = job_->cma->rndv_times(env.size, env.same_socket, env.available_at,
                                    match_at);
      auto result = osl::cma::Result::Ok;
      read_source([&] { result = job_->cma->pull(*proc_, rndv, dst); });
      CBMPI_REQUIRE(result == osl::cma::Result::Ok,
                    "CMA transfer failed: ", osl::cma::to_string(result),
                    " — containers must share the host PID namespace "
                    "(--pid=host) for the CMA channel");
      break;
    }
    case fabric::ChannelKind::Shm:
      times = job_->shm->rndv_times(env.size, env.same_socket, env.available_at,
                                    match_at);
      read_source(copy_source);
      break;
    case fabric::ChannelKind::Hca: {
      fabric::RegPlan plan;
      const bool reg = job_->hca->reg_model();
      if (reg) {
        plan.sender_hit = env.reg_sender_hit;
        plan.sender_extra = env.reg_sender_extra;
        const auto look =
            job_->hca->reg_lookup(rank_, reg_buffer_id(dst.data()), env.size);
        plan.receiver_hit = look.hit;
        plan.receiver_extra = look.extra;
      }
      times = job_->hca->rndv_times(env.size, env.loopback, env.available_at,
                                    posted_at, recv_busy_until_, env.sriov, ctxp,
                                    plan);
      if (reg && job_->record_spans) {
        // Receiver-side pin window: it gates the CTS, so it renders right
        // at the front of the enclosing "rndv" span.
        obs::Span reg_span{"rndv-reg", obs::SpanCat::Proto, rank_, env.src,
                           static_cast<int>(env.channel), env.size,
                           times.recv_reg_begin, times.recv_reg_end,
                           plan.receiver_hit ? "hit" : "miss"};
        reg_span.xfer = transfer_id(env);
        records().spans.push_back(std::move(reg_span));
      }
      if (ctxp != nullptr && job_->record_flows())
        records().flows.push_back({ctxp->key, ctxp->src_host, ctxp->dst_host, env.size,
                                   times.inject_begin, env.sriov});
      trace_congestion(ctxp, env.src, rank_, env.size, times.inject_begin);
      read_source(copy_source);
      break;
    }
  }
  return times;
}

void Adi3Engine::progress_posted() {
  // Frees, on this rank's own worker, the messages its receivers handed back.
  job_->payload_home(rank_).reclaim();
  job_->matcher(rank_).match_posted(posted_, matched_);
  complete_matched();
}

bool Adi3Engine::poll(RequestState& request) {
  switch (request.kind) {
    case RequestState::Kind::SendEager:
      break;  // complete since start_send
    case RequestState::Kind::SendRndv:
      if (!request.complete && request.rndv->done()) {
        request.complete_at = request.rndv->sender_complete_at();
        request.complete = true;
      }
      break;
    case RequestState::Kind::Recv:
      progress_posted();
      break;
  }
  return request.complete;
}

bool Adi3Engine::test(const Request& request) {
  CBMPI_REQUIRE(request != nullptr, "test on null request");
  if (!poll(*request)) return false;
  clock().advance_to(request->complete_at);
  return true;
}

Status Adi3Engine::wait(const Request& request) {
  CBMPI_REQUIRE(request != nullptr, "wait on null request");
  block_until([&] {
    // While blocked in a rendezvous send, keep progressing posted receives
    // so head-to-head large transfers cannot deadlock the way a
    // progress-less implementation would.
    if (request->kind == RequestState::Kind::SendRndv) progress_posted();
    return poll(*request);
  });
  clock().advance_to(request->complete_at);
  check_crash();
  return request->status;
}

void Adi3Engine::charge_hca_retries(int dst_world, std::uint64_t seq, Bytes size) {
  const auto* inj = job_->faults;
  if (inj == nullptr) return;
  for (int attempt = 0;; ++attempt) {
    const auto outcome = inj->hca_attempt(rank_, dst_world, seq, attempt, clock().now());
    if (outcome == faults::FaultInjector::HcaOutcome::Ok) return;

    const auto kind = outcome == faults::FaultInjector::HcaOutcome::LinkFlap
                          ? faults::FaultKind::HcaLinkFlap
                          : faults::FaultKind::HcaTransient;
    job_->fault_log->record_fault(
        rank_, {kind, rank_, dst_world, clock().now(), to_string(kind)});
    if (job_->record_trace)
      records().trace.push_back({sim::TraceKind::FaultInject, rank_, dst_world, size,
                                 clock().now(), to_string(kind)});

    if (attempt >= kHcaMaxRetries) {
      std::ostringstream os;
      os << "rank " << rank_ << ": HCA transfer to rank " << dst_world
         << " abandoned after " << (attempt + 1) << " attempts ("
         << to_string(kind) << " at t=" << clock().now() << " us)";
      throw Error(os.str());
    }

    const Micros delay =
        inj->backoff_delay(rank_, dst_world, seq, attempt, kHcaRetryBackoff,
                           kHcaRetryBackoffFactor);
    clock().advance(delay);
    profile().add_recovery(delay);
    job_->fault_log->add_retry(rank_, kind);
    job_->fault_log->add_time_lost(rank_, delay);
    if (job_->record_trace)
      records().trace.push_back({sim::TraceKind::Retry, rank_, dst_world, size,
                                 clock().now(), "HCA"});
    if (job_->record_spans)
      records().spans.push_back({"hca-retry", obs::SpanCat::Fault, rank_, dst_world, -1,
                                 size, clock().now() - delay, clock().now(),
                                 to_string(kind)});
  }
}

void Adi3Engine::check_abort() {
  if (!job_->aborted.load(std::memory_order_acquire)) return;
  withdraw_sends();
  throw AbortedError("job aborted: another rank raised an error");
}

void Adi3Engine::withdraw_sends() {
  for (const auto& sent : rndv_sends_) sent->guard.withdraw();
}

void Adi3Engine::check_crash() {
  if (job_->crash_at.empty()) return;
  if (clock().now() < job_->crash_at[static_cast<std::size_t>(rank_)]) return;
  raise_crash();
}

void Adi3Engine::raise_crash() {
  const auto idx = static_cast<std::size_t>(rank_);
  const auto kind = job_->crash_kind[idx];
  const int host = job_->crash_host[idx];
  // Report the *scheduled* crash time, not the detection instant: the unit
  // died at its planned virtual time; this rank merely noticed at the next
  // op boundary. Scheduled times are pure functions of the seed, so the
  // report is identical run after run.
  const Micros when = job_->crash_at[idx];
  if (job_->fault_log)
    job_->fault_log->record_fault(
        rank_, {kind, rank_, -1, when,
                std::string(to_string(kind)) + " on host " +
                    std::to_string(host) + " (injected)"});
  if (job_->record_trace)
    records().trace.push_back(
              {sim::TraceKind::FaultInject, rank_, -1, 0, when, to_string(kind)});
  if (job_->record_spans)
    records().spans.push_back({"crash", obs::SpanCat::Fault, rank_, -1, -1, 0, when,
                               when, to_string(kind)});
  std::ostringstream os;
  os << "rank " << rank_ << " crashed at t=" << when << " us ("
     << to_string(kind) << " on host " << host << ", injected)";
  faults::CrashInfo info;
  info.kind = kind;
  info.rank = rank_;
  info.host = host;
  info.at = when;
  withdraw_sends();
  throw faults::CrashedError(os.str(), info);
}

void Adi3Engine::wait_all(std::span<const Request> requests) {
  for (const auto& request : requests) wait(request);
}

void Adi3Engine::cancel(const Request& request) {
  CBMPI_REQUIRE(request != nullptr, "cancel on null request");
  CBMPI_REQUIRE(request->kind == RequestState::Kind::Recv,
                "only receive requests can be cancelled");
  if (request->message != nullptr) {
    // Matched but not completed: the next progress completes it, so it
    // cannot be withdrawn.
    const fabric::Envelope& env = request->message->env;
    std::ostringstream os;
    os << "cannot cancel: rank " << rank_ << " recv(source=" << env.src
       << ", tag=" << env.tag << ", comm=" << env.comm_id << ") has matched a "
       << env.size << "-byte message";
    throw Error(os.str());
  }
  posted_.erase(std::remove(posted_.begin(), posted_.end(), request), posted_.end());
}

std::optional<Status> Adi3Engine::iprobe(int src_world, int tag,
                                         std::uint64_t comm_id) {
  progress_posted();
  return job_->matcher(rank_).peek(src_world, tag, comm_id);
}

}  // namespace cbmpi::mpi
