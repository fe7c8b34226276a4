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

/// A context id as error messages print it: a collective's context as its
/// communicator's id, marked.
void print_comm(std::ostream& os, std::uint64_t comm_id) {
  if ((comm_id & kCollectiveContextBit) != 0)
    os << (comm_id ^ kCollectiveContextBit) << " (collective)";
  else
    os << comm_id;
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
void Adi3Engine::wait_in(const ExchangeWait& where, Done&& done) {
  waiting_ = where;
  const struct Leave {
    ExchangeWait& waiting;
    ~Leave() { waiting.exchange = nullptr; }
  } leave{waiting_};
  block_until([&] {
    if (done()) return true;
    progress_posted();
    return done();
  });
}

struct Adi3Engine::WithdrawOnThrow {
  Adi3Engine& engine;
  Exchange::Slot& slot;
  int in_flight = std::uncaught_exceptions();
  ~WithdrawOnThrow() {
    if (std::uncaught_exceptions() == in_flight) return;
    slot.guard.withdraw();
    engine.withdraw_sends();
  }
};

Micros Adi3Engine::read_entry(Exchange& exchange, int from, int entry,
                              std::span<std::byte> buffer, Micros posted_at) {
  Exchange::Slot& slot = exchange.slot(from);
  const fabric::Envelope& env = slot.envelopes[static_cast<std::size_t>(entry)];
  Micros received_at = 0.0;
  const auto copy = [&] {
    const auto payload = (*slot.blocks)[entry].send;
    received_at = receive(env, payload, buffer, posted_at);
  };
  if (!slot.guard.read(copy))
    throw AbortedError("job aborted: rank " + std::to_string(env.src) +
                       " failed before its exchange send completed");
  // A rendezvous sender waits for its pull; every owner waits for its last
  // reader, and may rewrite the slot once it has seen it.
  const bool rendezvous = env.protocol == fabric::Protocol::Rendezvous;
  const bool last = slot.readers_left.fetch_sub(1) == 1;
  if (last || rendezvous)
    job_->matcher(exchange.world_ranks[static_cast<std::size_t>(from)]).poke();
  return received_at;
}

void Adi3Engine::alltoall(Exchange& exchange, int me, std::span<const std::byte> send,
                          std::span<std::byte> recv, std::size_t block, int tag,
                          std::uint64_t comm_id) {
  const int n = exchange.size();
  const auto peer_at = [me, n](int step) { return (me + step) % n; };
  // The message path posted every receive before its first send.
  const Micros posted_at = clock().now();

  // Sender side, in the message path's send order; every block stays in
  // `send`, where its reader copies it from.
  const auto block_of = [&](int peer) {
    const std::size_t at = block * static_cast<std::size_t>(peer);
    return Exchange::Step{send.subspan(at, block), peer, recv.subspan(at, block), peer};
  };
  const Exchange::StepList blocks(n, block_of);
  Exchange::Slot& mine = exchange.slot(me);
  mine.envelopes.resize(static_cast<std::size_t>(n));
  mine.blocks = &blocks;
  for (int step = 1; step < n; ++step) {
    const int peer = peer_at(step);
    fabric::Envelope& env = mine.envelopes[static_cast<std::size_t>(peer)];
    env = {};
    send_block(blocks[peer].send, exchange.world_ranks[static_cast<std::size_t>(peer)], tag,
               comm_id, [&](bool) { return SendTarget{env, {}}; });
  }

  // Publish the slot; the arrival that completes the call wakes the others.
  mine.readers_left.store(n - 1);
  const std::uint64_t call = mine.calls.load() + 1;
  mine.calls.store(call);
  const WithdrawOnThrow withdraw_on_throw{*this, mine};
  const std::uint64_t everyone = call * static_cast<std::uint64_t>(n);
  if (exchange.arrived.fetch_add(1) + 1 == everyone)
    for (int step = 1; step < n; ++step)
      job_->matcher(exchange.world_ranks[static_cast<std::size_t>(peer_at(step))]).poke();
  const ExchangeWait where{.exchange = &exchange, .me = me};
  wait_in(where, [&] { return exchange.arrived.load() >= everyone; });

  // Receiver side, in virtual arrival order, so the busy chain is a pure
  // function of the envelopes. Each peer's key is read once, before the sort.
  incoming_.clear();
  for (int step = 1; step < n; ++step) {
    const int peer = peer_at(step);
    const fabric::Envelope& env =
        exchange.slot(peer).envelopes[static_cast<std::size_t>(me)];
    incoming_.push_back({env.available_at, env.src, env.seq, peer});
  }
  std::ranges::sort(incoming_, {}, [](const Arrival& a) {
    return std::tie(a.available_at, a.src, a.seq);
  });
  received_at_.resize(static_cast<std::size_t>(n));
  for (const Arrival& arrival : incoming_)
    received_at_[static_cast<std::size_t>(arrival.peer)] =
        read_entry(exchange, arrival.peer, me, blocks[arrival.peer].recv, posted_at);

  // What wait_all over the receives did (one progress of the posted queue, a
  // clock advance and crash check per receive), then wait_all over the sends
  // once every reader of this slot is done.
  progress_posted();
  for (int step = 1; step < n; ++step) {
    clock().advance_to(received_at_[static_cast<std::size_t>(peer_at(step))]);
    check_crash();
  }
  wait_in(where, [&] { return mine.readers_left.load() == 0; });
  for (int step = 1; step < n; ++step) {
    const auto& rndv = mine.envelopes[static_cast<std::size_t>(peer_at(step))].rndv;
    if (rndv != nullptr) clock().advance_to(rndv->sender_complete_at());
    check_crash();
  }
}

namespace {
/// The steps a slot's `published` word shows published for the phase of
/// `phase` (a tag << 32): none while the slot is in another phase.
std::uint64_t published_in(std::uint64_t word, std::uint64_t phase) {
  return (word >> 32) == (phase >> 32) ? word & 0xffffffffu : 0;
}
}  // namespace

void Adi3Engine::exchange_steps(Exchange& exchange, int me,
                                const Exchange::StepList& steps, int tag,
                                std::uint64_t comm_id) {
  const int count = steps.size;
  if (count == 0) return;
  const std::uint64_t phase = static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag))
                              << 32;
  const auto world = [&](int comm_rank) {
    return exchange.world_ranks[static_cast<std::size_t>(comm_rank)];
  };
  Exchange::Slot& mine = exchange.slot(me);
  mine.envelopes.resize(static_cast<std::size_t>(count));
  mine.blocks = &steps;
  mine.readers_left.store(count);
  const WithdrawOnThrow withdraw_on_throw{*this, mine};
  for (int s = 0; s < count; ++s) {
    const Exchange::Step step = steps[s];
    // What raw_sendrecv did: post the receive, send, wait for the receive,
    // then for the send.
    const Micros posted_at = clock().now();
    fabric::Envelope& env = mine.envelopes[static_cast<std::size_t>(s)];
    env = {};
    send_block(step.send, world(step.to), tag, comm_id,
               [&](bool) { return SendTarget{env, {}}; });
    mine.published.store(phase | static_cast<std::uint64_t>(s + 1));
    job_->matcher(world(step.to)).poke();
    progress_posted();

    const Exchange::Slot& from = exchange.slot(step.from);
    wait_in({.exchange = &exchange, .me = me, .step = s, .steps = count,
             .from = step.from},
            [&] {
              return published_in(from.published.load(), phase) >
                     static_cast<std::uint64_t>(s);
            });
    clock().advance_to(read_entry(exchange, step.from, s, step.recv, posted_at));
    check_crash();
    if (env.rndv != nullptr) {
      wait_in({.exchange = &exchange, .me = me, .step = s, .steps = count,
               .to = step.to},
              [&] { return env.rndv->done(); });
      clock().advance_to(env.rndv->sender_complete_at());
      check_crash();
    }
  }
  // Leave only once every entry has been read.
  wait_in({.exchange = &exchange, .me = me, .step = count - 1, .steps = count},
          [&] { return mine.readers_left.load() == 0; });
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
  const RequestState* recv = oldest_posted();
  if (collective_.kind == nullptr) {
    os << (recv == nullptr ? " is blocked with no posted receive" : " waits in ");
  } else {
    // Every exchange runs inside its collective's scope.
    os << " waits in " << collective_.kind << " #" << collective_.seq;
    if (waiting_.steps > 0) os << " step " << waiting_.step + 1 << "/" << waiting_.steps;
    os << " (comm " << collective_.comm_id << "): ";
    if (waiting_.exchange == nullptr && recv == nullptr) os << "no posted receive";
  }
  if (waiting_.exchange != nullptr) {
    const Exchange& exchange = *waiting_.exchange;
    const Exchange::Slot& mine = exchange.slot(waiting_.me);
    const std::uint64_t call = mine.calls.load();
    if (waiting_.from >= 0)
      os << "rank " << waiting_.from << " has not published it";
    else if (waiting_.to >= 0)
      os << "rank " << waiting_.to << " has not read it";
    else if (waiting_.steps > 0)
      os << mine.readers_left.load() << " of its entries not read yet";
    else if (exchange.arrived.load() >= call * static_cast<std::uint64_t>(exchange.size()))
      os << mine.readers_left.load() << " ranks have not read its blocks";
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
  if (recv == nullptr) return;
  const auto field = [&](int value, int wildcard) {
    if (value == wildcard)
      os << "any";
    else
      os << value;
  };
  os << "recv(source=";
  field(recv->src_world, kAnySource);
  os << ", tag=";
  field(recv->tag, kAnyTag);
  os << ", comm=";
  print_comm(os, recv->comm_id);
  os << ")";
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
  try {
    request.complete_at =
        receive(env, message->payload(), request.buffer, request.posted_at);
  } catch (...) {
    if (collective_.kind != nullptr) withdraw_sends();  // see CollectiveScope
    throw;
  }
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
       << ", tag=" << env.tag << ", comm=";
    print_comm(os, env.comm_id);
    os << ") got " << env.size << " bytes into a " << buffer.size() << "-byte buffer";
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
       << ", tag=" << env.tag << ", comm=";
    print_comm(os, env.comm_id);
    os << ") has matched a " << env.size << "-byte message";
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
