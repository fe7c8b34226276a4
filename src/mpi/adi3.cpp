#include "mpi/adi3.hpp"

#include <algorithm>
#include <cstring>
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
}  // namespace

// A note on MPI_Test/MPI_Iprobe time: an idle poll advances *no* virtual
// time. A wall-clock polling loop may spin thousands of times waiting for a
// peer thread to be scheduled, and charging each spin would couple virtual
// time to host scheduling noise. The true waiting cost is captured exactly
// once, by the advance_to() jump to the request's completion time — which the
// profiler attributes to the MPI_Test/MPI_Wait call that observed completion,
// just like mpiP attributes polling time in the real library.

Adi3Engine::Adi3Engine(JobState& job, int world_rank, osl::SimProcess& proc)
    : job_(&job),
      rank_(world_rank),
      proc_(&proc),
      hca_connected_(static_cast<std::size_t>(job.nranks)) {
  CBMPI_REQUIRE(world_rank >= 0 && world_rank < job.nranks, "bad world rank");
  if (job.metrics != nullptr) {
    obs_.eager_sends = &job.metrics->counter("adi3.eager_sends");
    obs_.rndv_sends = &job.metrics->counter("adi3.rndv_sends");
    for (std::size_t c = 0; c < fabric::kChannelKinds; ++c)
      obs_.channel_ops[c] = &job.metrics->counter(
          std::string("channel.") +
          fabric::to_string(static_cast<fabric::ChannelKind>(c)) + ".ops");
    obs_.msg_size = &job.metrics->histogram("adi3.message_bytes");
    obs_.recv_latency = &job.metrics->histogram("adi3.recv_latency_us");
  }
}

std::uint64_t Adi3Engine::reg_buffer_id(const void* base) {
  return reg_buffer_ids_.try_emplace(base, reg_buffer_ids_.size())
      .first->second;
}

void Adi3Engine::connect_hca(int dst_world) {
  std::vector<bool>::reference connected =
      hca_connected_[static_cast<std::size_t>(dst_world)];
  if (connected) return;
  connected = true;
  job_->hca->ensure_connected(rank_, dst_world);
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
  if (ctx == nullptr || job_->congestion == nullptr || job_->trace == nullptr)
    return;
  const double factor = job_->congestion->factor(ctx->key);
  if (factor <= 1.0) return;
  std::ostringstream os;
  os << "x" << factor << " over " << job_->fabric->hops(ctx->src_host, ctx->dst_host)
     << " hops";
  job_->trace->record({sim::TraceKind::NetCongest, src, dst, size, at, os.str()});
}

Request Adi3Engine::start_send(std::span<const std::byte> data, int dst_world, int tag,
                               std::uint64_t comm_id) {
  CBMPI_REQUIRE(dst_world >= 0 && dst_world < job_->nranks,
                "send to invalid rank ", dst_world);
  check_crash();
  const Bytes size = data.size();
  const auto decision = job_->selector->select(rank_, dst_world, size);
  profile().add_channel_op(decision.channel, size);
  if (obs_.msg_size != nullptr) {
    obs_.msg_size->observe(size);
    obs_.channel_ops[static_cast<std::size_t>(decision.channel)]->add(1);
    (decision.protocol == fabric::Protocol::Eager ? obs_.eager_sends
                                                  : obs_.rndv_sends)
        ->add(1);
  }
  const std::uint64_t seq = next_seq_++;
  if (decision.channel == fabric::ChannelKind::Hca) {
    connect_hca(dst_world);
    // Transient send/completion failures (injected) retry here, before the
    // successful attempt's cost is charged; the backoff time lands on the
    // sender's clock and therefore delays available_at for the receiver.
    charge_hca_retries(dst_world, seq, size);
  }

  fabric::Envelope env;
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

  auto request = std::make_shared<RequestState>();

  if (decision.protocol == fabric::Protocol::Eager) {
    fabric::EagerCosts costs;
    switch (decision.channel) {
      case fabric::ChannelKind::Shm: {
        costs = job_->shm->eager_costs(size, decision.same_socket);
        const auto* peer = job_->selector->endpoint(dst_world).process;
        if (shm_queue_ == nullptr) shm_queue_ = job_->shm->open_queue(*proc_, rank_);
        job_->shm->stage(*proc_, *peer, *shm_queue_, data, env.payload);
        break;
      }
      case fabric::ChannelKind::Hca: {
        net::TransferCtx ctx;
        const auto* ctxp = fabric_ctx(rank_, dst_world, seq, decision.loopback, ctx);
        costs = job_->hca->eager_costs(size, decision.loopback, decision.sriov, ctxp);
        if (ctxp != nullptr && job_->net_log != nullptr)
          // Injection starts after the descriptor post; the sender-side
          // bandwidth term runs from there.
          job_->net_log->record({ctx.key, ctx.src_host, ctx.dst_host, size,
                                 clock().now() + job_->profile->hca_post_overhead,
                                 decision.sriov});
        trace_congestion(ctxp, rank_, dst_world, size, clock().now());
        env.payload.assign(data.begin(), data.end());
        break;
      }
      case fabric::ChannelKind::Cma:
        // The selector never routes eager traffic onto CMA.
        CBMPI_REQUIRE(false, "eager protocol on CMA channel — selector bug");
    }
    clock().advance(costs.sender);
    env.sent_at = clock().now();
    env.available_at = clock().now() + costs.delivery;
    env.receiver_cost = costs.receiver;

    if (job_->trace)
      job_->trace->record({sim::TraceKind::SendEager, rank_, dst_world, size,
                           clock().now(), fabric::to_string(decision.channel)});

    request->kind = RequestState::Kind::SendEager;
    request->complete = true;
    request->complete_at = clock().now();
    job_->matcher(dst_world).deliver(std::move(env));
    return request;
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
  env.rndv = rndv;

  if (job_->trace)
    job_->trace->record({sim::TraceKind::SendRndvRts, rank_, dst_world, size,
                         clock().now(), fabric::to_string(decision.channel)});

  request->kind = RequestState::Kind::SendRndv;
  request->rndv = std::move(rndv);
  job_->matcher(dst_world).deliver(std::move(env));
  return request;
}

Request Adi3Engine::post_recv(std::span<std::byte> buffer, int src_world, int tag,
                              std::uint64_t comm_id, bool immediate) {
  auto request = std::make_shared<RequestState>();
  request->kind = RequestState::Kind::Recv;
  request->buffer = buffer;
  request->src_world = src_world;
  request->tag = tag;
  request->comm_id = comm_id;
  request->posted_at = clock().now();
  posted_.push_back(request);
  // A matching message may already be waiting in the unexpected queue.
  if (immediate) progress_posted();
  return request;
}

void Adi3Engine::complete_in_arrival_order(std::span<const Request> recvs) {
  std::vector<Request> unmatched;
  unmatched.reserve(recvs.size());
  for (const auto& request : recvs) {
    CBMPI_REQUIRE(request != nullptr && request->kind == RequestState::Kind::Recv,
                  "complete_in_arrival_order needs receive requests");
    CBMPI_REQUIRE(request->src_world != kAnySource,
                  "complete_in_arrival_order cannot order wildcard receives");
    if (!request->complete) unmatched.push_back(request);
  }

  // Phase 1: collect every envelope without completing anything — which
  // messages have arrived at any instant is wall-clock noise.
  std::vector<std::pair<Request, fabric::Envelope>> matched;
  block_until([&] {
    for (auto& pair : job_->matcher(rank_).match_posted(unmatched))
      matched.push_back(std::move(pair));
    return unmatched.empty();
  });

  // The matched receives leave the posted queue in one pass before any of
  // them completes, so a rank that throws in phase 2 leaves only receives
  // still waiting for a message behind for oldest_posted().
  const auto request_of = [](const auto& pair) { return pair.first.get(); };
  std::ranges::sort(matched, {}, request_of);
  std::erase_if(posted_, [&](const Request& request) {
    return std::ranges::binary_search(matched, request.get(), {}, request_of);
  });

  // Phase 2: process in virtual arrival order, so the receiver busy chain
  // is a pure function of the envelopes' timestamps.
  std::sort(matched.begin(), matched.end(), [](const auto& a, const auto& b) {
    return std::tie(a.second.available_at, a.second.src, a.second.seq) <
           std::tie(b.second.available_at, b.second.src, b.second.seq);
  });
  for (auto& [request, env] : matched) complete_recv(*request, env);
}

void Adi3Engine::complete_recv(RequestState& request, fabric::Envelope& env) {
  if (env.size > request.buffer.size()) {
    std::ostringstream os;
    os << "message truncation: rank " << rank_ << " recv(source=" << env.src
       << ", tag=" << env.tag << ", comm=" << env.comm_id << ") got " << env.size
       << " bytes into a " << request.buffer.size() << "-byte buffer";
    throw Error(os.str());
  }
  const bool eager = env.protocol == fabric::Protocol::Eager;
  net::TransferCtx ctx;
  const net::TransferCtx* ctxp =
      env.channel == fabric::ChannelKind::Hca
          ? fabric_ctx(env.src, rank_, env.seq, env.loopback, ctx)
          : nullptr;

  // Eager: the payload already sits in the envelope; the receiver copies it
  // out once its CPU is free. Rendezvous: the span covers the whole
  // handshake, from RTS availability on.
  fabric::RndvTimes times;
  Micros begin = env.available_at;
  if (eager) {
    if (env.size > 0)
      std::memcpy(request.buffer.data(), env.payload.data(), env.size);
    begin = std::max({request.posted_at, env.available_at, recv_busy_until_});
    times.receiver_done = begin + env.receiver_cost;
  } else {
    times = pull(request, env, ctxp);
  }
  request.complete_at = times.receiver_done;
  recv_busy_until_ = times.receiver_busy_until > 0.0 ? times.receiver_busy_until
                                                     : times.receiver_done;
  request.status = Status{env.src, env.tag, env.size};
  request.complete = true;
  if (!eager) {
    env.rndv->complete(times.sender_done);
    // The sender may be blocked waiting on this transfer: wake it.
    job_->matcher(env.src).poke();
  }

  if (job_->trace) {
    const char* channel = fabric::to_string(env.channel);
    if (eager) {
      job_->trace->record({sim::TraceKind::RecvComplete, env.src, rank_, env.size,
                           request.complete_at, channel});
    } else {
      job_->trace->record({sim::TraceKind::RecvRndvCts, rank_, env.src, 0,
                           request.posted_at, channel});
      job_->trace->record({sim::TraceKind::SendRndvData, env.src, rank_, env.size,
                           request.complete_at, channel});
    }
  }
  if (job_->spans) {
    obs::Span span{eager ? "eager" : "rndv", obs::SpanCat::Proto, rank_, env.src,
                   static_cast<int>(env.channel), env.size, begin,
                   request.complete_at, fabric::to_string(env.channel)};
    span.xfer = transfer_id(env);
    span.posted_at = request.posted_at;
    span.sent_at = env.sent_at;
    span.avail_at = env.available_at;
    span.reg_stall = times.reg_stall;
    if (ctxp != nullptr)
      span.stall =
          job_->hca->contention_stall(env.size, env.loopback, env.sriov, ctxp);
    job_->spans->record(std::move(span));
  }
  if (obs_.recv_latency != nullptr)
    obs_.recv_latency->observe(
        static_cast<std::uint64_t>(request.complete_at - request.posted_at));
}

fabric::RndvTimes Adi3Engine::pull(const RequestState& request,
                                   fabric::Envelope& env,
                                   const net::TransferCtx* ctxp) {
  auto& rndv = *env.rndv;
  const std::span<std::byte> dst = request.buffer.subspan(0, env.size);
  // Back-to-back rendezvous pulls serialize on the receiving CPU/NIC.
  const Micros match_at = std::max(request.posted_at, recv_busy_until_);
  // A sender that aborted or crashed withdrew the send before freeing the
  // buffer; this receiver then aborts too instead of reading freed memory.
  const auto read_source = [&](auto&& copy) {
    if (!rndv.read_source(copy))
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
                                    request.posted_at, recv_busy_until_, env.sriov,
                                    ctxp, plan);
      if (reg && job_->spans) {
        // Receiver-side pin window: it gates the CTS, so it renders right
        // at the front of the enclosing "rndv" span.
        obs::Span reg_span{"rndv-reg", obs::SpanCat::Proto, rank_, env.src,
                           static_cast<int>(env.channel), env.size,
                           times.recv_reg_begin, times.recv_reg_end,
                           plan.receiver_hit ? "hit" : "miss"};
        reg_span.xfer = transfer_id(env);
        job_->spans->record(std::move(reg_span));
      }
      if (ctxp != nullptr && job_->net_log != nullptr)
        job_->net_log->record({ctxp->key, ctxp->src_host, ctxp->dst_host, env.size,
                               times.inject_begin, env.sriov});
      trace_congestion(ctxp, env.src, rank_, env.size, times.inject_begin);
      read_source(copy_source);
      break;
    }
  }
  return times;
}

void Adi3Engine::progress_posted() {
  for (auto& [request, env] : job_->matcher(rank_).match_posted(posted_))
    complete_recv(*request, env);
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
    if (job_->trace)
      job_->trace->record({sim::TraceKind::FaultInject, rank_, dst_world, size,
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
    if (job_->trace)
      job_->trace->record({sim::TraceKind::Retry, rank_, dst_world, size,
                           clock().now(), "HCA"});
    if (job_->spans)
      job_->spans->record({"hca-retry", obs::SpanCat::Fault, rank_, dst_world, -1,
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
  for (const auto& sent : rndv_sends_) sent->withdraw();
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
  if (job_->trace)
    job_->trace->record(
        {sim::TraceKind::FaultInject, rank_, -1, 0, when, to_string(kind)});
  if (job_->spans)
    job_->spans->record({"crash", obs::SpanCat::Fault, rank_, -1, -1, 0, when,
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
  posted_.erase(std::remove(posted_.begin(), posted_.end(), request), posted_.end());
}

std::optional<Status> Adi3Engine::iprobe(int src_world, int tag,
                                         std::uint64_t comm_id) {
  progress_posted();
  return job_->matcher(rank_).peek(src_world, tag, comm_id);
}

}  // namespace cbmpi::mpi
