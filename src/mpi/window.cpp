#include "mpi/window.hpp"

#include <cstring>

#include "common/rng.hpp"

namespace cbmpi::mpi {

namespace {
/// CPU cost of a flush that has nothing left to wait for.
constexpr Micros kFlushOverhead = 0.05;

/// Costs of one one-sided access of `size` bytes over the channel the
/// selector chose. `ctx` is the HCA access's routing context, or null for
/// the flat path cost.
fabric::OneSidedCosts one_sided_costs(
    const JobState& job, const fabric::ChannelSelector::Decision& decision,
    Bytes size, const net::TransferCtx* ctx) {
  switch (decision.channel) {
    case fabric::ChannelKind::Shm:
      return job.shm->one_sided_costs(size, decision.same_socket);
    case fabric::ChannelKind::Cma:
      return job.cma->one_sided_costs(size, decision.same_socket);
    case fabric::ChannelKind::Hca:
      return job.hca->one_sided_costs(size, decision.loopback, decision.sriov, ctx);
  }
  return {};
}
}  // namespace

WindowHandle::WindowHandle(Communicator& comm, std::span<std::byte> local,
                           Bytes elem_size)
    : comm_(&comm),
      pending_(static_cast<std::size_t>(comm.size()), 0.0),
      held_(static_cast<std::size_t>(comm.size()), 0) {
  const ProfiledCall prof_scope(comm.engine(), prof::CallKind::WinCreate);
  auto& job = comm.engine().job();
  const std::uint64_t window_id =
      mix64(comm.id() ^ mix64(comm.next_window_ordinal() ^ 0x9e3779b9ULL));
  {
    const std::scoped_lock lock(job.windows_mutex);
    auto& slot = job.windows[window_id];
    if (!slot) {
      slot = std::make_shared<WindowInfo>();
      slot->elem_size = elem_size;
      slot->spans.resize(static_cast<std::size_t>(comm.size()));
      slot->locks.resize(static_cast<std::size_t>(comm.size()));
      for (auto& l : slot->locks) l = std::make_unique<std::mutex>();
      slot->epoch_holders.assign(static_cast<std::size_t>(comm.size()), 0);
    }
    CBMPI_REQUIRE(slot->elem_size == elem_size, "window element size mismatch");
    slot->spans[static_cast<std::size_t>(comm.rank())] = local;
    info_ = slot;
  }
  // All ranks must have registered their memory before any RMA starts.
  comm_->raw_barrier();
}

std::span<std::byte> WindowHandle::target_span(int target, Bytes byte_offset,
                                               Bytes size) {
  CBMPI_REQUIRE(target >= 0 && target < comm_->size(), "RMA target out of range");
  auto span = info_->spans[static_cast<std::size_t>(target)];
  CBMPI_REQUIRE(span.data() != nullptr, "RMA target window not registered");
  CBMPI_REQUIRE(byte_offset + size <= span.size(),
                "RMA access outside the target window: offset ", byte_offset,
                " size ", size, " window ", span.size());
  return span.subspan(byte_offset, size);
}

fabric::OneSidedCosts WindowHandle::account_op(int target, Bytes size,
                                               prof::CallKind kind) {
  auto& engine = comm_->engine();
  auto& job = engine.job();
  const int me_world = engine.world_rank();
  const int target_world = comm_->to_world(target);
  const auto decision = job.selector->select(me_world, target_world, size);
  engine.profile().add_channel_op(decision.channel, size);

  net::TransferCtx ctx;
  const net::TransferCtx* ctxp = nullptr;
  if (decision.channel == fabric::ChannelKind::Hca) {
    engine.connect_hca(target_world);
    // One-sided ops see the routed path latency and static VF-capped
    // bandwidth; they carry no flow identity (the ctx key stays unread),
    // so the contention engine never stretches them (see
    // HcaChannel::one_sided_costs).
    ctxp = engine.fabric_ctx(me_world, target_world, 0, decision.loopback, ctx);
  }
  const auto costs = one_sided_costs(job, decision, size, ctxp);

  auto& clock = engine.clock();
  const Micros issue = clock.now();
  clock.advance(costs.gap);
  engine.profile().add_call(kind, costs.gap);
  auto& last = pending_[static_cast<std::size_t>(target)];
  last = std::max(last, issue + costs.latency);
  if (job.record_trace)
    engine.records().trace.push_back(
        {kind == prof::CallKind::Get ? sim::TraceKind::Get : sim::TraceKind::Put,
         me_world, target_world, size, issue, ""});
  return costs;
}

void WindowHandle::put_bytes(std::span<const std::byte> src, int target,
                             Bytes byte_offset) {
  account_op(target, src.size(), prof::CallKind::Put);
  auto dst = target_span(target, byte_offset, src.size());
  const std::scoped_lock lock(*info_->locks[static_cast<std::size_t>(target)]);
  if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
}

void WindowHandle::get_bytes(std::span<std::byte> dst, int target, Bytes byte_offset) {
  account_op(target, dst.size(), prof::CallKind::Get);
  auto src = target_span(target, byte_offset, dst.size());
  const std::scoped_lock lock(*info_->locks[static_cast<std::size_t>(target)]);
  if (!dst.empty()) std::memcpy(dst.data(), src.data(), dst.size());
}

void WindowHandle::rmw_bytes(
    std::span<const std::byte> src, int target, Bytes byte_offset,
    const std::function<void(std::span<std::byte>, std::span<const std::byte>)>&
        combine) {
  account_op(target, src.size(), prof::CallKind::Accumulate);
  auto dst = target_span(target, byte_offset, src.size());
  const std::scoped_lock lock(*info_->locks[static_cast<std::size_t>(target)]);
  combine(dst, src);
}

void WindowHandle::flush(int target) {
  auto& engine = comm_->engine();
  const ProfiledCall prof_scope(engine, prof::CallKind::Flush);
  engine.clock().advance(kFlushOverhead);
  engine.clock().advance_to(pending_[static_cast<std::size_t>(target)]);
}

void WindowHandle::flush_all() {
  auto& engine = comm_->engine();
  const ProfiledCall prof_scope(engine, prof::CallKind::Flush);
  engine.clock().advance(kFlushOverhead);
  for (Micros deadline : pending_) engine.clock().advance_to(deadline);
}

void WindowHandle::lock(LockKind kind, int target) {
  CBMPI_REQUIRE(target >= 0 && target < comm_->size(), "lock target out of range");
  const auto t = static_cast<std::size_t>(target);
  auto& held = held_[t];
  CBMPI_REQUIRE(held == 0, "window already locked for target ", target);
  auto& engine = comm_->engine();
  // Epochs are granted in wall-clock order; unlock() pokes the waiters.
  engine.block_until([&] {
    const std::scoped_lock guard(*info_->locks[t]);
    int& holders = info_->epoch_holders[t];
    if (kind == LockKind::Exclusive ? holders != 0 : holders < 0) return false;
    holders = kind == LockKind::Exclusive ? -1 : holders + 1;
    return true;
  });
  held = kind == LockKind::Exclusive ? 2 : 1;
  // Acquiring a remote lock costs about one small one-sided round trip.
  const auto decision =
      engine.job().selector->select(engine.world_rank(), comm_->to_world(target), 8);
  engine.clock().advance(
      one_sided_costs(engine.job(), decision, 8, /*ctx=*/nullptr).latency);
}

void WindowHandle::unlock(int target) {
  const auto t = static_cast<std::size_t>(target);
  auto& held = held_[t];
  CBMPI_REQUIRE(held != 0, "window not locked for target ", target);
  flush(target);  // unlock completes the epoch's operations at the origin
  {
    const std::scoped_lock guard(*info_->locks[t]);
    int& holders = info_->epoch_holders[t];
    holders = held == 2 ? 0 : holders - 1;
  }
  held = 0;
  // Any rank of this window may be waiting for the epoch in lock().
  auto& job = comm_->engine().job();
  for (int r = 0; r < comm_->size(); ++r) job.matcher(comm_->to_world(r)).poke();
}

void WindowHandle::fetch_rmw_bytes(
    std::span<const std::byte> src, std::span<std::byte> result, int target,
    Bytes byte_offset,
    const std::function<void(std::span<std::byte>, std::span<const std::byte>)>&
        combine) {
  account_op(target, std::max(src.size(), result.size()),
             prof::CallKind::Accumulate);
  auto dst = target_span(target, byte_offset, result.size());
  {
    const std::scoped_lock op_lock(*info_->locks[static_cast<std::size_t>(target)]);
    std::memcpy(result.data(), dst.data(), result.size());
    combine(dst, src);
  }
  // Fetching ops return a value, so they complete synchronously: the origin
  // waits out the full round trip.
  flush(target);
}

void WindowHandle::fence() {
  auto& engine = comm_->engine();
  const ProfiledCall prof_scope(engine, prof::CallKind::Fence);
  engine.clock().advance(kFlushOverhead);
  for (Micros deadline : pending_) engine.clock().advance_to(deadline);
  comm_->raw_barrier();
}

}  // namespace cbmpi::mpi
