// Every collective algorithm and its dispatch, compiled once.
//
// The typed Communicator collectives forward here with their payload as
// bytes, the element size and, for reductions, a type-erased Reducer. Each
// entry point opens the profiled call and the Collective (tag block and
// engine scope) and checks buffer sizes before anything else. The tunable
// collectives other than alltoall share one path, run_tunable: select an
// algorithm from the job's tuning table (keyed on payload bytes, or per-rank
// block bytes for allgather, the communicator size and the job's
// containers-per-host); run it flat over all ranks or as the leader-based
// hierarchy over the locality groups, whose phases select again with their
// sub-list sizes; then note_algo() records the algorithm that actually ran.
//
// Every `*_over` primitive runs one algorithm over an arbitrary sorted list
// of communicator ranks, so the flat path (all ranks) and the two-level
// phases (one locality group, or the leaders) share it. When an algorithm's
// structural preconditions fail (power-of-two list, one element per rank,
// zero-identity op) it downgrades identically on every rank and returns what
// ran. Scratch buffers are allocated at fixed points with fixed sizes: the
// pin-down cache numbers buffers by address in first-use order, so reusing
// scratch memory would change the modelled registration costs.
//
// Three algorithms send no message; they run over the communicator's
// exchange in host memory (Exchange, job_state.hpp), where each block is
// copied once, by its reader, straight out of its sender's buffer. The
// spread alltoall hands the whole exchange to Adi3Engine::alltoall. The ring
// (allgather, allgatherv, and the tails of van de Geijn's bcast and
// Rabenseifner's allreduce) and the pairwise exchange (alltoall and
// alltoallv) are step exchanges (Adi3Engine::exchange_steps): their send
// data does not change during the phase, since a ring rank forwards a block
// it received one step earlier and never writes it again, and pairwise sends
// from the user's buffer. Every other algorithm runs over the raw
// point-to-point transfers: recursive doubling, recursive halving,
// dissemination and Bruck rewrite or repack their send buffer between steps,
// so a reader of a later step would see the wrong bytes.
//
// Tag budget: each primitive may use [tag, tag+4) (one kSubTags stride-4
// slice); composite algorithms document their exact usage inline.
#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "mpi/communicator.hpp"

namespace cbmpi::mpi {

namespace {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t idx(int i) { return static_cast<std::size_t>(i); }

void copy_bytes(std::span<const std::byte> from, std::span<std::byte> to) {
  if (!from.empty() && from.data() != to.data())
    std::memcpy(to.data(), from.data(), from.size());
}

/// The profile call kind of each tunable collective, indexed by coll::Coll.
constexpr std::array<prof::CallKind, coll::kColls> kCallKind = {
    prof::CallKind::Barrier,   prof::CallKind::Bcast,     prof::CallKind::Reduce,
    prof::CallKind::Allreduce, prof::CallKind::Allgather, prof::CallKind::Alltoall,
};

}  // namespace

// ---- block layouts --------------------------------------------------------

std::size_t Communicator::Blocks::offset(int p) const {
  return varying ? static_cast<std::size_t>(displs[idx(p)]) * elem : idx(p) * block;
}

std::size_t Communicator::Blocks::bytes(int p) const {
  return varying ? static_cast<std::size_t>(counts[idx(p)]) * elem : block;
}

bool Communicator::Blocks::fits(int n) const {
  return !varying || (counts.size() == idx(n) && displs.size() == idx(n));
}

std::size_t Communicator::Blocks::extent(int n) const {
  std::size_t end = 0;
  for (int p = 0; p < n; ++p) end = std::max(end, offset(p) + bytes(p));
  return end;
}

// ---- algorithm selection --------------------------------------------------

coll::Algo Communicator::pick(coll::Coll coll, Bytes bytes, int list_size,
                              bool two_level) const {
  const JobState& job = engine_->job();
  return job.coll_tuning.select(coll, bytes, list_size, job.coll_cph, two_level);
}

void Communicator::note_algo(coll::Coll coll, coll::Algo algo, Bytes bytes,
                             Micros begin) {
  engine_->profile().add_coll_algo(coll, algo);
  if (engine_->job().record_trace) {
    engine_->records().trace.push_back(
        {sim::TraceKind::CollAlgo, engine_->world_rank(), -1, bytes,
         engine_->clock().now(),
         std::string(coll::to_string(coll)) + "/" + coll::to_string(algo)});
  }
  if (engine_->job().record_spans)
    engine_->records().spans.push_back(
        {std::string(coll::to_string(coll)), obs::SpanCat::Coll,
         engine_->world_rank(), -1, -1, bytes, begin, engine_->clock().now(),
         coll::to_string(algo)});
}

// ---- tunable collectives --------------------------------------------------

void Communicator::barrier() { run_tunable({coll::Coll::Barrier}); }

void Communicator::raw_barrier() {
  const Collective scope(*this, "barrier");
  barrier_over(all_ranks(), scope.tag, coll::Algo::Dissemination);
}

void Communicator::run_tunable(const TunableCall& call) {
  const ProfiledCall prof_scope(*engine_, kCallKind[static_cast<std::size_t>(call.coll)]);
  const Collective scope(*this, coll::to_string(call.coll));
  const int tag = scope.tag;
  const Bytes bytes = call.in.size();
  // Only the root's reduce output counts; bcast works in place.
  const bool fills_out = call.coll == coll::Coll::Allreduce ||
                         call.coll == coll::Coll::Allgather ||
                         (call.coll == coll::Coll::Reduce && rank() == call.root);
  const Bytes needed = call.coll == coll::Coll::Allgather ? bytes * idx(size()) : bytes;
  CBMPI_REQUIRE(!fills_out || call.out.size() >= needed, coll::to_string(call.coll),
                " output buffer too small");
  const auto& groups = locality_groups();
  // The hierarchical allgather additionally needs uniform contiguous groups
  // so the leader-level exchange lands in rank order.
  const bool two_level_ok =
      !groups.trivial() &&
      (call.coll != coll::Coll::Allgather || (groups.uniform && groups.contiguous));
  const coll::Algo algo = pick(call.coll, bytes, size(), two_level_ok);
  note_algo(call.coll,
            algo == coll::Algo::TwoLevel ? run_two_level(call, groups, tag)
                                         : run_flat(all_ranks(), call, tag, algo),
            bytes, prof_scope.start());
}

coll::Algo Communicator::run_flat(const std::vector<int>& list, const TunableCall& call,
                                  int tag, coll::Algo algo) {
  switch (call.coll) {
    case coll::Coll::Barrier:
      return barrier_over(list, tag, algo);
    case coll::Coll::Bcast:
      return bcast_over(list, call.out, call.elem, call.root, tag, algo);
    case coll::Coll::Reduce:
      return reduce_over(list, call.in, call.out, call.red, call.root, tag, algo);
    case coll::Coll::Allreduce:
      return allreduce_over(list, call.in, call.out, call.elem, call.red, tag, algo);
    case coll::Coll::Allgather:
      return allgather_over(list, call.in, call.out, tag, algo);
    case coll::Coll::Alltoall:
    case coll::Coll::Count_:
      break;
  }
  throw Error(std::string("no list algorithm for ") + coll::to_string(call.coll));
}

coll::Algo Communicator::run_two_level(const TunableCall& call,
                                       const LocalityGroups& groups, int tag) {
  const Bytes bytes = call.in.size();
  const std::vector<int>& group = groups.my_group;
  const int leader_pos = position_of(group, groups.my_leader);
  const bool leader = rank() == groups.my_leader;
  const int nleaders = static_cast<int>(groups.leaders.size());
  const int root_leader = groups.leader_of[idx(call.root)];
  switch (call.coll) {
    case coll::Coll::Barrier: {
      // Local gather to the leader, leader barrier, local release.
      std::byte token{1};
      linear_over(group, leader_pos, /*to_root=*/true, {&token, 1}, tag);
      if (leader)
        barrier_over(groups.leaders, tag + 4, pick(coll::Coll::Barrier, 0, nleaders));
      linear_over(group, leader_pos, /*to_root=*/false, {&token, 1}, tag + 8);
      break;
    }
    case coll::Coll::Bcast:
      // Phase 1: if the root is not its group's leader, hand the data to it.
      if (call.root != root_leader) {
        if (rank() == call.root)
          raw_send(call.out, root_leader, tag);
        else if (rank() == root_leader)
          raw_recv(call.out, call.root, tag);
      }
      // Phase 2: broadcast across leaders, rooted at the root's leader.
      if (leader)
        bcast_over(groups.leaders, call.out, call.elem,
                   position_of(groups.leaders, root_leader), tag + 1,
                   pick(coll::Coll::Bcast, bytes, nleaders));
      // Phase 3: each leader broadcasts within its group.
      bcast_over(group, call.out, call.elem, leader_pos, tag + 2,
                 pick(coll::Coll::Bcast, bytes, groups.group_size));
      break;
    case coll::Coll::Reduce: {
      // Phase 1: reduce within each group, to its leader (commutative ops,
      // so group-local combination order is free).
      std::vector<std::byte> local(leader ? bytes : 0);
      reduce_over(group, call.in, local, call.red, leader_pos, tag,
                  pick(coll::Coll::Reduce, bytes, groups.group_size));
      // Phase 2: reduce across leaders, to the root's leader.
      if (leader) {
        std::vector<std::byte> global(rank() == root_leader ? bytes : 0);
        reduce_over(groups.leaders, local, global, call.red,
                    position_of(groups.leaders, root_leader), tag + 4,
                    pick(coll::Coll::Reduce, bytes, nleaders));
        // Phase 3: hand the result from the root's leader to the root.
        if (rank() == root_leader && rank() == call.root)
          copy_bytes(global, call.out);
        else if (rank() == root_leader)
          raw_send(global, call.root, tag + 8);
      }
      if (rank() == call.root && call.root != root_leader)
        raw_recv(call.out.first(bytes), root_leader, tag + 8);
      break;
    }
    case coll::Coll::Allreduce:
      // Local reduce to the leader, allreduce across leaders, local bcast.
      reduce_over(group, call.in, call.out, call.red, leader_pos, tag,
                  pick(coll::Coll::Reduce, bytes, groups.group_size));
      if (leader) {
        const auto partial = call.out.first(bytes);
        const std::vector<std::byte> tmp(partial.begin(), partial.end());
        allreduce_over(groups.leaders, tmp, call.out, call.elem, call.red, tag + 4,
                       pick(coll::Coll::Allreduce, bytes, nleaders));
      }
      bcast_over(group, call.out.first(bytes), call.elem, leader_pos, tag + 8,
                 pick(coll::Coll::Bcast, bytes, groups.group_size));
      break;
    case coll::Coll::Allgather: {
      // Gather locally to the leader, allgather the concatenated group blocks
      // across leaders, then bcast the full result locally. Group contiguity
      // makes the concatenation land in rank order (each group's block
      // starts at its leader's rank offset).
      const std::size_t group_block = bytes * group.size();
      if (leader) {
        copy_bytes(call.in, call.out.subspan(bytes * idx(rank()), bytes));
        for (int member : group)
          if (member != rank())
            raw_recv(call.out.subspan(bytes * idx(member), bytes), member, tag);
        const auto my_slot = idx(position_of(groups.leaders, rank())) * group_block;
        std::vector<std::byte> packed(group_block * groups.leaders.size());
        const WBytes all_groups(packed);
        copy_bytes(call.out.subspan(bytes * idx(rank()), group_block),
                   all_groups.subspan(my_slot, group_block));
        allgather_over(groups.leaders, all_groups.subspan(my_slot, group_block),
                       all_groups, tag + 4,
                       pick(coll::Coll::Allgather, group_block, nleaders));
        for (std::size_t g = 0; g < groups.leaders.size(); ++g)
          copy_bytes(all_groups.subspan(group_block * g, group_block),
                     call.out.subspan(bytes * idx(groups.leaders[g]), group_block));
      } else {
        raw_send(call.in, groups.my_leader, tag);
      }
      bcast_over(group, call.out, call.elem, leader_pos, tag + 8,
                 pick(coll::Coll::Bcast, call.out.size(), groups.group_size));
      break;
    }
    case coll::Coll::Alltoall:
    case coll::Coll::Count_:
      throw Error(std::string("no two-level algorithm for ") +
                  coll::to_string(call.coll));
  }
  return coll::Algo::TwoLevel;
}

// ---- barrier and linear exchanges -----------------------------------------

coll::Algo Communicator::barrier_over(const std::vector<int>& list, int tag,
                                      coll::Algo algo) {
  const int m = static_cast<int>(list.size());
  if (m <= 1) return algo;
  std::byte token{1};
  if (algo == coll::Algo::FlatTree) {
    // Linear through the list head: gather tokens at tag, release at tag+1.
    linear_over(list, 0, /*to_root=*/true, {&token, 1}, tag);
    linear_over(list, 0, /*to_root=*/false, {&token, 1}, tag + 1);
    return algo;
  }
  // Dissemination: log2(m) rounds with distinct distances, so a single tag
  // is safe under per-sender FIFO.
  const int pos = position_in(list);
  std::byte incoming{0};
  for (int dist = 1; dist < m; dist <<= 1)
    raw_sendrecv({&token, 1}, list[idx((pos + dist) % m)], {&incoming, 1},
                 list[idx((pos - dist % m + m) % m)], tag);
  return coll::Algo::Dissemination;
}

void Communicator::linear_over(const std::vector<int>& list, int root_pos, bool to_root,
                               WBytes data, int tag) {
  const int root = list[idx(root_pos)];
  if (rank() != root) {
    if (to_root)
      raw_send(data, root, tag);
    else
      raw_recv(data, root, tag);
    return;
  }
  for (const int member : list) {
    if (member == root) continue;
    if (to_root)
      raw_recv(data, member, tag);
    else
      raw_send(data, member, tag);
  }
}

// ---- broadcast ------------------------------------------------------------

// Binomial | FlatTree | VanDeGeijn (scatter + ring allgather, tags
// [tag, tag+2)). VanDeGeijn needs one payload element per rank and
// downgrades to Binomial otherwise.
coll::Algo Communicator::bcast_over(const std::vector<int>& list, WBytes data,
                                    std::size_t elem, int root_pos, int tag,
                                    coll::Algo algo) {
  const int m = static_cast<int>(list.size());
  if (m <= 1) return algo;
  const std::size_t n = data.size() / elem;
  if (algo == coll::Algo::VanDeGeijn && n < idx(m)) algo = coll::Algo::Binomial;
  if (algo == coll::Algo::FlatTree) {
    linear_over(list, root_pos, /*to_root=*/false, data, tag);
    return algo;
  }

  const int pos = position_in(list);
  if (algo == coll::Algo::VanDeGeijn) {
    // Block partition of the payload's elements by position.
    std::vector<int> counts(idx(m));
    std::vector<int> displs(idx(m));
    std::size_t offset = 0;
    for (std::size_t q = 0; q < idx(m); ++q) {
      const std::size_t c = n / idx(m) + (q < n % idx(m) ? 1 : 0);
      counts[q] = static_cast<int>(c);
      displs[q] = static_cast<int>(offset);
      offset += c;
    }
    const Blocks blocks = Blocks::v(counts, displs, elem);
    // Scatter phase (linear from the root).
    if (pos == root_pos) {
      for (int q = 0; q < m; ++q)
        if (q != root_pos) raw_send(blocks.of(data, q), list[idx(q)], tag);
    } else {
      raw_recv(blocks.of(data, pos), list[idx(root_pos)], tag);
    }
    // Ring allgather of the blocks completes the broadcast.
    ring_over(list, data, blocks, tag + 1);
    return algo;
  }

  // Binomial tree on virtual ranks rooted at 0.
  const int vrank = (pos - root_pos + m) % m;
  auto real = [&](int v) { return list[idx((v + root_pos) % m)]; };
  int mask = 1;
  while (mask < m) {
    if (vrank & mask) {
      raw_recv(data, real(vrank - mask), tag);
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1)
    if (vrank + mask < m) raw_send(data, real(vrank + mask), tag);
  return coll::Algo::Binomial;
}

// ---- reduce ---------------------------------------------------------------

// Binomial | FlatTree; commutative ops. Only the root's `out` is written.
coll::Algo Communicator::reduce_over(const std::vector<int>& list, CBytes in, WBytes out,
                                     Reducer red, int root_pos, int tag,
                                     coll::Algo algo) {
  const int m = static_cast<int>(list.size());
  const int pos = position_in(list);

  if (algo == coll::Algo::FlatTree && m > 1) {
    if (pos != root_pos) {
      raw_send(in, list[idx(root_pos)], tag);
      return algo;
    }
    std::vector<std::byte> acc(in.begin(), in.end());
    std::vector<std::byte> incoming(in.size());
    // Fixed list order keeps the combination order identical across runs.
    for (int q = 0; q < m; ++q) {
      if (q == root_pos) continue;
      raw_recv(incoming, list[idx(q)], tag);
      red(incoming, acc);
    }
    copy_bytes(acc, out);
    return algo;
  }

  const int vrank = (pos - root_pos + m) % m;
  std::vector<std::byte> acc(in.begin(), in.end());
  if (m > 1) {
    auto real = [&](int v) { return list[idx((v + root_pos) % m)]; };
    std::vector<std::byte> incoming(in.size());
    for (int mask = 1; mask < m; mask <<= 1) {
      if (vrank & mask) {
        raw_send(acc, real(vrank - mask), tag);
        break;
      }
      if (vrank + mask < m) {
        raw_recv(incoming, real(vrank + mask), tag);
        red(incoming, acc);
      }
    }
  }
  if (vrank == 0) copy_bytes(acc, out);
  return coll::Algo::Binomial;
}

// ---- allreduce ------------------------------------------------------------

// RecursiveDoubling (power-of-two lists) | Rabenseifner (power-of-two lists,
// zero-identity ops; reduce-scatter + ring allgather, tags [tag, tag+2)) |
// ReduceBcast (any list; tags [tag, tag+2), the bcast leg selects its own
// algorithm from the table).
coll::Algo Communicator::allreduce_over(const std::vector<int>& list, CBytes in,
                                        WBytes out, std::size_t elem, Reducer red,
                                        int tag, coll::Algo algo) {
  const int m = static_cast<int>(list.size());
  if (m == 1) {
    copy_bytes(in, out);
    return algo;
  }
  const bool pow2 = is_power_of_two(idx(m));
  // Rabenseifner pads the vector with zero bytes, the value-initialized
  // element, which is only an identity for zero-identity operators.
  const bool zero_identity = red.op == ReduceOp::Sum || red.op == ReduceOp::BitOr ||
                             red.op == ReduceOp::LogicalOr;
  if (algo == coll::Algo::Rabenseifner && !(pow2 && zero_identity))
    algo = pow2 ? coll::Algo::RecursiveDoubling : coll::Algo::ReduceBcast;
  if (algo == coll::Algo::RecursiveDoubling && !pow2) algo = coll::Algo::ReduceBcast;

  if (algo == coll::Algo::Rabenseifner) {
    // Pad to m equal blocks of whole elements.
    const std::size_t block = (in.size() / elem + idx(m) - 1) / idx(m) * elem;
    std::vector<std::byte> padded(block * idx(m));
    copy_bytes(in, padded);
    std::vector<std::byte> my_block(block);
    reduce_scatter_halving_over(list, padded, my_block, elem, red, tag);
    allgather_over(list, my_block, padded, tag + 1, coll::Algo::Ring);
    copy_bytes(CBytes(padded).first(in.size()), out);
    return algo;
  }
  if (algo == coll::Algo::RecursiveDoubling) {
    const int pos = position_in(list);
    std::vector<std::byte> acc(in.begin(), in.end());
    std::vector<std::byte> incoming(in.size());
    for (int mask = 1; mask < m; mask <<= 1) {
      const int partner = list[idx(pos ^ mask)];
      raw_sendrecv(acc, partner, incoming, partner, tag);
      red(incoming, acc);
    }
    copy_bytes(acc, out);
    return algo;
  }
  reduce_over(list, in, out, red, 0, tag, coll::Algo::Binomial);
  bcast_over(list, out.first(in.size()), elem, 0, tag + 1,
             pick(coll::Coll::Bcast, in.size(), m));
  return coll::Algo::ReduceBcast;
}

void Communicator::reduce_scatter_halving_over(const std::vector<int>& list, CBytes in,
                                               WBytes block_out, std::size_t elem,
                                               Reducer red, int tag) {
  const int m = static_cast<int>(list.size());
  const std::size_t elems = in.size() / elem;
  const std::size_t block = elems / idx(m) * elem;
  const int pos = position_in(list);

  std::vector<std::byte> acc(in.begin(), in.end());
  std::vector<std::byte> incoming((elems / 2 + 1) * elem);
  std::size_t start = 0;  // in blocks
  std::size_t count = idx(m);
  for (int mask = m >> 1; mask > 0; mask >>= 1) {
    const int partner = list[idx(pos ^ mask)];
    const std::size_t half = count / 2;
    const bool upper = (pos & mask) != 0;
    const std::size_t keep_start = upper ? start + half : start;
    const std::size_t send_start = upper ? start : start + half;
    const auto half_in = WBytes(incoming).first(half * block);
    raw_sendrecv(CBytes(acc).subspan(send_start * block, half * block),
                 partner, half_in, partner, tag);
    red(half_in, WBytes(acc).subspan(keep_start * block, half * block));
    start = keep_start;
    count = half;
  }
  // After log2(m) rounds this rank holds the reduction of block `pos`.
  copy_bytes(CBytes(acc).subspan(start * block, block), block_out);
}

// ---- allgather ------------------------------------------------------------

// Ring | GatherBcast (linear gather to the list head + binomial bcast of the
// full buffer; uses tags [tag, tag+2)).
coll::Algo Communicator::allgather_over(const std::vector<int>& list, CBytes mine,
                                        WBytes all, int tag, coll::Algo algo) {
  const int m = static_cast<int>(list.size());
  const std::size_t block = mine.size();
  const int pos = position_in(list);
  copy_bytes(mine, all.subspan(block * idx(pos), block));
  if (m == 1) return algo;
  if (algo != coll::Algo::GatherBcast) {
    ring_over(list, all, Blocks{block}, tag);
    return coll::Algo::Ring;
  }
  if (pos == 0) {
    for (int q = 1; q < m; ++q)
      raw_recv(all.subspan(block * idx(q), block), list[idx(q)], tag);
  } else {
    raw_send(mine, list[0], tag);
  }
  // A binomial bcast never looks at the element size.
  bcast_over(list, all.first(block * idx(m)), 1, 0, tag + 1, coll::Algo::Binomial);
  return algo;
}

void Communicator::ring_over(const std::vector<int>& list, WBytes all,
                             const Blocks& blocks, int tag) {
  // In step s each rank forwards the block it received in step s-1.
  const int m = static_cast<int>(list.size());
  const int pos = position_in(list);
  const int right = list[idx((pos + 1) % m)];
  const int left = list[idx((pos - 1 + m) % m)];
  const auto step = [&](int s) {
    return Exchange::Step{blocks.of(all, (pos - s + m) % m), right,
                          blocks.of(all, (pos - s - 1 + m) % m), left};
  };
  engine_->exchange_steps(exchange(), rank(), {m - 1, step}, tag, context(tag));
}

Exchange& Communicator::exchange() {
  if (exchange_ == nullptr)
    exchange_ = &engine_->job().exchange(id_, group_->world_ranks);
  return *exchange_;
}

void Communicator::allgatherv_bytes(CBytes mine, WBytes all, const Blocks& blocks) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::AllgatherV);
  const Collective scope(*this, "allgatherv");
  const int tag = scope.tag;
  const char* const name = prof::to_string(prof::CallKind::AllgatherV);
  CBMPI_REQUIRE(blocks.fits(size()), name, " counts/displs must have comm-size entries");
  CBMPI_REQUIRE(mine.size() == blocks.bytes(rank()), name, " input size mismatch");
  CBMPI_REQUIRE(all.size() >= blocks.extent(size()), name, " output buffer too small");
  copy_bytes(mine, blocks.of(all, rank()));
  ring_over(all_ranks(), all, blocks, tag);
}

// ---- gather / scatter (linear, over the whole communicator) ---------------

void Communicator::gather_bytes(prof::CallKind kind, CBytes mine, WBytes all,
                                const Blocks& blocks, int root) {
  const ProfiledCall prof_scope(*engine_, kind);
  const Collective scope(*this, kind == prof::CallKind::Gatherv ? "gatherv" : "gather");
  const int tag = scope.tag;
  CBMPI_REQUIRE(blocks.fits(size()), prof::to_string(kind),
                " counts/displs must have comm-size entries");
  if (rank() != root) {
    raw_send(mine, root, tag);
    return;
  }
  CBMPI_REQUIRE(all.size() >= blocks.extent(size()), prof::to_string(kind),
                " output buffer too small");
  for (int r = 0; r < size(); ++r) {
    if (r == root)
      copy_bytes(mine, blocks.of(all, r));
    else
      raw_recv(blocks.of(all, r), r, tag);
  }
}

void Communicator::scatter_bytes(prof::CallKind kind, CBytes all, const Blocks& blocks,
                                 WBytes mine, int root) {
  const ProfiledCall prof_scope(*engine_, kind);
  const Collective scope(*this,
                         kind == prof::CallKind::Scatterv ? "scatterv" : "scatter");
  const int tag = scope.tag;
  CBMPI_REQUIRE(blocks.fits(size()), prof::to_string(kind),
                " counts/displs must have comm-size entries");
  CBMPI_REQUIRE(mine.size() >= blocks.bytes(rank()), prof::to_string(kind),
                " output buffer too small");
  CBMPI_REQUIRE(rank() != root || all.size() >= blocks.extent(size()),
                prof::to_string(kind), " input buffer too small");
  scatter_over(all, blocks, mine, root, tag);
}

void Communicator::scatter_over(CBytes all, const Blocks& blocks, WBytes mine, int root,
                                int tag) {
  if (rank() != root) {
    raw_recv(mine.first(blocks.bytes(rank())), root, tag);
    return;
  }
  for (int r = 0; r < size(); ++r) {
    if (r == root)
      copy_bytes(blocks.of(all, r), mine);
    else
      raw_send(blocks.of(all, r), r, tag);
  }
}

// ---- alltoall -------------------------------------------------------------

void Communicator::alltoall_bytes(prof::CallKind kind, CBytes send_data,
                                  const Blocks& send_blocks, WBytes recv_data,
                                  const Blocks& recv_blocks) {
  const ProfiledCall prof_scope(*engine_, kind);
  const Collective scope(*this,
                         kind == prof::CallKind::Alltoallv ? "alltoallv" : "alltoall");
  const int tag = scope.tag;
  const int n = size();
  CBMPI_REQUIRE(send_blocks.fits(n) && recv_blocks.fits(n), prof::to_string(kind),
                " counts/displs must have comm-size entries");
  // The uniform form takes its block size from the send buffer, so it must
  // divide evenly.
  const Bytes send_extent = send_blocks.extent(n);
  CBMPI_REQUIRE((send_blocks.varying ? send_data.size() >= send_extent
                                     : send_data.size() == send_extent) &&
                    recv_data.size() >= recv_blocks.extent(n) &&
                    recv_blocks.bytes(rank()) >= send_blocks.bytes(rank()),
                prof::to_string(kind), " buffer size mismatch");
  copy_bytes(send_blocks.of(send_data, rank()), recv_blocks.of(recv_data, rank()));
  if (kind == prof::CallKind::Alltoallv) {
    pairwise_over(send_data, send_blocks, recv_data, recv_blocks, tag);
    return;
  }
  // No hierarchical variant (matches the paper: alltoall gains least from
  // locality), so no table row names TwoLevel here.
  const std::size_t block = send_blocks.block;
  coll::Algo algo = pick(coll::Coll::Alltoall, block, n);
  if (n > 1) {
    switch (algo) {
      case coll::Algo::Bruck:
        alltoall_bruck(send_data, recv_data, block, tag);
        break;
      case coll::Algo::Spread:
        alltoall_spread(send_data, recv_data, block, tag);
        break;
      default:
        algo = coll::Algo::Pairwise;
        pairwise_over(send_data, send_blocks, recv_data, recv_blocks, tag);
        break;
    }
  }
  note_algo(coll::Coll::Alltoall, algo, block, prof_scope.start());
}

void Communicator::pairwise_over(CBytes send_data, const Blocks& send_blocks,
                                 WBytes recv_data, const Blocks& recv_blocks, int tag) {
  const int n = size();
  const bool pow2 = is_power_of_two(idx(n));
  const auto step = [&](int s) {
    const int send_to = pow2 ? (rank() ^ (s + 1)) : (rank() + s + 1) % n;
    const int recv_from = pow2 ? (rank() ^ (s + 1)) : (rank() - s - 1 + n) % n;
    return Exchange::Step{send_blocks.of(send_data, send_to), send_to,
                          recv_blocks.of(recv_data, recv_from), recv_from};
  };
  engine_->exchange_steps(exchange(), rank(), {n - 1, step}, tag, context(tag));
}

// Bruck: ceil(log2(n)) combined-block rounds — fewer, larger messages, at the
// cost of local packing copies. Wins for small blocks. `block` is in bytes.
void Communicator::alltoall_bruck(CBytes send_data, WBytes recv_data, std::size_t block,
                                  int tag) {
  const auto n = idx(size());
  const auto my = idx(rank());
  const auto at = [block](auto* base, std::size_t i) { return base + block * i; };
  // Phase 1: local rotation — tmp block i is the block destined to rank+i.
  std::vector<std::byte> tmp(block * n);
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(at(send_data.data(), (my + i) % n), block, at(tmp.data(), i));
  // Phase 2: for each bit, ship every block whose index has that bit set to
  // the rank 2^bit ahead; after all rounds tmp block i holds the block *from*
  // rank (rank - i).
  std::vector<std::byte> pack(block * ((n + 1) / 2));
  std::vector<std::byte> unpack(pack.size());
  for (std::size_t pow = 1; pow < n; pow <<= 1) {
    std::size_t cnt = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (i & pow) std::copy_n(at(tmp.data(), i), block, at(pack.data(), cnt++));
    raw_sendrecv(CBytes(pack).first(block * cnt),
                 static_cast<int>((my + pow) % n), WBytes(unpack).first(block * cnt),
                 static_cast<int>((my + n - pow) % n), tag);
    cnt = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (i & pow) std::copy_n(at(unpack.data(), cnt++), block, at(tmp.data(), i));
  }
  // Phase 3: inverse rotation with reversal.
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(at(tmp.data(), i), block, at(recv_data.data(), (my + n - i) % n));
}

// Spread: every block in flight at once, as the communicator's exchange in
// host memory (Adi3Engine::alltoall).
void Communicator::alltoall_spread(CBytes send_data, WBytes recv_data, std::size_t block,
                                   int tag) {
  engine_->alltoall(exchange(), rank(), send_data, recv_data, block, tag, context(tag));
}

// ---- reduce_scatter_block, prefix scans -----------------------------------

void Communicator::reduce_scatter_block_bytes(CBytes in, WBytes out, std::size_t elem,
                                              Reducer red) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::ReduceScatter);
  const Collective scope(*this, "reduce_scatter_block");
  const int tag = scope.tag;
  const int n = size();
  const std::size_t block = in.size() / elem / idx(n) * elem;
  CBMPI_REQUIRE(in.size() == block * idx(n) && out.size() >= block,
                "reduce_scatter_block buffer size mismatch");
  if (is_power_of_two(idx(n)) && n > 1) {
    reduce_scatter_halving_over(all_ranks(), in, out, elem, red, tag);
    return;
  }
  // Fallback: reduce to rank 0, then scatter (uses the tag block's tail).
  std::vector<std::byte> full(rank() == 0 ? in.size() : 0);
  reduce_over(all_ranks(), in, full, red, 0, tag, coll::Algo::Binomial);
  scatter_over(full, Blocks{block}, out, 0, tag + 1);
}

// Recursive doubling: in round k each rank sends its running partial to
// rank + 2^k and folds in the partial of rank - 2^k. An exclusive scan leaves
// zero bytes (the value-initialized element) on rank 0.
void Communicator::scan_bytes(prof::CallKind kind, CBytes in, WBytes out, Reducer red) {
  const ProfiledCall prof_scope(*engine_, kind);
  const Collective scope(*this, kind == prof::CallKind::Exscan ? "exscan" : "scan");
  const int tag = scope.tag;
  const int n = size();
  CBMPI_REQUIRE(out.size() >= in.size(), prof::to_string(kind),
                " output buffer too small");
  const WBytes result = out.first(in.size());
  bool have_result = kind != prof::CallKind::Exscan;
  if (have_result)
    copy_bytes(in, result);
  else
    std::fill(result.begin(), result.end(), std::byte{0});
  std::vector<std::byte> partial(in.begin(), in.end());
  std::vector<std::byte> incoming(in.size());
  for (int mask = 1; mask < n; mask <<= 1) {
    const std::vector<std::byte> snapshot = partial;  // value sent this round
    Request send_req;
    if (rank() + mask < n) send_req = raw_isend(snapshot, rank() + mask, tag);
    if (rank() - mask >= 0) {
      raw_recv(incoming, rank() - mask, tag);
      red(incoming, partial);
      if (have_result)
        red(incoming, result);
      else
        copy_bytes(incoming, result);
      have_result = true;
    }
    if (send_req) engine_->wait(send_req);
  }
}

}  // namespace cbmpi::mpi
