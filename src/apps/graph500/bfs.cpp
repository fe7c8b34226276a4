#include "apps/graph500/bfs.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cbmpi::apps::graph500 {

namespace {

constexpr int kDataTag = 7;

/// One shipped frontier edge: the target vertex and its proposed parent.
struct Entry {
  std::uint64_t vertex;
  std::uint64_t parent;
};

}  // namespace

BfsResult run_bfs(mpi::Process& p, const DistGraph& graph, std::uint64_t root,
                  const BfsParams& params) {
  auto& comm = p.world();
  const int nranks = comm.size();
  const int me = comm.rank();
  CBMPI_REQUIRE(root < graph.num_global_vertices, "BFS root out of range");

  const std::size_t entries_per_buffer =
      std::max<std::size_t>(1, params.coalesce_bytes / sizeof(Entry));

  BfsResult result;
  result.root = root;
  result.parent.assign(graph.local_vertices(), kUnreached);
  result.level.assign(graph.local_vertices(), -1);

  comm.barrier();
  p.sync_time();
  const Micros start = p.now();

  // Pre-posted wildcard receives (the mpi-simple receive pool).
  std::vector<std::vector<Entry>> recv_bufs(
      static_cast<std::size_t>(params.recv_depth),
      std::vector<Entry>(entries_per_buffer));
  std::vector<mpi::Request> recv_reqs(static_cast<std::size_t>(params.recv_depth));
  if (nranks > 1) {
    for (int b = 0; b < params.recv_depth; ++b)
      recv_reqs[static_cast<std::size_t>(b)] = comm.irecv(
          std::span<Entry>(recv_bufs[static_cast<std::size_t>(b)]), mpi::kAnySource,
          kDataTag);
  }

  // Per-destination coalescing buffers and in-flight sends.
  std::vector<std::vector<Entry>> send_bufs(static_cast<std::size_t>(nranks));
  for (auto& buf : send_bufs) buf.reserve(entries_per_buffer);
  std::vector<std::pair<mpi::Request, std::vector<Entry>>> in_flight;

  std::vector<std::uint64_t> frontier;       // local vertex ids
  std::vector<std::uint64_t> next_frontier;  // local vertex ids
  std::vector<std::int64_t> sent_counts(static_cast<std::size_t>(nranks), 0);
  std::vector<std::int64_t> received_counts(static_cast<std::size_t>(nranks), 0);

  std::uint64_t local_visited = 0;
  std::uint64_t local_scanned = 0;
  int level = 0;

  if (graph.owner(root) == me) {
    const std::uint64_t local_root = graph.to_local(root);
    result.parent[local_root] = root;
    result.level[local_root] = 0;
    frontier.push_back(local_root);
    ++local_visited;
  }

  auto relax = [&](std::uint64_t global_v, std::uint64_t parent, int at_level) {
    const std::uint64_t local = graph.to_local(global_v);
    if (result.parent[local] == kUnreached) {
      result.parent[local] = parent;
      result.level[local] = at_level;
      next_frontier.push_back(local);
      ++local_visited;
    }
  };

  auto prune_sends = [&] {
    std::erase_if(in_flight, [&](auto& pending) { return comm.test(pending.first); });
  };

  // Drain any completed receive buffer; returns true if one was processed.
  auto poll_receives = [&](int at_level) {
    if (nranks <= 1) return false;
    bool any = false;
    for (int b = 0; b < params.recv_depth; ++b) {
      auto& req = recv_reqs[static_cast<std::size_t>(b)];
      if (!comm.test(req)) continue;
      const auto status = req->status;
      const int src = comm.from_world(status.source);
      const auto entries = status.bytes / sizeof(Entry);
      auto& buf = recv_bufs[static_cast<std::size_t>(b)];
      for (std::size_t i = 0; i < entries; ++i)
        relax(buf[i].vertex, buf[i].parent, at_level);
      received_counts[static_cast<std::size_t>(src)] +=
          static_cast<std::int64_t>(entries);
      p.compute(static_cast<double>(entries) * params.ops_per_edge);
      req = comm.irecv(std::span<Entry>(buf), mpi::kAnySource, kDataTag);
      any = true;
    }
    return any;
  };

  auto flush_buffer = [&](int dest) {
    auto& buf = send_bufs[static_cast<std::size_t>(dest)];
    if (buf.empty()) return;
    sent_counts[static_cast<std::size_t>(dest)] +=
        static_cast<std::int64_t>(buf.size());
    std::vector<Entry> shipped = std::move(buf);  // backing store for the isend
    buf.clear();
    buf.reserve(entries_per_buffer);
    auto req =
        comm.isend(std::span<const Entry>(shipped.data(), shipped.size()), dest,
                   kDataTag);
    in_flight.emplace_back(std::move(req), std::move(shipped));
  };

  while (true) {
    // Expand the local frontier.
    for (const std::uint64_t u_local : frontier) {
      const std::uint64_t u_global = graph.to_global(u_local);
      const auto neighbors = graph.neighbors(u_local);
      local_scanned += neighbors.size();
      p.compute(static_cast<double>(neighbors.size()) * params.ops_per_edge);
      for (const std::uint64_t v : neighbors) {
        const int owner = graph.owner(v);
        if (owner == me) {
          relax(v, u_global, level + 1);
        } else {
          auto& buf = send_bufs[static_cast<std::size_t>(owner)];
          buf.push_back({v, u_global});
          if (buf.size() >= entries_per_buffer) flush_buffer(owner);
        }
      }
      poll_receives(level + 1);
      prune_sends();
    }
    // Ship partial buffers.
    for (int dest = 0; dest < nranks; ++dest) flush_buffer(dest);

    if (nranks > 1) {
      // Level termination: exchange per-peer entry counts, then drain until
      // every expected entry arrived.
      std::vector<std::int64_t> expected(static_cast<std::size_t>(nranks), 0);
      comm.alltoall(std::span<const std::int64_t>(sent_counts),
                    std::span<std::int64_t>(expected));
      auto all_received = [&] {
        for (int r = 0; r < nranks; ++r)
          if (received_counts[static_cast<std::size_t>(r)] <
              expected[static_cast<std::size_t>(r)])
            return false;
        return true;
      };
      while (!all_received()) poll_receives(level + 1);
      std::fill(sent_counts.begin(), sent_counts.end(), 0);
      std::fill(received_counts.begin(), received_counts.end(), 0);
      while (!in_flight.empty()) prune_sends();
    }

    const auto next_global = comm.allreduce_value(
        static_cast<std::int64_t>(next_frontier.size()), mpi::ReduceOp::Sum);
    frontier.swap(next_frontier);
    next_frontier.clear();
    ++level;
    if (next_global == 0) break;
  }

  // Withdraw the receive pool; no BFS data can be in flight anymore.
  if (nranks > 1)
    for (auto& req : recv_reqs) comm.cancel(req);

  const Micros elapsed = p.now() - start;
  result.time = comm.allreduce_value(elapsed, mpi::ReduceOp::Max);
  result.visited = static_cast<std::uint64_t>(comm.allreduce_value(
      static_cast<std::int64_t>(local_visited), mpi::ReduceOp::Sum));
  result.edges_scanned = static_cast<std::uint64_t>(comm.allreduce_value(
      static_cast<std::int64_t>(local_scanned), mpi::ReduceOp::Sum));
  result.levels = level;
  return result;
}

}  // namespace cbmpi::apps::graph500
