// Communicator: the user-facing MPI-like API.
//
// Typed point-to-point and collective operations over contiguous spans of
// trivially-copyable elements. Collective algorithms are written once over an
// arbitrary *list* of communicator ranks, which lets the hierarchical
// (two-level, leader-based) variants reuse the flat algorithms: the local
// phase runs over the detected co-resident group, the global phase over the
// group leaders. Which ranks count as "co-resident" comes from the channel
// selector's policy — hostname-based (default) or container-aware (the
// paper's design) — so the benefit of locality awareness flows through both
// point-to-point channel selection and collective topology.
//
// Which algorithm runs for a given call is no longer hard-wired: the six
// tunable collectives (barrier, bcast, reduce, allreduce, allgather,
// alltoall) consult the job's coll::Engine, which resolves (collective,
// message size, rank count, containers-per-host) through the TuningTable —
// see src/mpi/coll/. The available algorithms:
//   barrier     dissemination | flat-tree       (2-level: gather + release)
//   bcast       binomial | flat-tree | van de Geijn (2-level: leaders, local)
//   reduce      binomial | flat-tree (commutative ops)
//               (2-level: local reduce, leader reduce, hand-off to root)
//   allreduce   recursive doubling | Rabenseifner | reduce+bcast
//               (2-level: local reduce, leader allreduce, local bcast)
//   gather      linear to root
//   scatter     linear from root
//   allgather   ring | gather+bcast             (2-level when groups are
//                                                uniform and contiguous)
//   alltoall    pairwise | Bruck | spread (no 2-level variant — consistent
//               with the paper, where alltoall shows the smallest gain)
//   alltoallv   pairwise exchange with per-peer counts
// Algorithms with structural preconditions (power-of-two list, payload at
// least one element per rank, zero-identity reduce op) are downgraded
// deterministically at the dispatch site; the algorithm that actually ran is
// recorded in the rank profile and (when tracing) as a CollAlgo trace event.
//
// Tag discipline: every user-level collective reserves a block of reserved
// tags (same sequence on every rank, because collectives are called in the
// same order); each internal phase uses a fixed offset within the block, so
// ranks that skip a phase (non-leaders) stay tag-consistent with ranks that
// do not.
//
// All internal traffic uses unprofiled "raw" transfers so the mpiP-style
// profile counts user-level MPI calls exactly once.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "mpi/adi3.hpp"
#include "mpi/coll/types.hpp"
#include "mpi/types.hpp"

namespace cbmpi::coll {
class Engine;
}

namespace cbmpi::mpi {

/// Tags at or above this value are reserved for collective internals.
inline constexpr int kCollectiveTagBase = 1 << 20;

struct CommGroup {
  std::vector<int> world_ranks;            ///< comm rank -> world rank
  std::unordered_map<int, int> to_comm;    ///< world rank -> comm rank

  static std::shared_ptr<const CommGroup> make(std::vector<int> world_ranks);
};

/// Locality structure of one communicator under the active policy.
struct LocalityGroups {
  std::vector<int> my_group;   ///< comm ranks co-resident with me (sorted)
  int my_leader = 0;           ///< smallest rank of my group
  std::vector<int> leaders;    ///< sorted leaders of all groups
  std::vector<int> leader_of;  ///< comm rank -> leader of its group
  bool uniform = false;        ///< all groups have equal size
  bool contiguous = false;     ///< every group is a contiguous rank range
  int group_size = 1;          ///< size of *my* group
  int max_group_size = 1;      ///< size of the largest group

  /// Whether two-level algorithms degenerate to flat ones. Must be a global
  /// property — every rank has to pick the same algorithm — so it looks at
  /// the largest group anywhere, not this rank's own (a placement can leave
  /// one rank alone on a host while other hosts hold full groups).
  bool trivial() const { return max_group_size <= 1 || leaders.size() <= 1; }
};

/// Index of `rank` within a rank list; -1 if absent.
int position_of(const std::vector<int>& list, int rank);

class Communicator {
 public:
  Communicator(Adi3Engine& engine, std::shared_ptr<const CommGroup> group,
               std::uint64_t id);

  int rank() const { return my_rank_; }
  int size() const { return static_cast<int>(group_->world_ranks.size()); }
  std::uint64_t id() const { return id_; }

  int to_world(int comm_rank) const;
  int from_world(int world_rank) const;

  Adi3Engine& engine() { return *engine_; }

  // ---- point-to-point ------------------------------------------------------

  template <typename T>
  void send(std::span<const T> data, int dst, int tag = 0);

  template <typename T>
  Status recv(std::span<T> buffer, int src = kAnySource, int tag = kAnyTag);

  template <typename T>
  Request isend(std::span<const T> data, int dst, int tag = 0);

  template <typename T>
  Request irecv(std::span<T> buffer, int src = kAnySource, int tag = kAnyTag);

  /// Non-blocking completion check (MPI_Test). Like test_any, test_all and
  /// iprobe, an unsuccessful poll yields the rank's fiber to the other ranks
  /// on its worker, so a rank polling in a loop cannot starve them.
  bool test(const Request& request);
  Status wait(const Request& request);
  void wait_all(std::span<const Request> requests);

  /// Blocks until at least one request completes; returns its index
  /// (MPI_Waitany; lowest completed index when several are ready).
  std::size_t wait_any(std::span<const Request> requests);

  /// Non-blocking: index of a completed request, if any (MPI_Testany).
  std::optional<std::size_t> test_any(std::span<const Request> requests);

  /// Non-blocking: true iff every request has completed (MPI_Testall).
  bool test_all(std::span<const Request> requests);

  void cancel(const Request& request) { engine_->cancel(request); }
  std::optional<Status> iprobe(int src = kAnySource, int tag = kAnyTag);

  /// Blocking probe: waits until a matching message is pending and returns
  /// its status without receiving it (MPI_Probe).
  Status probe(int src = kAnySource, int tag = kAnyTag);

  template <typename T>
  void sendrecv(std::span<const T> send_data, int dst, std::span<T> recv_buffer,
                int src, int tag = 0);

  /// Single-value conveniences.
  template <typename T>
  void send_value(const T& value, int dst, int tag = 0);
  template <typename T>
  T recv_value(int src = kAnySource, int tag = kAnyTag);

  // ---- collectives ---------------------------------------------------------

  void barrier();

  template <typename T>
  void bcast(std::span<T> data, int root = 0);

  template <typename T>
  void reduce(std::span<const T> in, std::span<T> out, ReduceOp op, int root = 0);

  template <typename T>
  void allreduce(std::span<const T> in, std::span<T> out, ReduceOp op);

  template <typename T>
  T allreduce_value(T value, ReduceOp op);

  template <typename T>
  void gather(std::span<const T> mine, std::span<T> all, int root = 0);

  template <typename T>
  void allgather(std::span<const T> mine, std::span<T> all);

  template <typename T>
  void scatter(std::span<const T> all, std::span<T> mine, int root = 0);

  template <typename T>
  void alltoall(std::span<const T> send_data, std::span<T> recv_data);

  template <typename T>
  void alltoallv(std::span<const T> send_data, std::span<const int> send_counts,
                 std::span<const int> send_displs, std::span<T> recv_data,
                 std::span<const int> recv_counts, std::span<const int> recv_displs);

  /// Variable-count gather/scatter/allgather (counts/displs in elements,
  /// indexed by communicator rank).
  template <typename T>
  void gatherv(std::span<const T> mine, std::span<T> all, std::span<const int> counts,
               std::span<const int> displs, int root = 0);

  template <typename T>
  void scatterv(std::span<const T> all, std::span<const int> counts,
                std::span<const int> displs, std::span<T> mine, int root = 0);

  template <typename T>
  void allgatherv(std::span<const T> mine, std::span<T> all,
                  std::span<const int> counts, std::span<const int> displs);

  /// MPI_Reduce_scatter_block: `in` holds size() equal blocks; every rank
  /// receives the reduction of its own block.
  template <typename T>
  void reduce_scatter_block(std::span<const T> in, std::span<T> out, ReduceOp op);

  /// Inclusive prefix reduction: out on rank r = reduce of ranks 0..r.
  template <typename T>
  void scan(std::span<const T> in, std::span<T> out, ReduceOp op);

  /// Exclusive prefix reduction: out on rank r = reduce of ranks 0..r-1
  /// (value-initialized on rank 0, as MPI leaves it undefined).
  template <typename T>
  void exscan(std::span<const T> in, std::span<T> out, ReduceOp op);

  template <typename T>
  T scan_value(T value, ReduceOp op);
  template <typename T>
  T exscan_value(T value, ReduceOp op);

  // ---- communicator management ---------------------------------------------

  /// Collective. Ranks passing a negative color receive std::nullopt
  /// (the MPI_COMM_NULL analogue).
  std::optional<Communicator> split(int color, int key);

  Communicator dup();

  /// Locality structure under the active policy; computed lazily, cached.
  const LocalityGroups& locality_groups();

  /// Internal: next window ordinal (same sequence on all ranks).
  std::uint64_t next_window_ordinal() { return next_window_ordinal_++; }

  /// Internal: an unprofiled barrier for window synchronisation.
  void raw_barrier();

 private:
  /// Number of reserved tags per user-level collective call. Each internal
  /// phase gets a stride-4 slice so composite algorithms (e.g. scatter +
  /// ring-allgather inside one bcast phase) have room.
  static constexpr int kSubTags = 16;

  /// Reserves a tag block; returns its base. Same sequence on every rank.
  int begin_collective();

  // Unprofiled raw transfers used by collective internals.
  template <typename T>
  Request raw_isend(std::span<const T> data, int dst, int tag);
  template <typename T>
  Request raw_irecv(std::span<T> buffer, int src, int tag, bool immediate = true);
  template <typename T>
  void raw_send(std::span<const T> data, int dst, int tag);
  template <typename T>
  void raw_recv(std::span<T> buffer, int src, int tag);
  template <typename T>
  void raw_sendrecv(std::span<const T> send_data, int dst, std::span<T> recv_buffer,
                    int src, int tag);

  // Collective algorithms over an arbitrary sorted list of comm ranks; `list`
  // must contain rank() exactly once and be identical on all listed ranks.
  // Each takes the engine-chosen algorithm, downgrades it deterministically
  // when its structural preconditions fail, and returns what actually ran.
  coll::Algo barrier_over(const std::vector<int>& list, int tag, coll::Algo algo);
  template <typename T>
  coll::Algo bcast_over(const std::vector<int>& list, std::span<T> data,
                        int root_pos, int tag, coll::Algo algo);
  template <typename T>
  coll::Algo reduce_over(const std::vector<int>& list, std::span<const T> in,
                         std::span<T> out, ReduceOp op, int root_pos, int tag,
                         coll::Algo algo);
  template <typename T>
  coll::Algo allreduce_over(const std::vector<int>& list, std::span<const T> in,
                            std::span<T> out, ReduceOp op, int tag,
                            coll::Algo algo);
  template <typename T>
  coll::Algo allgather_over(const std::vector<int>& list, std::span<const T> mine,
                            std::span<T> all, int tag, coll::Algo algo);
  // Alltoall bodies (full communicator; `block` elements per peer).
  template <typename T>
  void alltoall_pairwise(std::span<const T> send_data, std::span<T> recv_data,
                         std::size_t block, int tag);
  template <typename T>
  void alltoall_bruck(std::span<const T> send_data, std::span<T> recv_data,
                      std::size_t block, int tag);
  template <typename T>
  void alltoall_spread(std::span<const T> send_data, std::span<T> recv_data,
                       std::size_t block, int tag);
  /// counts/displs indexed by *position* in the list.
  template <typename T>
  void allgatherv_over(const std::vector<int>& list, std::span<const T> mine,
                       std::span<T> all, std::span<const int> counts,
                       std::span<const int> displs, int tag);
  /// van de Geijn large-message broadcast: scatter + ring allgather.
  /// Uses tags [tag, tag+2).
  template <typename T>
  void bcast_vandegeijn_over(const std::vector<int>& list, std::span<T> data,
                             int root_pos, int tag);
  /// Recursive-halving reduce-scatter over a power-of-two list; `in` holds
  /// list.size() equal blocks, `block_out` receives this rank's block.
  template <typename T>
  void reduce_scatter_halving_over(const std::vector<int>& list,
                                   std::span<const T> in, std::span<T> block_out,
                                   ReduceOp op, int tag);
  /// Rabenseifner large-message allreduce over a power-of-two list.
  /// Uses tags [tag, tag+2).
  template <typename T>
  void allreduce_rabenseifner_over(const std::vector<int>& list,
                                   std::span<const T> in, std::span<T> out,
                                   ReduceOp op, int tag);

  std::vector<int> all_ranks() const;
  int position_in(const std::vector<int>& list) const;
  bool two_level_enabled() const;

  /// The job's collective-algorithm engine.
  const coll::Engine& coll_engine() const;
  /// Engine choice for an internal (sub-list) phase: no further hierarchy.
  coll::Algo pick(coll::Coll coll, Bytes bytes, int list_size) const;
  /// Records the algorithm a user-level collective actually ran (profile
  /// counter + CollAlgo trace event when tracing + Coll span when the job
  /// records spans). `begin` is the enclosing call's start time so the span
  /// nests exactly inside the ProfiledCall's Mpi span.
  void note_algo(coll::Coll coll, coll::Algo algo, Bytes bytes, Micros begin);

  Adi3Engine* engine_;
  std::shared_ptr<const CommGroup> group_;
  std::uint64_t id_;
  int my_rank_;
  std::uint64_t next_child_ordinal_ = 0;
  std::uint64_t next_coll_seq_ = 0;
  std::uint64_t next_window_ordinal_ = 0;
  std::optional<LocalityGroups> locality_;
};

/// RAII profiling scope for one user-level MPI call. Doubles as the single
/// instrumentation point for obs: when the job records spans, the destructor
/// emits one Mpi-category span covering the call's virtual-time interval.
class ProfiledCall {
 public:
  ProfiledCall(Adi3Engine& engine, prof::CallKind kind)
      : engine_(&engine), kind_(kind), start_(engine.clock().now()) {}
  ~ProfiledCall() {
    const Micros end = engine_->clock().now();
    engine_->profile().add_call(kind_, end - start_);
    if (engine_->job().spans)
      engine_->job().spans->record({std::string(prof::to_string(kind_)),
                                    obs::SpanCat::Mpi, engine_->world_rank(), -1,
                                    -1, 0, start_, end, {}});
  }
  ProfiledCall(const ProfiledCall&) = delete;
  ProfiledCall& operator=(const ProfiledCall&) = delete;

  /// Call start in virtual time; collective dispatch passes it to note_algo
  /// so the Coll span nests exactly inside this call's Mpi span.
  Micros start() const { return start_; }

 private:
  Adi3Engine* engine_;
  prof::CallKind kind_;
  Micros start_;
};

// ===========================================================================
// implementation
// ===========================================================================

namespace detail {

template <typename T>
std::span<const std::byte> as_bytes_checked(std::span<const T> data) {
  static_assert(std::is_trivially_copyable_v<T>,
                "cbmpi transfers require trivially copyable element types");
  return std::as_bytes(data);
}

template <typename T>
std::span<std::byte> as_writable_bytes_checked(std::span<T> data) {
  static_assert(std::is_trivially_copyable_v<T>,
                "cbmpi transfers require trivially copyable element types");
  return std::as_writable_bytes(data);
}

inline bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace detail

// ---- raw transfers ----------------------------------------------------------

template <typename T>
Request Communicator::raw_isend(std::span<const T> data, int dst, int tag) {
  return engine_->start_send(detail::as_bytes_checked(data), to_world(dst), tag, id_);
}

template <typename T>
Request Communicator::raw_irecv(std::span<T> buffer, int src, int tag,
                                bool immediate) {
  const int src_world = src == kAnySource ? kAnySource : to_world(src);
  return engine_->post_recv(detail::as_writable_bytes_checked(buffer), src_world,
                            tag, id_, immediate);
}

template <typename T>
void Communicator::raw_send(std::span<const T> data, int dst, int tag) {
  engine_->wait(raw_isend(data, dst, tag));
}

template <typename T>
void Communicator::raw_recv(std::span<T> buffer, int src, int tag) {
  engine_->wait(raw_irecv(buffer, src, tag));
}

template <typename T>
void Communicator::raw_sendrecv(std::span<const T> send_data, int dst,
                                std::span<T> recv_buffer, int src, int tag) {
  const Request recv_request = raw_irecv(recv_buffer, src, tag);
  const Request send_request = raw_isend(send_data, dst, tag);
  engine_->wait(recv_request);
  engine_->wait(send_request);
}

// ---- point-to-point -----------------------------------------------------------

template <typename T>
void Communicator::send(std::span<const T> data, int dst, int tag) {
  CBMPI_REQUIRE(tag >= 0 && tag < kCollectiveTagBase, "user tag out of range: ", tag);
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Send);
  raw_send(data, dst, tag);
}

template <typename T>
Status Communicator::recv(std::span<T> buffer, int src, int tag) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Recv);
  const Request request = raw_irecv(buffer, src, tag);
  Status status = engine_->wait(request);
  status.source = from_world(status.source);
  return status;
}

template <typename T>
Request Communicator::isend(std::span<const T> data, int dst, int tag) {
  CBMPI_REQUIRE(tag >= 0 && tag < kCollectiveTagBase, "user tag out of range: ", tag);
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Isend);
  return raw_isend(data, dst, tag);
}

template <typename T>
Request Communicator::irecv(std::span<T> buffer, int src, int tag) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Irecv);
  return raw_irecv(buffer, src, tag);
}

template <typename T>
void Communicator::sendrecv(std::span<const T> send_data, int dst,
                            std::span<T> recv_buffer, int src, int tag) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Send);
  raw_sendrecv(send_data, dst, recv_buffer, src, tag);
}

template <typename T>
void Communicator::send_value(const T& value, int dst, int tag) {
  send(std::span<const T>(&value, 1), dst, tag);
}

template <typename T>
T Communicator::recv_value(int src, int tag) {
  T value{};
  recv(std::span<T>(&value, 1), src, tag);
  return value;
}

// The tunable collective algorithms (the `*_over` primitives and the
// engine-dispatched user-level collectives) live in mpi/coll/algorithms.hpp
// and mpi/coll/dispatch.hpp, included at the end of this header.

template <typename T>
T Communicator::allreduce_value(T value, ReduceOp op) {
  T out{};
  allreduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op);
  return out;
}

template <typename T>
void Communicator::gather(std::span<const T> mine, std::span<T> all, int root) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Gather);
  const int tag = begin_collective();
  const std::size_t block = mine.size();
  if (rank() == root) {
    CBMPI_REQUIRE(all.size() >= block * static_cast<std::size_t>(size()),
                  "gather output buffer too small");
    std::copy(mine.begin(), mine.end(),
              all.begin() +
                  static_cast<std::ptrdiff_t>(block * static_cast<std::size_t>(root)));
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      raw_recv(std::span<T>(all.data() + block * static_cast<std::size_t>(r), block),
               r, tag);
    }
  } else {
    raw_send(mine, root, tag);
  }
}

template <typename T>
void Communicator::scatter(std::span<const T> all, std::span<T> mine, int root) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Scatter);
  const int tag = begin_collective();
  const std::size_t block = mine.size();
  if (rank() == root) {
    CBMPI_REQUIRE(all.size() >= block * static_cast<std::size_t>(size()),
                  "scatter input buffer too small");
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      raw_send(
          std::span<const T>(all.data() + block * static_cast<std::size_t>(r), block),
          r, tag);
    }
    std::copy(all.data() + block * static_cast<std::size_t>(root),
              all.data() + block * static_cast<std::size_t>(root) + block, mine.data());
  } else {
    raw_recv(mine, root, tag);
  }
}

template <typename T>
void Communicator::alltoallv(std::span<const T> send_data,
                             std::span<const int> send_counts,
                             std::span<const int> send_displs, std::span<T> recv_data,
                             std::span<const int> recv_counts,
                             std::span<const int> recv_displs) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Alltoallv);
  const int tag = begin_collective();
  const int n = size();
  CBMPI_REQUIRE(send_counts.size() == static_cast<std::size_t>(n) &&
                    recv_counts.size() == static_cast<std::size_t>(n) &&
                    send_displs.size() == static_cast<std::size_t>(n) &&
                    recv_displs.size() == static_cast<std::size_t>(n),
                "alltoallv count/displ arrays must have comm-size entries");
  auto send_block = [&](int r) {
    const auto i = static_cast<std::size_t>(r);
    return std::span<const T>(
        send_data.data() + static_cast<std::size_t>(send_displs[i]),
        static_cast<std::size_t>(send_counts[i]));
  };
  auto recv_block = [&](int r) {
    const auto i = static_cast<std::size_t>(r);
    return std::span<T>(recv_data.data() + static_cast<std::size_t>(recv_displs[i]),
                        static_cast<std::size_t>(recv_counts[i]));
  };
  {
    auto src = send_block(rank());
    auto dst = recv_block(rank());
    CBMPI_REQUIRE(dst.size() >= src.size(), "alltoallv self block mismatch");
    std::copy(src.begin(), src.end(), dst.begin());
  }
  const bool pow2 = detail::is_power_of_two(static_cast<std::size_t>(n));
  for (int step = 1; step < n; ++step) {
    const int send_to = pow2 ? (rank() ^ step) : (rank() + step) % n;
    const int recv_from = pow2 ? (rank() ^ step) : (rank() - step + n) % n;
    raw_sendrecv(send_block(send_to), send_to, recv_block(recv_from), recv_from, tag);
  }
}

// ---- v-variants, reduce_scatter, prefix scans -----------------------------------

template <typename T>
void Communicator::gatherv(std::span<const T> mine, std::span<T> all,
                           std::span<const int> counts, std::span<const int> displs,
                           int root) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Gatherv);
  const int tag = begin_collective();
  CBMPI_REQUIRE(counts.size() == static_cast<std::size_t>(size()) &&
                    displs.size() == static_cast<std::size_t>(size()),
                "gatherv counts/displs must have comm-size entries");
  if (rank() == root) {
    for (int r = 0; r < size(); ++r) {
      auto slot = std::span<T>(
          all.data() + static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]),
          static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]));
      if (r == root)
        std::copy(mine.begin(), mine.end(), slot.begin());
      else
        raw_recv(slot, r, tag);
    }
  } else {
    raw_send(mine, root, tag);
  }
}

template <typename T>
void Communicator::scatterv(std::span<const T> all, std::span<const int> counts,
                            std::span<const int> displs, std::span<T> mine, int root) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Scatterv);
  const int tag = begin_collective();
  CBMPI_REQUIRE(counts.size() == static_cast<std::size_t>(size()) &&
                    displs.size() == static_cast<std::size_t>(size()),
                "scatterv counts/displs must have comm-size entries");
  if (rank() == root) {
    for (int r = 0; r < size(); ++r) {
      auto slot = std::span<const T>(
          all.data() + static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]),
          static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]));
      if (r == root)
        std::copy(slot.begin(), slot.end(), mine.begin());
      else
        raw_send(slot, r, tag);
    }
  } else {
    raw_recv(mine.subspan(0, static_cast<std::size_t>(
                                 counts[static_cast<std::size_t>(rank())])),
             root, tag);
  }
}

template <typename T>
void Communicator::allgatherv(std::span<const T> mine, std::span<T> all,
                              std::span<const int> counts,
                              std::span<const int> displs) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::AllgatherV);
  const int tag = begin_collective();
  // Flat ring; counts/displs are rank-indexed which equals position-indexed
  // over the all-ranks list.
  allgatherv_over(all_ranks(), mine, all, counts, displs, tag);
}

template <typename T>
void Communicator::reduce_scatter_block(std::span<const T> in, std::span<T> out,
                                        ReduceOp op) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::ReduceScatter);
  const int tag = begin_collective();
  const int n = size();
  const std::size_t block = in.size() / static_cast<std::size_t>(n);
  CBMPI_REQUIRE(in.size() == block * static_cast<std::size_t>(n) &&
                    out.size() >= block,
                "reduce_scatter_block buffer size mismatch");
  if (detail::is_power_of_two(static_cast<std::size_t>(n)) && n > 1) {
    reduce_scatter_halving_over(all_ranks(), in, out, op, tag);
    return;
  }
  // Fallback: reduce to rank 0, then scatter (uses the tag block's tail).
  std::vector<T> full(rank() == 0 ? in.size() : 0);
  reduce_over(all_ranks(), in, std::span<T>(full), op, 0, tag, coll::Algo::Binomial);
  const int stag = tag + 1;
  if (rank() == 0) {
    for (int r = 1; r < n; ++r)
      raw_send(std::span<const T>(full.data() + block * static_cast<std::size_t>(r),
                                  block),
               r, stag);
    std::copy(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(block),
              out.begin());
  } else {
    raw_recv(out.subspan(0, block), 0, stag);
  }
}

template <typename T>
void Communicator::scan(std::span<const T> in, std::span<T> out, ReduceOp op) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Scan);
  const int tag = begin_collective();
  const int n = size();
  CBMPI_REQUIRE(out.size() >= in.size(), "scan output buffer too small");
  std::copy(in.begin(), in.end(), out.begin());
  std::vector<T> partial(in.begin(), in.end());
  std::vector<T> incoming(in.size());
  for (int mask = 1; mask < n; mask <<= 1) {
    const int dst = rank() + mask;
    const int src = rank() - mask;
    const std::vector<T> snapshot = partial;  // value sent this round
    Request send_req;
    if (dst < n) send_req = raw_isend(std::span<const T>(snapshot), dst, tag);
    if (src >= 0) {
      raw_recv(std::span<T>(incoming), src, tag);
      apply_reduce<T>(op, incoming, std::span<T>(partial));
      apply_reduce<T>(op, incoming, out.subspan(0, in.size()));
    }
    if (send_req) engine_->wait(send_req);
  }
}

template <typename T>
void Communicator::exscan(std::span<const T> in, std::span<T> out, ReduceOp op) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Exscan);
  const int tag = begin_collective();
  const int n = size();
  CBMPI_REQUIRE(out.size() >= in.size(), "exscan output buffer too small");
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(in.size()), T{});
  std::vector<T> partial(in.begin(), in.end());
  std::vector<T> incoming(in.size());
  bool have_result = false;
  for (int mask = 1; mask < n; mask <<= 1) {
    const int dst = rank() + mask;
    const int src = rank() - mask;
    const std::vector<T> snapshot = partial;
    Request send_req;
    if (dst < n) send_req = raw_isend(std::span<const T>(snapshot), dst, tag);
    if (src >= 0) {
      raw_recv(std::span<T>(incoming), src, tag);
      apply_reduce<T>(op, incoming, std::span<T>(partial));
      if (have_result) {
        apply_reduce<T>(op, incoming, out.subspan(0, in.size()));
      } else {
        std::copy(incoming.begin(), incoming.end(), out.begin());
        have_result = true;
      }
    }
    if (send_req) engine_->wait(send_req);
  }
}

template <typename T>
T Communicator::scan_value(T value, ReduceOp op) {
  T out{};
  scan(std::span<const T>(&value, 1), std::span<T>(&out, 1), op);
  return out;
}

template <typename T>
T Communicator::exscan_value(T value, ReduceOp op) {
  T out{};
  exscan(std::span<const T>(&value, 1), std::span<T>(&out, 1), op);
  return out;
}

}  // namespace cbmpi::mpi

// Template definitions of the tunable collective algorithms and their
// engine-driven dispatch. Included here (not standalone) so every user of
// Communicator sees the definitions; both headers re-include this one, which
// `#pragma once` resolves to a no-op.
#include "mpi/coll/algorithms.hpp"  // IWYU pragma: keep
#include "mpi/coll/dispatch.hpp"    // IWYU pragma: keep
