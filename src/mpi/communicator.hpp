// Communicator: the user-facing MPI-like API.
//
// Typed point-to-point and collective operations over contiguous spans of
// trivially-copyable elements. Every typed call is a one-line forwarder to
// one byte-level implementation, compiled once in mpi/coll/algorithms.cpp
// (collectives) and mpi/communicator.cpp (point-to-point): it passes the
// payload as bytes, the element size and, for reductions only, the reduce
// operator erased to a ReduceFn (reduce_bytes<T> around apply_reduce<T>).
// Decisions that MPI defines in elements (van de Geijn's one-element-per-rank
// precondition, block partitions, Rabenseifner padding) are still made in
// elements from the element size.
//
// Collective algorithms are written once over an arbitrary *list* of
// communicator ranks, which lets the hierarchical (two-level, leader-based)
// variants reuse the flat algorithms: the local phase runs over the detected
// co-resident group, the global phase over the group leaders. Which ranks
// count as "co-resident" comes from the channel selector's policy —
// hostname-based (default) or container-aware (the paper's design) — so the
// benefit of locality awareness flows through both point-to-point channel
// selection and collective topology.
//
// The six tunable collectives (barrier, bcast, reduce, allreduce, allgather,
// alltoall) take their algorithm from one lookup in the job's TuningTable,
// keyed on (collective, message size, rank count, containers-per-host) —
// see src/mpi/coll/. The available algorithms:
//   barrier     dissemination | flat-tree       (2-level: gather + release)
//   bcast       binomial | flat-tree | van de Geijn (2-level: leaders, local)
//   reduce      binomial | flat-tree (commutative ops)
//               (2-level: local reduce, leader reduce, hand-off to root)
//   allreduce   recursive doubling | Rabenseifner | reduce+bcast
//               (2-level: local reduce, leader allreduce, local bcast)
//   allgather   ring | gather+bcast             (2-level when groups are
//                                                uniform and contiguous)
//   alltoall    pairwise | Bruck | spread (no 2-level variant — consistent
//               with the paper, where alltoall shows the smallest gain)
// and the fixed ones: gather(v) linear to the root, scatter(v) linear from
// the root, allgatherv ring, alltoallv pairwise exchange, reduce_scatter_block
// recursive halving (reduce + scatter off powers of two), scan/exscan
// recursive doubling. Each collective checks its buffer sizes once, at entry,
// before any algorithm is chosen. Algorithms with structural preconditions
// (power-of-two list, payload at least one element per rank, zero-identity
// reduce op) are downgraded deterministically; the algorithm that actually
// ran is recorded in the rank profile and (when tracing) as a CollAlgo trace
// event.
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

#include <cstddef>
#include <memory>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "mpi/adi3.hpp"
#include "mpi/coll/types.hpp"
#include "mpi/types.hpp"

namespace cbmpi::mpi {

/// Tags at or above this value are reserved for collective internals. They
/// travel in a context of their own, as in MPI, so kAnyTag never sees them.
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

  using CBytes = std::span<const std::byte>;
  using WBytes = std::span<std::byte>;

  /// A reduction erased to bytes: the operator and reduce_bytes<T>.
  struct Reducer {
    ReduceOp op = ReduceOp::Sum;
    ReduceFn fn = nullptr;
    void operator()(CBytes in, WBytes inout) const { fn(op, in, inout); }
  };
  template <typename T>
  static Reducer reducer(ReduceOp op) {
    return {op, &reduce_bytes<T>};
  }

  /// Where position p's block lies in a buffer: `block` bytes at p * block,
  /// or (v-forms) counts[p] elements of `elem` bytes at element displs[p].
  struct Blocks {
    std::size_t block = 0;
    std::span<const int> counts{};
    std::span<const int> displs{};
    std::size_t elem = 1;
    bool varying = false;

    static Blocks v(std::span<const int> counts, std::span<const int> displs,
                    std::size_t elem) {
      return {0, counts, displs, elem, true};
    }
    std::size_t offset(int p) const;
    std::size_t bytes(int p) const;
    /// Whether a v-form has one count and one displacement per rank of `n`.
    bool fits(int n) const;
    /// Bytes a buffer needs to hold all `n` blocks.
    std::size_t extent(int n) const;
    WBytes of(WBytes buf, int p) const { return buf.subspan(offset(p), bytes(p)); }
    CBytes of(CBytes buf, int p) const { return buf.subspan(offset(p), bytes(p)); }
  };

  /// One call of a tunable collective other than alltoall: `in` is the
  /// payload (the data itself for bcast, empty for barrier), `out` the result.
  struct TunableCall {
    coll::Coll coll;
    CBytes in{};
    WBytes out{};
    std::size_t elem = 1;
    int root = 0;
    Reducer red{};
  };

  /// Reserves a tag block; returns its base. Same sequence on every rank.
  int begin_collective();

  /// One collective call on this communicator, open until it returns: its
  /// tag block and the engine's CollectiveScope, which names the call
  /// `kind` with its sequence number in a DeadlockError and withdraws its
  /// rendezvous sends when a receive fails.
  class Collective {
   public:
    Collective(Communicator& comm, const char* kind);
    const int tag;

   private:
    Adi3Engine::CollectiveScope scope_;
  };

  // Unprofiled raw transfers used by point-to-point calls and collectives.
  Request raw_isend(CBytes data, int dst, int tag);
  Request raw_irecv(WBytes buffer, int src, int tag);
  void raw_send(CBytes data, int dst, int tag);
  void raw_recv(WBytes buffer, int src, int tag);
  void raw_sendrecv(CBytes send_data, int dst, WBytes recv_buffer, int src, int tag);

  // Byte-level collectives (mpi/coll/algorithms.cpp). Each entry point opens
  // the profiled call and the Collective and checks buffer sizes first.
  /// barrier, bcast, reduce, allreduce, allgather: choose, run, note_algo.
  void run_tunable(const TunableCall& call);
  /// alltoall (table-chosen algorithm) and alltoallv (pairwise).
  void alltoall_bytes(prof::CallKind kind, CBytes send_data, const Blocks& send_blocks,
                      WBytes recv_data, const Blocks& recv_blocks);
  void gather_bytes(prof::CallKind kind, CBytes mine, WBytes all, const Blocks& blocks,
                    int root);
  void scatter_bytes(prof::CallKind kind, CBytes all, const Blocks& blocks, WBytes mine,
                     int root);
  void allgatherv_bytes(CBytes mine, WBytes all, const Blocks& blocks);
  void reduce_scatter_block_bytes(CBytes in, WBytes out, std::size_t elem, Reducer red);
  /// scan, or exscan when `kind` is Exscan.
  void scan_bytes(prof::CallKind kind, CBytes in, WBytes out, Reducer red);

  // Algorithms over an arbitrary sorted `list` of comm ranks, which must
  // contain rank() exactly once and be identical on all listed ranks. Those
  // taking a table-chosen coll::Algo downgrade it deterministically when
  // its structural preconditions fail and return what actually ran.
  coll::Algo run_flat(const std::vector<int>& list, const TunableCall& call, int tag,
                      coll::Algo algo);
  coll::Algo run_two_level(const TunableCall& call, const LocalityGroups& groups,
                           int tag);
  coll::Algo barrier_over(const std::vector<int>& list, int tag, coll::Algo algo);
  /// One transfer between list[root_pos] and every other member: `data` to
  /// the root from each (`to_root`), or from the root to each.
  void linear_over(const std::vector<int>& list, int root_pos, bool to_root,
                   WBytes data, int tag);
  /// `elem` matters only to van de Geijn's precondition and partition.
  coll::Algo bcast_over(const std::vector<int>& list, WBytes data, std::size_t elem,
                        int root_pos, int tag, coll::Algo algo);
  coll::Algo reduce_over(const std::vector<int>& list, CBytes in, WBytes out,
                         Reducer red, int root_pos, int tag, coll::Algo algo);
  coll::Algo allreduce_over(const std::vector<int>& list, CBytes in, WBytes out,
                            std::size_t elem, Reducer red, int tag, coll::Algo algo);
  coll::Algo allgather_over(const std::vector<int>& list, CBytes mine, WBytes all,
                            int tag, coll::Algo algo);
  /// Ring allgather of `all`'s blocks, each rank starting from its own, as
  /// a step exchange.
  void ring_over(const std::vector<int>& list, WBytes all, const Blocks& blocks,
                 int tag);
  /// Recursive-halving reduce-scatter over a power-of-two list; `in` holds
  /// list.size() equal blocks, `block_out` receives this rank's block.
  void reduce_scatter_halving_over(const std::vector<int>& list, CBytes in,
                                   WBytes block_out, std::size_t elem, Reducer red,
                                   int tag);
  /// Linear scatter from `root` over the whole communicator.
  void scatter_over(CBytes all, const Blocks& blocks, WBytes mine, int root, int tag);
  /// Pairwise exchange: n-1 steps of a step exchange (XOR partners on
  /// power-of-two comms, shifted ring otherwise).
  void pairwise_over(CBytes send_data, const Blocks& send_blocks, WBytes recv_data,
                     const Blocks& recv_blocks, int tag);
  /// This communicator's exchange, looked up on first use.
  Exchange& exchange();
  void alltoall_bruck(CBytes send_data, WBytes recv_data, std::size_t block, int tag);
  void alltoall_spread(CBytes send_data, WBytes recv_data, std::size_t block, int tag);

  std::vector<int> all_ranks() const;
  int position_in(const std::vector<int>& list) const;
  /// The context of a transfer on `tag`: id_, or id_ ^ kCollectiveContextBit.
  std::uint64_t context(int tag) const {
    return tag >= kCollectiveTagBase ? id_ ^ kCollectiveContextBit : id_;
  }

  /// The job's tuning-table choice for `coll` over `list_size` ranks; a
  /// TwoLevel row counts only when `two_level` (internal sub-list phases
  /// have no further hierarchy).
  coll::Algo pick(coll::Coll coll, Bytes bytes, int list_size,
                  bool two_level = false) const;
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
  /// This communicator's exchange (see exchange()).
  Exchange* exchange_ = nullptr;
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
    if (engine_->job().record_spans)
      engine_->records().spans.push_back({std::string(prof::to_string(kind_)),
                                          obs::SpanCat::Mpi, engine_->world_rank(),
                                          -1, -1, 0, start_, end, {}});
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
// implementation: typed forwarders to the byte-level calls
// ===========================================================================

namespace detail {

template <typename T>
std::span<const std::byte> bytes(std::span<T> data) {
  static_assert(std::is_trivially_copyable_v<T>,
                "cbmpi transfers require trivially copyable element types");
  return std::as_bytes(data);
}

template <typename T>
std::span<std::byte> writable_bytes(std::span<T> data) {
  static_assert(std::is_trivially_copyable_v<T>,
                "cbmpi transfers require trivially copyable element types");
  return std::as_writable_bytes(data);
}

}  // namespace detail

// ---- point-to-point -----------------------------------------------------------

template <typename T>
void Communicator::send(std::span<const T> data, int dst, int tag) {
  CBMPI_REQUIRE(tag >= 0 && tag < kCollectiveTagBase, "user tag out of range: ", tag);
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Send);
  raw_send(detail::bytes(data), dst, tag);
}

template <typename T>
Status Communicator::recv(std::span<T> buffer, int src, int tag) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Recv);
  Status status = engine_->wait(raw_irecv(detail::writable_bytes(buffer), src, tag));
  status.source = from_world(status.source);
  return status;
}

template <typename T>
Request Communicator::isend(std::span<const T> data, int dst, int tag) {
  CBMPI_REQUIRE(tag >= 0 && tag < kCollectiveTagBase, "user tag out of range: ", tag);
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Isend);
  return raw_isend(detail::bytes(data), dst, tag);
}

template <typename T>
Request Communicator::irecv(std::span<T> buffer, int src, int tag) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Irecv);
  return raw_irecv(detail::writable_bytes(buffer), src, tag);
}

template <typename T>
void Communicator::sendrecv(std::span<const T> send_data, int dst,
                            std::span<T> recv_buffer, int src, int tag) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Send);
  raw_sendrecv(detail::bytes(send_data), dst, detail::writable_bytes(recv_buffer), src,
               tag);
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

// ---- collectives ----------------------------------------------------------------

template <typename T>
void Communicator::bcast(std::span<T> data, int root) {
  run_tunable({coll::Coll::Bcast, detail::bytes(data), detail::writable_bytes(data),
               sizeof(T), root});
}

template <typename T>
void Communicator::reduce(std::span<const T> in, std::span<T> out, ReduceOp op,
                          int root) {
  run_tunable({coll::Coll::Reduce, detail::bytes(in), detail::writable_bytes(out),
               sizeof(T), root, reducer<T>(op)});
}

template <typename T>
void Communicator::allreduce(std::span<const T> in, std::span<T> out, ReduceOp op) {
  run_tunable({coll::Coll::Allreduce, detail::bytes(in), detail::writable_bytes(out),
               sizeof(T), 0, reducer<T>(op)});
}

template <typename T>
T Communicator::allreduce_value(T value, ReduceOp op) {
  T out{};
  allreduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op);
  return out;
}

template <typename T>
void Communicator::gather(std::span<const T> mine, std::span<T> all, int root) {
  gather_bytes(prof::CallKind::Gather, detail::bytes(mine), detail::writable_bytes(all),
               Blocks{mine.size_bytes()}, root);
}

template <typename T>
void Communicator::allgather(std::span<const T> mine, std::span<T> all) {
  run_tunable({coll::Coll::Allgather, detail::bytes(mine), detail::writable_bytes(all),
               sizeof(T)});
}

template <typename T>
void Communicator::scatter(std::span<const T> all, std::span<T> mine, int root) {
  scatter_bytes(prof::CallKind::Scatter, detail::bytes(all), Blocks{mine.size_bytes()},
                detail::writable_bytes(mine), root);
}

template <typename T>
void Communicator::alltoall(std::span<const T> send_data, std::span<T> recv_data) {
  const Blocks blocks{send_data.size() / static_cast<std::size_t>(size()) * sizeof(T)};
  alltoall_bytes(prof::CallKind::Alltoall, detail::bytes(send_data), blocks,
                 detail::writable_bytes(recv_data), blocks);
}

template <typename T>
void Communicator::alltoallv(std::span<const T> send_data,
                             std::span<const int> send_counts,
                             std::span<const int> send_displs, std::span<T> recv_data,
                             std::span<const int> recv_counts,
                             std::span<const int> recv_displs) {
  alltoall_bytes(prof::CallKind::Alltoallv, detail::bytes(send_data),
                 Blocks::v(send_counts, send_displs, sizeof(T)),
                 detail::writable_bytes(recv_data),
                 Blocks::v(recv_counts, recv_displs, sizeof(T)));
}

template <typename T>
void Communicator::gatherv(std::span<const T> mine, std::span<T> all,
                           std::span<const int> counts, std::span<const int> displs,
                           int root) {
  gather_bytes(prof::CallKind::Gatherv, detail::bytes(mine), detail::writable_bytes(all),
               Blocks::v(counts, displs, sizeof(T)), root);
}

template <typename T>
void Communicator::scatterv(std::span<const T> all, std::span<const int> counts,
                            std::span<const int> displs, std::span<T> mine, int root) {
  scatter_bytes(prof::CallKind::Scatterv, detail::bytes(all),
                Blocks::v(counts, displs, sizeof(T)), detail::writable_bytes(mine), root);
}

template <typename T>
void Communicator::allgatherv(std::span<const T> mine, std::span<T> all,
                              std::span<const int> counts,
                              std::span<const int> displs) {
  allgatherv_bytes(detail::bytes(mine), detail::writable_bytes(all),
                   Blocks::v(counts, displs, sizeof(T)));
}

template <typename T>
void Communicator::reduce_scatter_block(std::span<const T> in, std::span<T> out,
                                        ReduceOp op) {
  reduce_scatter_block_bytes(detail::bytes(in), detail::writable_bytes(out), sizeof(T),
                             reducer<T>(op));
}

template <typename T>
void Communicator::scan(std::span<const T> in, std::span<T> out, ReduceOp op) {
  scan_bytes(prof::CallKind::Scan, detail::bytes(in), detail::writable_bytes(out),
             reducer<T>(op));
}

template <typename T>
void Communicator::exscan(std::span<const T> in, std::span<T> out, ReduceOp op) {
  scan_bytes(prof::CallKind::Exscan, detail::bytes(in), detail::writable_bytes(out),
             reducer<T>(op));
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
