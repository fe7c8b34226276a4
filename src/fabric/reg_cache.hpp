// Pin-down (memory-registration) cache for the HCA rendezvous path.
//
// InfiniBand RDMA requires both endpoints' buffers to be registered (pinned)
// with the HCA before the transfer; registration is a syscall-heavy,
// size-proportional cost that dominates cold large-message latency ("Design
// and Implementation of MPICH2 over InfiniBand with RDMA Support"). Every
// production stack therefore keeps registrations alive in an LRU cache
// bounded by pinned-memory capacity, so repeated transfers from the same
// buffer skip the cost entirely (MVAPICH2's lazy-unregister scheme).
//
// Determinism: the cache is sharded per rank. Each rank's shard is touched
// only by that rank's own fiber, in the rank's deterministic program
// order — a job-shared LRU would be ordered by wall-clock fiber
// interleaving and break bit-identical reruns. Buffer ids are assigned by
// the ADI3 engine in per-rank first-use order for the same reason.
//
// This class is pure bookkeeping (what is pinned, what got evicted); the
// virtual-time costs of reg/dereg live in HcaChannel::reg_costs.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace cbmpi::fabric {

/// Job-level registration-cache outcome (run-report v4 "reg_cache" section).
struct RegCacheStats {
  bool enabled = false;         ///< TuningParams::reg_model was on
  Bytes capacity_bytes = 0;     ///< summed per-rank pinned capacity
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< entries deregistered to make room
  Bytes pinned_bytes = 0;       ///< pinned at job end, summed over ranks
  Bytes peak_pinned_bytes = 0;  ///< sum of per-rank pinned peaks
  Bytes registered_bytes = 0;   ///< total bytes pinned over the job
};

/// One pinned region, as exported by snapshot_entries() / re-pinned by
/// warm(): the buffer id the ADI3 engine assigned plus its pinned size. A
/// stopped job's entries (mpi::StopImage) warm the job that resumes it.
struct RegCacheEntry {
  std::uint64_t id = 0;
  Bytes bytes = 0;
};

class RegistrationCache {
 public:
  /// Outcome of one lookup: either the buffer was already pinned (hit) or it
  /// had to be registered, possibly evicting LRU victims first.
  struct Lookup {
    bool hit = false;
    std::uint64_t evictions = 0;  ///< victims deregistered to make room
    Bytes evicted_bytes = 0;
    Bytes registered = 0;  ///< bytes newly pinned (0 on a hit)
    /// False when the buffer exceeds the shard capacity outright: it is
    /// registered for the transfer and unpinned right after, never cached.
    bool cached = true;
  };

  /// One shard per rank; `per_rank_capacity[r]` is rank r's pinned budget
  /// (VF-share-scaled by the runtime on over-committed hosts).
  explicit RegistrationCache(std::vector<Bytes> per_rank_capacity);

  /// Looks `buffer_id` up in `rank`'s shard and registers it on a miss,
  /// evicting least-recently-used entries until it fits. A hit on an entry
  /// smaller than `bytes` (the buffer grew) re-registers: old entry evicted,
  /// new one pinned. Only `rank`'s own fiber may call this for `rank`.
  Lookup lookup(int rank, std::uint64_t buffer_id, Bytes bytes);

  Bytes pinned(int rank) const;
  Bytes capacity(int rank) const;

  /// Aggregated over ranks. Call only after every rank finished.
  RegCacheStats stats() const;

  /// Every shard's live entries, MRU first. Call only after every rank
  /// finished (a stopped job's export).
  std::vector<std::vector<RegCacheEntry>> snapshot_entries() const;

  /// Pre-pins `entries` (MRU first) into `rank`'s shard before the job body
  /// runs: recency order is preserved and entries that no longer fit the
  /// (possibly VF-share-rescaled) capacity are dropped from the LRU end.
  /// Counts nothing — warming is carried state, not traffic.
  void warm(int rank, const std::vector<RegCacheEntry>& entries);

 private:
  struct Entry {
    std::uint64_t id = 0;
    Bytes bytes = 0;
  };
  struct Shard {
    Bytes capacity = 0;
    Bytes pinned = 0;
    Bytes peak = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    Bytes registered = 0;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
  };

  void evict_lru(Shard& shard, Lookup& out);

  std::vector<Shard> shards_;
};

}  // namespace cbmpi::fabric
