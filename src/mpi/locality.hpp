// Container Locality Detector (the paper's core contribution, Sec. IV-B).
//
// A container list lives in host shared memory (/dev/shm/locality). It has
// one byte per global rank — "the byte is the smallest granularity of memory
// access without the lock" — so all co-resident ranks can announce themselves
// concurrently without lock/unlock. During init every rank writes a nonzero
// marker at its own position; after the init barrier every rank scans the
// list it can see. The positions that were written are, by construction,
// exactly the ranks whose processes share this host *and* this IPC namespace
// — which are precisely the peers reachable over SHM/CMA.
//
// Failure modes preserved from the real system:
//   * containers with private IPC namespaces open *different* segments and
//     therefore never detect each other (the fix requires --ipc=host);
//   * ranks on different hosts never see each other's lists.
//
// The lock-based alternative the byte list avoids exists only as the
// BM_DetectorLockBased ablation in bench/micro_core.
#pragma once

#include <memory>
#include <string>

#include "osl/process.hpp"
#include "osl/shm.hpp"

namespace cbmpi::mpi {

class ContainerLocalityDetector {
 public:
  /// `job_tag` isolates concurrent jobs' lists from each other.
  ContainerLocalityDetector(std::string job_tag, int nranks);

  /// Marks `rank` present in the list of `proc`'s host+IPC namespace.
  /// Lock-free: one release-store of one byte.
  void announce(const osl::SimProcess& proc, int rank);

  /// Scans the list visible to `proc` and returns its list key: the lowest
  /// rank announced in it, or -1 if none is. Ranks scanning the same list
  /// get the same key (=> co-resident and SHM/CMA-reachable); ranks on other
  /// hosts or in other IPC namespaces scan other lists, whose announced ranks
  /// are disjoint, so their keys differ. The ascending list order is the
  /// local ordering the paper keeps: the key is the list's first rank.
  ///
  /// A rank whose /dev/shm segment open fails (fault injection, or a real
  /// deployment without a usable /dev/shm) cannot announce or scan; it gets
  /// no key and falls back to the only locality signal that needs no shared
  /// memory — hostname comparison, exactly what the default MVAPICH2 runtime
  /// uses (ChannelSelector::co_resident).
  int list_key(const osl::SimProcess& proc) const;

  /// Virtual-time cost of the announce+scan protocol for one rank: one byte
  /// store plus a scan of nranks bytes. Tiny by design — 1 M ranks cost ~1 MB
  /// of traversal (the paper's scalability argument).
  Micros detection_cost() const;

  /// Extra cost charged to a degraded rank: the failed open, one retry of
  /// the open, and nranks hostname comparisons.
  Micros fallback_cost() const;

  int nranks() const { return nranks_; }
  const std::string& segment_name() const { return segment_name_; }

 private:
  std::shared_ptr<osl::ShmSegment> list_for(const osl::SimProcess& proc) const;

  std::string segment_name_;
  int nranks_;
};

}  // namespace cbmpi::mpi
