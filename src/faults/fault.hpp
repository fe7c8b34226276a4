// Deterministic fault injection for the cbmpi runtime.
//
// Real container deployments fail in structured ways: /dev/shm opens fail,
// containers come up with private IPC namespaces (no --ipc=host), CMA gets
// EPERM across unshared PID namespaces, and HCA sends hit transient
// completion errors or link flaps. A FaultPlan describes *rates* for these
// faults; a FaultInjector turns the plan into per-site boolean decisions that
// are pure functions of (seed, site identity) — never of thread schedule —
// so the same seed always injects the same faults, the degradation decisions
// are identical run-to-run, and recovered job times are bit-for-bit
// reproducible. A default (all-zero) plan injects nothing and adds zero
// virtual-time cost anywhere.
//
// Faults are *injected* here but *handled* elsewhere: the locality detector
// falls back to hostname locality, the channel selector degrades CMA → SHM →
// HCA per pair, and the ADI3 engine retries HCA transfers with exponential
// backoff before escalating to a per-rank abort. Every decision lands in the
// job's FaultReport.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace cbmpi::faults {

/// What went wrong — one enumerator per injectable failure mode.
enum class FaultKind : std::uint8_t {
  ShmSegmentFail,   ///< a rank's /dev/shm segment open failed
  PrivateIpc,       ///< a container came up without --ipc=host
  CmaEperm,         ///< process_vm_readv refused across a rank pair
  HcaTransient,     ///< one HCA send/completion attempt failed
  HcaLinkFlap,      ///< HCA attempt fell into a link-down window
  RankCrash,        ///< one rank process died mid-job
  ContainerCrash,   ///< a container died, killing every rank inside it
  HostCrash,        ///< a host died, killing every rank placed on it
};

/// Number of FaultKind enumerators (for count arrays).
inline constexpr std::size_t kFaultKinds = 8;

/// Is this a crash-class fault (kills ranks, job must be requeued) rather
/// than a transient the runtime degrades around?
constexpr bool is_crash(FaultKind kind) {
  return kind == FaultKind::RankCrash || kind == FaultKind::ContainerCrash ||
         kind == FaultKind::HostCrash;
}

/// Human-readable kind name for reports and tables.
const char* to_string(FaultKind kind);

/// How the runtime coped — one enumerator per graceful-degradation path.
enum class DegradationKind : std::uint8_t {
  HostnameLocalityFallback,  ///< rank reverted to hostname-based locality
  IsolatedIpcLocality,       ///< rank only detects peers inside its container
  CmaFallbackToShm,          ///< pair: CMA knocked out, SHM rendezvous used
  ShmFallbackToHca,          ///< pair: SHM knocked out, HCA loopback used
};

/// Human-readable kind name for reports and tables.
const char* to_string(DegradationKind kind);

/// Fault rates for one job. All-zero (the default) means "no faults"; the
/// runtime then skips every injection code path entirely.
struct FaultPlan {
  /// Per-rank probability that its /dev/shm locality segment fails to open
  /// (the rank must degrade to hostname locality and lose SHM).
  double shm_segment_fail_prob = 0.0;

  /// Per-container probability that it is deployed with a private IPC
  /// namespace even though the spec asked for --ipc=host.
  double private_ipc_prob = 0.0;

  /// Per-pair probability that CMA is permission-denied (unshared PID
  /// namespace / restrictive ptrace scope) despite the spec sharing PIDs.
  double cma_eperm_prob = 0.0;

  /// Per-attempt probability that an HCA send/completion fails transiently.
  double hca_transient_prob = 0.0;

  /// Periodic HCA link flap: every `period` microseconds of virtual time the
  /// link drops for `duration` microseconds; attempts inside a down window
  /// fail. Zero period disables flaps.
  Micros hca_link_flap_period = 0.0;
  Micros hca_link_flap_duration = 0.0;

  /// Crash-class faults. Each rank / container / host draws, purely from
  /// (seed, site), whether it crashes during this job and a uniform crash
  /// time in [0, crash_horizon). A crash kills every rank on the failing
  /// unit at that virtual time; the job aborts and surfaces a CrashInfo so
  /// a scheduler can requeue it from its last completed checkpoint.
  double rank_crash_prob = 0.0;
  double container_crash_prob = 0.0;
  double host_crash_prob = 0.0;
  /// Crash times are uniform in [0, crash_horizon) virtual microseconds.
  Micros crash_horizon = 5000.0;
  /// When nonzero, host-crash *eligibility* hashes from this seed instead of
  /// the per-job seed, so one flaky physical host stays flaky across every
  /// job of a scheduled run (and the blacklist can catch it). The crash
  /// *time* still draws from the job seed, so retries see fresh times.
  std::uint64_t host_fault_seed = 0;

  /// True when any crash-class rate is nonzero.
  bool crashes_enabled() const {
    return rank_crash_prob > 0.0 || container_crash_prob > 0.0 ||
           host_crash_prob > 0.0;
  }

  /// True when any rate is nonzero — i.e. the runtime must consult the
  /// injector at all.
  bool enabled() const {
    return shm_segment_fail_prob > 0.0 || private_ipc_prob > 0.0 ||
           cma_eperm_prob > 0.0 || hca_transient_prob > 0.0 ||
           (hca_link_flap_period > 0.0 && hca_link_flap_duration > 0.0) ||
           crashes_enabled();
  }
};

/// Everything known about one crash at requeue time: what died, where, when,
/// and how much checkpointed progress survives. Carried by CrashedError.
struct CrashInfo {
  FaultKind kind = FaultKind::RankCrash;
  int rank = -1;               ///< first rank taken down by the crash
  int host = -1;               ///< physical host of that rank
  Micros at = 0.0;             ///< scheduled crash virtual time (job-local)
  /// Job-local virtual time of the last checkpoint committed *during this
  /// run* (0 when none committed; a restore snapshot from a previous attempt
  /// may still exist).
  Micros last_checkpoint = 0.0;
  int checkpoint_round = 0;    ///< completed rounds at that checkpoint
};

/// A crash-class fault killed the job. Derives from AbortedError (the crash
/// aborts every surviving rank) but carries the root-cause CrashInfo so the
/// runtime and scheduler can distinguish a recoverable crash from a
/// bystander's "job aborted" echo.
class CrashedError : public AbortedError {
 public:
  CrashedError(std::string what, CrashInfo info)
      : AbortedError(std::move(what)), info_(info) {}

  const CrashInfo& info() const { return info_; }

 private:
  CrashInfo info_;
};

/// One injected fault, as it will appear in the FaultReport.
struct FaultEvent {
  FaultKind kind = FaultKind::HcaTransient;
  int rank_a = -1;
  int rank_b = -1;      ///< peer rank, -1 when not pairwise
  Micros at = 0.0;      ///< virtual time of injection (0 for init-time faults)
  std::string detail;
};

/// One degradation decision (per rank or per pair) forced by a fault.
struct DegradationEvent {
  DegradationKind kind = DegradationKind::HostnameLocalityFallback;
  int rank_a = -1;
  int rank_b = -1;  ///< peer rank, -1 when the decision is per-rank
};

/// What the job survived: injected faults, the degradation decisions they
/// forced, per-channel retry counts, and virtual time lost to recovery.
/// Canonicalized (sorted, deduplicated) so the same seed yields an identical
/// report regardless of thread schedule.
struct FaultReport {
  std::vector<FaultEvent> injected;
  std::vector<DegradationEvent> degradations;
  std::uint64_t shm_retries = 0;
  std::uint64_t cma_retries = 0;
  std::uint64_t hca_retries = 0;
  Micros time_lost = 0.0;  ///< virtual time spent on backoff + fallbacks

  /// Did anything at all happen? False for a clean (or fault-free) run.
  bool any() const {
    return !injected.empty() || !degradations.empty() || shm_retries > 0 ||
           cma_retries > 0 || hca_retries > 0;
  }
  /// Retries summed over all channels.
  std::uint64_t total_retries() const { return shm_retries + cma_retries + hca_retries; }

  /// Per-kind counts, one line each — for benches and EXPERIMENTS.md.
  std::string summary() const;
};

/// Stateless, hash-based fault decisions. Every predicate is a pure function
/// of (seed, site identity), so concurrent callers always agree and decisions
/// never depend on call order.
class FaultInjector {
 public:
  /// Binds a plan to the job seed; decisions are fixed from here on.
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  /// The plan this injector was built from.
  const FaultPlan& plan() const { return plan_; }
  /// Shorthand for plan().enabled().
  bool enabled() const { return plan_.enabled(); }

  /// Does this rank's /dev/shm locality segment open fail?
  bool shm_segment_fails(int rank) const;

  /// Is container `container_index` on `host` deployed with private IPC?
  bool private_ipc(int host, int container_index) const;

  /// Is CMA permission-denied between this (unordered) rank pair?
  bool cma_permission_denied(int a, int b) const;

  /// Does attempt `attempt` of the sender's transfer `seq` to `dst` fail at
  /// virtual time `at`? Transient errors and link flaps both land here.
  /// Returns the fault kind, or no fault.
  enum class HcaOutcome : std::uint8_t { Ok, Transient, LinkFlap };
  HcaOutcome hca_attempt(int src, int dst, std::uint64_t seq, int attempt,
                         Micros at) const;

  /// Backoff before retry `attempt` (0-based): base * factor^attempt with
  /// deterministic jitter in [1.0, 1.25) hashed from the transfer identity.
  Micros backoff_delay(int src, int dst, std::uint64_t seq, int attempt,
                       Micros base, double factor) const;

  /// Crash-class decisions: does this unit crash during the job, and when?
  /// Pure functions of (seed, site); nullopt = the unit survives.
  std::optional<Micros> rank_crash_at(int rank) const;
  std::optional<Micros> container_crash_at(int host, int container_index) const;
  /// `physical_host` should be the *cluster-wide* host id when the job runs
  /// under a scheduler (see FaultPlan::host_fault_seed), the job-local id
  /// otherwise.
  std::optional<Micros> host_crash_at(int physical_host) const;

 private:
  double uniform(std::uint64_t site, std::uint64_t a, std::uint64_t b,
                 std::uint64_t c) const;
  double uniform_seeded(std::uint64_t seed, std::uint64_t site, std::uint64_t a,
                        std::uint64_t b, std::uint64_t c) const;

  FaultPlan plan_;
  std::uint64_t seed_;
};

/// Collects fault/degradation observations while the job runs and folds them
/// into a canonical FaultReport. Writes go to per-rank slots owned by that
/// rank's fiber (the init thread before ranks start), so recording is
/// race-free and totals fold deterministically in rank order.
class FaultLog {
 public:
  /// One slot per rank; `owner_rank` in every call below must be the rank
  /// whose thread is calling (or the init thread before ranks start).
  explicit FaultLog(int nranks);

  /// Appends an injected-fault observation to the owner's slot.
  void record_fault(int owner_rank, FaultEvent event);
  /// Deduplicated per (kind, pair); returns true when newly recorded.
  bool record_degradation(int owner_rank, DegradationEvent event);
  /// Counts one retry against the channel that `kind` degraded.
  void add_retry(int owner_rank, FaultKind kind);
  /// Adds virtual time spent on backoff / fallback detection.
  void add_time_lost(int owner_rank, Micros lost);

  /// Folds every slot, in rank order, into one canonical sorted report.
  FaultReport finalize() const;

 private:
  struct RankSlot {
    std::vector<FaultEvent> faults;
    std::vector<DegradationEvent> degradations;
    std::set<std::tuple<std::uint8_t, int, int>> seen_degradations;
    std::uint64_t shm_retries = 0;
    std::uint64_t cma_retries = 0;
    std::uint64_t hca_retries = 0;
    Micros time_lost = 0.0;
  };

  std::vector<RankSlot> ranks_;
};

}  // namespace cbmpi::faults
