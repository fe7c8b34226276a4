// Live-migration engine: runs one job as two segments around a container
// move (DESIGN.md §17).
//
//   segment 1   the job under its original placement with
//               JobConfig::stop_at = the epoch: at the first round boundary
//               past it the job's CheckpointStore stops every rank (drained,
//               snapshot saved, unwound) and JobResult::stop holds the image
//   transfer    the stop-and-copy residue of the image crosses the fabric
//               (src/net/ path latency + rate cap; flat HCA model without a
//               fabric) — the migration pause, charged to virtual time
//   segment 2   the same body restored from the image under the mutated
//               placement: locality re-detected, channels re-picked, fabric
//               routes and VF shares recomputed, and the moved ranks'
//               pin-down entries dropped from JobConfig::reg_warm (cold
//               re-registration, visible in the registration blame) while
//               every other rank's cache arrives warm
//
// The two segments are stitched into one JobResult on a shared virtual
// timeline (segment 2 shifted by segment 1's end + the pause), so reports,
// spans and metrics read like a single job that paused and moved. Both
// segments are ordinary deterministic run_job calls, so the whole migration
// reruns bit-identically.
#pragma once

#include <functional>

#include "migrate/plan.hpp"
#include "mpi/runtime.hpp"

namespace cbmpi::migrate {

class Engine {
 public:
  /// The cost gate (DESIGN.md §17): pre-copy schedule, stop-and-copy pause,
  /// cold re-registration, and the predicted locality win over the traffic
  /// still to come. Pure function of its arguments.
  static CostEstimate estimate(const topo::MachineProfile& profile,
                               const fabric::TuningParams& tuning,
                               const CostModel& cost, Bytes image_bytes,
                               int moved_ranks, const TrafficForecast& forecast);

  /// Runs `body` under `config`, executing `plan`'s container move at the
  /// quiesce epoch. Requires a containerized (non-native) job whose body
  /// calls Process::checkpoint each round; a job that finishes before the
  /// epoch simply never migrates (reported as executed = 0).
  static mpi::JobResult run(const mpi::JobConfig& config,
                            const std::function<void(mpi::Process&)>& body,
                            const MigrationPlan& plan);
};

}  // namespace cbmpi::migrate
