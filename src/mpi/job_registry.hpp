// Named, parameterized job bodies — the piece that makes multi-job specs
// serializable. A scheduler (or a config file, or a CLI flag) cannot carry a
// std::function closure, so instead a JobSpec names a body registered here
// and the registry rebuilds the closure from (name, params) at launch time.
//
// Each body also publishes a *communication-volume hint*: a symmetric
// nranks x nranks matrix of relative traffic weight per rank pair, in the
// spirit of a prior `prof` run. The LocalityAware placer maximizes the hint
// weight kept co-resident; bodies with no meaningful structure return a
// uniform matrix, compute-only bodies an all-zero one.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "mpi/runtime.hpp"

namespace cbmpi::mpi {

/// Serializable knobs shared by every registered body.
struct JobBodyParams {
  Bytes message_size = 4_KiB;  ///< payload per exchange
  int rounds = 4;              ///< communication rounds
  double compute_ops = 0.0;    ///< abstract work units per rank per round
};

/// What every rank executes; the closure run_job() runs as each rank's fiber.
using JobBody = std::function<void(Process&)>;
/// Symmetric nranks x nranks relative traffic weight per rank pair.
using TrafficMatrix = std::vector<std::vector<double>>;

/// Everything the registry knows about one named body.
struct JobBodyInfo {
  /// Builds the runnable closure for one launch.
  std::function<JobBody(const JobBodyParams&)> make;
  /// Relative per-pair communication volume for an nranks-rank run.
  std::function<TrafficMatrix(int nranks, const JobBodyParams&)> traffic;
  std::string description;  ///< one line, shown by `cbmpirun --help`-style listings
  /// The body implements the checkpoint hooks (Process::checkpoint /
  /// start_round / restored_state) and can resume from a committed snapshot.
  /// Non-recoverable bodies re-run from round 0 after a crash.
  bool recoverable = false;
};

/// Process-wide registry. Built-in bodies (ring, pairs, shift, allreduce,
/// alltoall, sparse-random, compute) are registered on first access; callers
/// may add their own before submitting jobs that name them.
class JobBodyRegistry {
 public:
  /// The process-wide singleton (built-ins registered on first call).
  static JobBodyRegistry& instance();

  /// Registers (or replaces) a body under `name`.
  void add(const std::string& name, JobBodyInfo info);

  /// Is `name` registered?
  bool contains(const std::string& name) const;
  const JobBodyInfo& info(const std::string& name) const;  ///< throws if unknown

  /// Instantiates the closure for one launch.
  JobBody make(const std::string& name, const JobBodyParams& params) const;

  /// The body's traffic hint for an nranks-rank job.
  TrafficMatrix traffic_hint(const std::string& name, int nranks,
                             const JobBodyParams& params) const;

  std::vector<std::string> names() const;  ///< sorted

 private:
  JobBodyRegistry();

  std::map<std::string, JobBodyInfo> bodies_;
};

}  // namespace cbmpi::mpi
