// Shared harness for the figure/table reproduction benches.
//
// Every bench prints the paper reference it reproduces, the series the paper
// reports, and one SHAPE-OK/SHAPE-MISMATCH line per qualitative claim, so
// EXPERIMENTS.md can quote results directly. A bench::Figure prints those
// lines, collects the --json rows and turns a mismatch into exit status 1.
#pragma once

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/options.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "container/deployment.hpp"
#include "mpi/runtime.hpp"
#include "obs/json.hpp"

namespace cbmpi::bench {

/// One bench's report: banners, shape checks, --json rows and exit status.
///
/// The --json document is
///   {"bench": ..., "config": ..., "seed": ..., "rows":
///    [{"label": ..., "bytes": ..., <the row's named numbers, in order>}]}
/// Rows are written in row() order and numbers through obs::JsonWriter, so a
/// rerun with the same seed writes a byte-identical file.
/// tools/check_regress.py keys rows on (label, bytes) and gates their
/// `latency_us` and `bandwidth_mbps` fields.
class Figure {
 public:
  using Field = std::pair<std::string_view, double>;

  /// Declares --json on `opts`, so construct it where that option belongs
  /// in --help. `seed` is the seed the bench's jobs run with.
  Figure(Options& opts, std::string_view bench, std::string_view config,
         std::uint64_t seed = 42)
      : json_path_(opts.get("json", "", "write the bench results as JSON to this file")) {
    doc_.begin_object();
    doc_.field("bench", bench);
    doc_.field("config", config);
    doc_.field("seed", seed);
    doc_.key("rows").begin_array();
  }

  /// Sends banners, verdicts and the "results written" line to `out`
  /// instead of stdout (for a bench whose stdout carries another document).
  void print_to(std::FILE* out) { out_ = out; }

  void banner(const std::string& id, const std::string& title,
              const std::string& paper_claim) const {
    std::fprintf(out_, "=== %s — %s ===\n", id.c_str(), title.c_str());
    std::fprintf(out_, "paper: %s\n\n", paper_claim.c_str());
  }

  /// Prints the verdict on one qualitative claim; a false one makes
  /// finish() return 1.
  void check(bool ok, const std::string& what) {
    std::fprintf(out_, "[%s] %s\n", ok ? "SHAPE-OK" : "SHAPE-MISMATCH", what.c_str());
    if (!ok) ++mismatches_;
  }

  /// One measured point: a label, a byte count, then named numbers.
  void row(std::string_view label, Bytes bytes, std::initializer_list<Field> fields) {
    doc_.begin_object();
    doc_.field("label", label);
    doc_.field("bytes", static_cast<std::uint64_t>(bytes));
    for (const auto& [name, value] : fields) doc_.field(name, value);
    doc_.end_object();
  }

  /// A row of the two gated metrics; 0 marks the one the point does not
  /// measure.
  void row(std::string_view label, Bytes bytes, double latency_us,
           double bandwidth_mbps) {
    row(label, bytes, {{"latency_us", latency_us}, {"bandwidth_mbps", bandwidth_mbps}});
  }

  /// The --json document.
  std::string json() const {
    obs::JsonWriter doc = doc_;
    doc.end_array().end_object();
    return doc.str() + "\n";
  }

  /// Writes the --json document when one was asked for, and returns the
  /// exit status: 1 after any mismatch or a failed write, else 0.
  int finish() const {
    const int status = mismatches_ > 0 ? 1 : 0;
    if (json_path_.empty()) return status;
    std::ofstream out(json_path_, std::ios::binary);
    out << json();
    out.close();
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path_.c_str());
      return 1;
    }
    std::fprintf(out_, "results written to %s\n", json_path_.c_str());
    return status;
  }

 private:
  std::string json_path_;
  obs::JsonWriter doc_;  ///< the document so far: rows array still open
  int mismatches_ = 0;
  std::FILE* out_ = stdout;
};

/// Runs `body` on every rank of a `config` job and returns what rank 0's
/// body returned; the whole job result goes to `*result` when asked for.
template <typename Body>
auto run_rank0(const mpi::JobConfig& config, Body&& body,
               mpi::JobResult* result = nullptr) {
  std::invoke_result_t<Body&, mpi::Process&> value{};
  auto job = mpi::run_job(config, [&](mpi::Process& p) {
    auto v = body(p);
    if (p.rank() == 0) value = std::move(v);
  });
  if (result != nullptr) *result = std::move(job);
  return value;
}

/// Fig. 1's deployment scenarios on one host of `procs` ranks: Native, then
/// 1, 2 and 4 containers, all under the default hostname locality policy.
inline std::vector<mpi::JobConfig> container_scenarios(int procs) {
  std::vector<mpi::JobConfig> scenarios;
  for (const int containers : {0, 1, 2, 4}) {
    mpi::JobConfig config;
    config.deployment = containers == 0
                            ? container::DeploymentSpec::native_hosts(1, procs)
                            : container::DeploymentSpec::containers(1, containers, procs);
    config.policy = fabric::LocalityPolicy::HostnameBased;
    scenarios.push_back(config);
  }
  return scenarios;
}

/// The paper's three library configurations for one deployment.
struct ModeConfigs {
  mpi::JobConfig def;     ///< default MVAPICH2 behaviour (hostname locality)
  mpi::JobConfig opt;     ///< proposed locality-aware design
  mpi::JobConfig native;  ///< no containers (upper bound)
};

inline ModeConfigs make_modes(int hosts, int containers_per_host, int procs_per_host,
                              container::SocketPolicy socket_policy =
                                  container::SocketPolicy::Pack) {
  ModeConfigs modes;
  modes.def.deployment =
      container::DeploymentSpec::containers(hosts, containers_per_host, procs_per_host);
  modes.def.deployment.socket_policy = socket_policy;
  modes.def.policy = fabric::LocalityPolicy::HostnameBased;

  modes.opt = modes.def;
  modes.opt.policy = fabric::LocalityPolicy::ContainerAware;

  modes.native.deployment =
      container::DeploymentSpec::native_hosts(hosts, procs_per_host);
  modes.native.deployment.socket_policy = socket_policy;
  modes.native.policy = fabric::LocalityPolicy::HostnameBased;
  return modes;
}

/// Declares the shared --seed option the ext benches accept. The value feeds
/// every JobConfig / scheduler seed in the bench, so a rerun with the same
/// seed reproduces the run exactly and a different seed gives an independent
/// sample of the same experiment.
inline std::uint64_t declare_seed(Options& opts, std::uint64_t def = 42) {
  return static_cast<std::uint64_t>(opts.get_int(
      "seed", static_cast<std::int64_t>(def),
      "base RNG seed: same seed -> bit-identical rerun"));
}

/// Message-size sweep 1 B .. max (powers of two), OSU-style.
inline std::vector<Bytes> size_sweep(Bytes from, Bytes upto) {
  std::vector<Bytes> sizes;
  for (Bytes s = from; s <= upto; s *= 2) sizes.push_back(s);
  return sizes;
}

inline double percent_better(double baseline, double improved) {
  return (baseline - improved) / baseline * 100.0;
}

}  // namespace cbmpi::bench
