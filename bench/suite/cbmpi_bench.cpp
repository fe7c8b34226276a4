// cbmpi_bench — the benchmark driver behind bench/suite/run.py.
//
//   cbmpi_bench --workload=coll_wide --seed=1 --seconds=20 [--trace]
//               [--trace-out=FILE]
//   cbmpi_bench --workload=coll_wide --quick [--trace] [--trace-out=FILE]
//
// One process, one driver thread, closed loop with one client: the next
// simulated job starts only after the previous one returned. A run has four
// phases:
//
//   1. set-up: build the workload's inputs and run one untimed warm-up job,
//      repeated so run.py can report a median set-up time;
//   2. the timed loop: jobs with seeds derived from --seed until --seconds
//      have passed and at least 100 jobs have run (--quick: exactly 5 jobs);
//   3. reference jobs on the first K job seeds: the hostname-based policy,
//      native processes, and same-seed reruns of the container-aware job;
//   4. exit, printing one JSON document of raw per-job samples on stdout.
//
// Layers are timed from the outside, around calls into public functions
// (mpi::run_job, sched::Scheduler::run and its runner seam,
// obs::analysis::analyze, obs::schedule_report_json, obs::to_perfetto), as
// spans kept in memory. Nothing under src/ is instrumented for the benchmark.
// With --trace every second timed job is "traced": JobConfig::observe is on
// and the job is analyzed, so blame and wait-state numbers can be read; the
// spans are written to --trace-out at exit.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/npb/npb.hpp"
#include "apps/osu/microbench.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "mpi/job_registry.hpp"
#include "mpi/runtime.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace cbmpi;
using Clock = std::chrono::steady_clock;
using obs::analysis::Blame;

/// Taken during static initialisation, so set-up time counts from (nearly)
/// process start.
const Clock::time_point kDriverStart = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kDriverStart)
      .count();
}

/// The driver's own spans, kept in memory: name, start, end, parent and the
/// timed job they belong to (-1 outside the timed loop).
class Tracer {
 public:
  struct Span {
    std::string name;
    long job = -1;
    int parent = -1;
    double begin_us = 0.0;
    double end_us = -1.0;
  };

  /// Opens a span on construction and closes it on destruction, exceptions
  /// included. Spans nest in construction order on the one driver thread.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), id_(tracer.open(std::move(name))) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span (once) and returns its duration in ms.
    double close() {
      if (!closed_) tracer_.close(id_);
      closed_ = true;
      const auto& span = tracer_.spans_[id_];
      return (span.end_us - span.begin_us) / 1000.0;
    }

   private:
    Tracer& tracer_;
    std::size_t id_;
    bool closed_ = false;
  };

  void set_job(long job) { job_ = job; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::size_t open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.job = job_;
    span.parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    span.begin_us = now_us();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_[id].end_us = now_us();
    // Scopes close in reverse order of opening; an exception unwinding
    // through several of them still pops the right one.
    stack_.erase(std::find(stack_.begin(), stack_.end(), id), stack_.end());
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  long job_ = -1;
};

/// Process-wide resource usage: CPU time and context switches of every
/// thread, including rank threads that have already been joined.
struct Usage {
  double cpu_ms = 0.0;
  long vcsw = 0;   ///< voluntary context switches
  long ivcsw = 0;  ///< involuntary context switches
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_usec) / 1e3;
  };
  return {ms(ru.ru_utime) + ms(ru.ru_stime), ru.ru_nvcsw, ru.ru_nivcsw};
}

Usage operator-(const Usage& a, const Usage& b) {
  return {a.cpu_ms - b.cpu_ms, a.vcsw - b.vcsw, a.ivcsw - b.ivcsw};
}

/// Bytes in each of the probe's two buffers; both stay resident for the
/// driver's whole life, and the reported peak RSS leaves them out.
constexpr std::size_t kProbeBufferBytes = std::size_t{8} << 20;

/// Times a fixed amount of host work that uses nothing from the library: an
/// integer hash loop and memcpy through buffers larger than L2. Run right
/// before every job, it tracks how fast the host is at that moment; the
/// host's speed drifts by 10-20 % over minutes on a shared machine, and
/// run.py divides it out of the host-time metrics. Its copies leave every job
/// to start with cold caches.
double probe_ms() {
  static std::vector<unsigned char> from(kProbeBufferBytes, 1);
  static std::vector<unsigned char> to(kProbeBufferBytes, 2);
  const double begin = now_us();
  std::uint64_t x = 0;
  std::uint64_t acc = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    acc += z ^ (z >> 31);
  }
  for (int i = 0; i < 4; ++i) std::memcpy(to.data(), from.data(), from.size());
  to[0] = static_cast<unsigned char>(to[0] ^ acc);  // keeps the loop alive
  return (now_us() - begin) / 1000.0;
}

/// Everything one job (or one schedule) of a workload yields: host costs per
/// layer, the layer counts read off the public JobResult, and the modelled
/// outcome. Counts are summed over the sample's run_job calls.
struct Sample {
  std::uint64_t seed = 0;
  bool traced = false;
  bool ok = true;

  double probe_ms = 0.0;  ///< the host-speed probe run just before the job
  double wall_ms = 0.0;
  double cpu_ms = 0.0;

  // mpi: summed over the sample's run_job calls.
  int jobs = 0;
  std::uint64_t ranks = 0;
  double run_job_ms = 0.0;
  double run_job_cpu_ms = 0.0;
  long vcsw = 0;
  long ivcsw = 0;
  std::uint64_t coll_calls = 0;

  // fabric, indexed by fabric::ChannelKind.
  std::array<std::uint64_t, fabric::kChannelKinds> ops{};
  std::array<std::uint64_t, fabric::kChannelKinds> bytes{};
  std::uint64_t eager_sends = 0;  ///< observed jobs only
  std::uint64_t rndv_sends = 0;   ///< observed jobs only

  std::uint64_t reg_hits = 0;
  std::uint64_t reg_misses = 0;
  std::uint64_t reg_evictions = 0;
  std::uint64_t reg_peak_pinned = 0;  ///< max over jobs

  std::uint64_t net_transfers = 0;
  std::uint64_t net_congested = 0;
  double net_max_factor = 1.0;  ///< max over jobs
  double net_peak_util = 0.0;   ///< max over jobs

  // obs: spans recorded by the runtime, and the analysis of observed jobs.
  std::uint64_t spans = 0;
  bool analyzed = false;
  std::array<double, obs::analysis::kBlames> blame{};
  double late_sender_us = 0.0;
  double coll_imbalance_us = 0.0;
  std::uint64_t report_bytes = 0;
  std::uint64_t perfetto_bytes = 0;

  // sched (observed_schedule only).
  double sched_run_ms = 0.0;
  double makespan_us = 0.0;
  double utilization = 0.0;
  double mean_queue_wait_us = 0.0;
  double intra_host_pair_frac = 0.0;
  int backfilled_jobs = 0;

  double virt_us = 0.0;      ///< job time, or the schedule makespan
  double ideal_twin_ms = -1.0;  ///< run_job wall of the ideal-fabric twin

  /// Modelled results a same-seed rerun must reproduce bit for bit: job
  /// time, rank times and channel op counts of every run_job, in order.
  std::vector<double> fingerprint;
};

void fold_job(Sample& s, const mpi::JobResult& r) {
  ++s.jobs;
  s.ranks += r.rank_times.size();
  const auto& profile = r.profile.total;
  for (std::size_t k = 0; k < fabric::kChannelKinds; ++k) {
    const auto kind = static_cast<fabric::ChannelKind>(k);
    s.ops[k] += profile.channel_ops(kind);
    s.bytes[k] += profile.channel_bytes(kind);
  }
  for (auto kind = static_cast<std::size_t>(prof::CallKind::Barrier);
       kind <= static_cast<std::size_t>(prof::CallKind::Exscan); ++kind)
    s.coll_calls += profile.call(static_cast<prof::CallKind>(kind)).count;
  for (const auto& [name, value] : r.metrics.counters) {
    if (name == "adi3.eager_sends") s.eager_sends += value;
    if (name == "adi3.rndv_sends") s.rndv_sends += value;
  }
  s.spans += r.spans.size();
  s.reg_hits += r.reg_cache.hits;
  s.reg_misses += r.reg_cache.misses;
  s.reg_evictions += r.reg_cache.evictions;
  s.reg_peak_pinned = std::max<std::uint64_t>(s.reg_peak_pinned,
                                              r.reg_cache.peak_pinned_bytes);
  if (r.net.enabled) {
    s.net_transfers += r.net.transfers;
    s.net_congested += r.net.congested_transfers;
    s.net_max_factor = std::max(s.net_max_factor, r.net.max_factor);
    s.net_peak_util = std::max(s.net_peak_util, r.net.max_peak_util);
  }
  s.fingerprint.push_back(r.job_time);
  s.fingerprint.insert(s.fingerprint.end(), r.rank_times.begin(), r.rank_times.end());
  for (std::size_t k = 0; k < fabric::kChannelKinds; ++k)
    s.fingerprint.push_back(static_cast<double>(
        profile.channel_ops(static_cast<fabric::ChannelKind>(k))));
}

void fold_analysis(Sample& s, const obs::analysis::Analysis& a) {
  s.analyzed = true;
  for (std::size_t b = 0; b < obs::analysis::kBlames; ++b) s.blame[b] += a.blame[b];
  for (const auto& ws : a.wait_states) s.late_sender_us += ws.late_sender;
  for (const auto& group : a.coll_groups) s.coll_imbalance_us += group.imbalance;
}

mpi::JobResult timed_run_job(Tracer& tracer, Sample& s, const mpi::JobConfig& config,
                             const mpi::JobBody& body) {
  const Usage before = usage_now();
  Tracer::Scope span(tracer, "mpi.run_job");
  auto result = mpi::run_job(config, body);
  s.run_job_ms += span.close();
  const Usage used = usage_now() - before;
  s.run_job_cpu_ms += used.cpu_ms;
  s.vcsw += used.vcsw;
  s.ivcsw += used.ivcsw;
  fold_job(s, result);
  return result;
}

/// The three library configurations of the paper: the proposed
/// container-aware runtime, default MVAPICH2 (hostname-based locality), and
/// native processes on the same hosts.
enum class Mode { Aware, Hostname, Native };

mpi::JobConfig job_config(const container::DeploymentSpec& containers, Mode mode,
                          std::uint64_t seed, bool observe) {
  mpi::JobConfig config;
  config.deployment = mode == Mode::Native
                          ? container::DeploymentSpec::native_hosts(
                                containers.num_hosts, containers.procs_per_host)
                          : containers;
  config.policy = mode == Mode::Aware ? fabric::LocalityPolicy::ContainerAware
                                      : fabric::LocalityPolicy::HostnameBased;
  config.seed = seed;
  config.observe = observe;
  return config;
}

void require_positive(const std::vector<double>& values, std::size_t expected,
                      const char* what) {
  CBMPI_REQUIRE(values.size() == expected, what, ": ", values.size(), " of ",
                expected, " results");
  for (const double v : values)
    CBMPI_REQUIRE(std::isfinite(v) && v > 0.0, what, ": result ", v,
                  " is not finite and positive");
}

/// Runs one job under `config` and returns what `body` returned on rank 0;
/// analyzes the job when it is observed.
std::vector<double> run_values_job(
    Tracer& tracer, Sample& s, const mpi::JobConfig& config,
    const std::function<std::vector<double>(mpi::Process&)>& body) {
  std::vector<double> values;
  const auto result = timed_run_job(tracer, s, config, [&](mpi::Process& p) {
    auto v = body(p);
    if (p.rank() == 0) values = std::move(v);
  });
  s.virt_us = result.job_time;
  if (config.observe) {
    Tracer::Scope span(tracer, "obs.analyze");
    fold_analysis(s, obs::analysis::analyze(result.spans,
                                            static_cast<int>(result.rank_times.size()),
                                            result.rank_times));
  }
  return values;
}

// --- workloads --------------------------------------------------------------

// OSU options: {warm-up, iterations, window}. The collective iterations are
// cut from the OSU default of 20 so that a 20 s loop holds over 100 jobs.
// The bandwidth window is cut from 64 to 8: each call allocates a fresh
// receive buffer per window slot, and 64 MiB of fresh pages per call made
// the job's host time swing with the host's memory management by up to
// 35 % over minutes, against 11 % with 8.
constexpr apps::osu::PairOptions kLatencyOptions{2, 10, 64};
constexpr apps::osu::PairOptions kBandwidthOptions{2, 100, 8};
constexpr apps::osu::PairOptions kCollOptions{2, 4, 64};

/// Paper Fig. 8: two containers on one host, one rank each. Payload copies
/// through SHM eager and CMA rendezvous dominate the host time.
void run_pt2pt_intra(Tracer& tracer, Sample& s, Mode mode, std::uint64_t seed,
                     bool observe) {
  const auto values = run_values_job(
      tracer, s,
      job_config(container::DeploymentSpec::containers(1, 2, 2), mode, seed, observe),
      [](mpi::Process& p) {
        std::vector<double> v;
        for (const Bytes size : {Bytes{8}, 1_KiB, 16_KiB, 256_KiB})
          v.push_back(apps::osu::pt2pt_latency(p, size, kLatencyOptions));
        for (const Bytes size : {8_KiB, 1_MiB})
          v.push_back(apps::osu::pt2pt_bandwidth(p, size, kBandwidthOptions));
        return v;
      });
  require_positive(values, 6, "osu pt2pt");
}

/// Paper Fig. 10: 4 hosts x 4 containers x 16 ranks on the ideal fabric.
/// Tiny payloads, so the host time is the thread-per-rank engine and the
/// collective/matcher path.
void run_coll_wide(Tracer& tracer, Sample& s, Mode mode, std::uint64_t seed,
                   bool observe) {
  const auto values = run_values_job(
      tracer, s,
      job_config(container::DeploymentSpec::containers(4, 4, 16), mode, seed, observe),
      [](mpi::Process& p) {
        std::vector<double> v;
        for (const auto coll : {apps::osu::Collective::Bcast, apps::osu::Collective::Allreduce,
                                apps::osu::Collective::Allgather,
                                apps::osu::Collective::Alltoall})
          v.push_back(apps::osu::collective_latency(p, coll, 1_KiB, kCollOptions));
        return v;
      });
  require_positive(values, 4, "osu collectives");
}

/// Paper Fig. 12 applications on the fabric model: NPB FT plus two rounds of
/// the registered alltoall body at 2 MiB per rank (64 KiB per peer, so HCA
/// rendezvous through the pin-down cache: one cold round, one warm). The
/// only workload using `net` and `reg_cache`. NPB LU is left out: with it
/// the contention settle more than doubles, past the 100-job budget.
mpi::JobConfig apps_config(Mode mode, std::uint64_t seed, bool observe) {
  auto config = job_config(container::DeploymentSpec::containers(4, 2, 8), mode, seed,
                           observe);
  config.fabric = net::FabricConfig::parse("fattree:4");
  config.tuning.reg_model = true;
  config.tuning.reg_cache_bytes = 64_MiB;
  return config;
}

void run_apps_job(Tracer& tracer, Sample& s, const mpi::JobConfig& config) {
  mpi::JobBodyParams alltoall_params;
  alltoall_params.message_size = 2_MiB;
  alltoall_params.rounds = 2;
  const auto alltoall =
      mpi::JobBodyRegistry::instance().make("alltoall", alltoall_params);
  const auto verified =
      run_values_job(tracer, s, config, [&alltoall](mpi::Process& p) {
        apps::npb::FtParams ft;
        ft.nx = ft.nz = std::max(32, p.size());
        ft.ny = 8;
        const bool ok = apps::npb::run_ft(p, ft).verified;
        alltoall(p);
        return std::vector<double>{ok ? 1.0 : 0.0};
      });
  CBMPI_REQUIRE(verified == std::vector<double>{1.0}, "NPB FT result not verified");
}

void run_apps_fattree(Tracer& tracer, Sample& s, Mode mode, std::uint64_t seed,
                      bool observe) {
  run_apps_job(tracer, s, apps_config(mode, seed, observe));
}

/// The same job on the ideal fabric, for the cost of the fabric model's
/// record -> settle -> apply rerun. Returns its run_job wall in ms.
double apps_ideal_twin(Tracer& tracer, std::uint64_t seed) {
  auto config = apps_config(Mode::Aware, seed, false);
  config.fabric = net::FabricConfig{};
  Sample twin;
  run_apps_job(tracer, twin, config);
  return twin.run_job_ms;
}

/// What `cbmpirun --schedule=locality --analyze --report --trace-out` does:
/// the seeded 12-job mix cbmpirun generates, drained on 4 hosts with
/// LocalityAware placement and EASY backfill, observed, then every job
/// analyzed and rendered to Perfetto, and one schedule report. The only
/// workload with telemetry on.
constexpr int kScheduleJobs = 12;
constexpr int kScheduleHosts = 4;

std::vector<sched::JobSpec> schedule_mix(std::uint64_t seed, int cores, Mode mode) {
  const auto bodies = mpi::JobBodyRegistry::instance().names();
  Xoshiro256 rng(mix64(seed));
  std::vector<sched::JobSpec> mix;
  Micros t = 0.0;
  for (int i = 0; i < kScheduleJobs; ++i) {
    sched::JobSpec job;
    job.body = bodies[static_cast<std::size_t>(i) % bodies.size()];
    job.ranks = i > 0 && i % 5 == 0 ? std::max(4, cores / 2)
                                    : 4 + 2 * static_cast<int>(rng.below(3));
    job.ranks_per_container = mode == Mode::Native ? 0 : 4;
    job.policy = mode == Mode::Aware ? fabric::LocalityPolicy::ContainerAware
                                     : fabric::LocalityPolicy::HostnameBased;
    job.params.rounds = 2 + static_cast<int>(rng.below(3));
    job.submit_time = t;
    job.est_runtime = millis(50.0);
    if (i >= kScheduleJobs / 3) t += 10.0 + 10.0 * static_cast<double>(rng.below(4));
    mix.push_back(job);
  }
  return mix;
}

void run_observed_schedule(Tracer& tracer, Sample& s, Mode mode, std::uint64_t seed,
                           bool /*observe: always on in this workload*/) {
  sched::SchedulerConfig config;
  config.cluster_hosts = kScheduleHosts;
  config.policy = sched::PlacementPolicy::LocalityAware;
  config.backfill = true;
  config.seed = seed;
  config.observe = true;
  sched::Scheduler scheduler(config);
  scheduler.set_runner([&](const mpi::JobConfig& job_config, const sched::JobSpec& job) {
    return timed_run_job(tracer, s, job_config,
                         mpi::JobBodyRegistry::instance().make(job.body, job.params));
  });
  for (const auto& job :
       schedule_mix(seed, kScheduleHosts * config.host_shape.total_cores(), mode))
    scheduler.submit(job);
  {
    Tracer::Scope span(tracer, "sched.run");
    scheduler.run();
    s.sched_run_ms = span.close();
  }
  CBMPI_REQUIRE(scheduler.jobs().size() == static_cast<std::size_t>(kScheduleJobs),
                "schedule finished ", scheduler.jobs().size(), " of ", kScheduleJobs,
                " jobs");
  std::map<std::string, obs::analysis::Analysis> analyses;
  for (const auto& job : scheduler.jobs()) {
    CBMPI_REQUIRE(job.outcome == sched::JobOutcome::Completed, job.spec.name, " ",
                  sched::to_string(job.outcome));
    obs::analysis::Analysis analysis;
    {
      Tracer::Scope span(tracer, "obs.analyze");
      analysis = obs::analysis::analyze(job.result.spans,
                                        static_cast<int>(job.result.rank_times.size()),
                                        job.result.rank_times);
    }
    fold_analysis(s, analysis);
    {
      Tracer::Scope span(tracer, "obs.perfetto");
      s.perfetto_bytes +=
          obs::to_perfetto(job.result.spans, job.result.trace, &analysis).size();
    }
    analyses.emplace(job.spec.name, std::move(analysis));
  }
  const auto& metrics = scheduler.metrics();
  obs::ReportContext ctx;
  ctx.app = "schedule";
  ctx.deployment = std::to_string(kScheduleHosts) + " hosts";
  ctx.policy = "locality";
  ctx.seed = seed;
  ctx.cluster = &metrics;
  ctx.job_analyses = &analyses;
  {
    Tracer::Scope span(tracer, "obs.report");
    s.report_bytes = obs::schedule_report_json(ctx, scheduler).size();
  }
  CBMPI_REQUIRE(s.report_bytes > 0 && s.perfetto_bytes > 0, "empty report or trace");
  s.makespan_us = metrics.makespan;
  s.utilization = metrics.utilization;
  s.mean_queue_wait_us = metrics.mean_queue_wait;
  s.intra_host_pair_frac = metrics.intra_host_pair_share();
  s.backfilled_jobs = metrics.backfilled_jobs;
  s.virt_us = metrics.makespan;
  s.fingerprint.push_back(metrics.makespan);
}

struct Workload {
  const char* name;
  void (*run)(Tracer&, Sample&, Mode, std::uint64_t seed, bool observe);
  /// Workloads on a non-ideal fabric time the same job on the ideal fabric
  /// after each traced job; null elsewhere.
  double (*ideal_twin)(Tracer&, std::uint64_t seed);
};

constexpr std::array<Workload, 4> kWorkloads = {{
    {"pt2pt_intra", run_pt2pt_intra, nullptr},
    {"coll_wide", run_coll_wide, nullptr},
    {"apps_fattree", run_apps_fattree, apps_ideal_twin},
    {"observed_schedule", run_observed_schedule, nullptr},
}};

/// Job seeds are a pure function of (--seed, phase, index); the simulator
/// only ever sees the generated seeds.
constexpr std::uint64_t kTimedPhase = 0;
constexpr std::uint64_t kSetupPhase = 1;
/// Set-up jobs take the place of --seed with this constant, so every run sets
/// up on the same inputs: in observed_schedule the seed picks the job mix,
/// and seed-dependent set-ups spread setup_s by 25 % across runs.
constexpr std::uint64_t kSetupRoot = 0;

std::uint64_t job_seed(std::uint64_t seed, std::uint64_t phase, std::uint64_t index) {
  return mix64(mix64(mix64(seed) ^ phase) ^ index);
}

/// Runs one sample under a root span; a failure marks the sample, not the
/// run.
Sample run_sample(const Workload& w, Tracer& tracer, const char* root, Mode mode,
                  std::uint64_t seed, bool traced) {
  Sample s;
  s.seed = seed;
  s.traced = traced;
  s.probe_ms = probe_ms();
  const Usage before = usage_now();
  Tracer::Scope span(tracer, root);
  try {
    w.run(tracer, s, mode, seed, traced);
  } catch (const std::exception& e) {
    s.ok = false;
    std::fprintf(stderr, "cbmpi_bench: %s job (seed %llu) failed: %s\n", w.name,
                 static_cast<unsigned long long>(seed), e.what());
  }
  s.wall_ms = span.close();
  s.cpu_ms = (usage_now() - before).cpu_ms;
  return s;
}

void write_sample(obs::JsonWriter& w, const Sample& s) {
  w.begin_object();
  w.field("traced", s.traced);
  w.field("ok", s.ok);
  w.field("probe_ms", s.probe_ms);
  w.field("wall_ms", s.wall_ms);
  w.field("cpu_ms", s.cpu_ms);
  w.field("jobs", s.jobs);
  w.field("ranks", s.ranks);
  w.field("run_job_ms", s.run_job_ms);
  w.field("run_job_cpu_ms", s.run_job_cpu_ms);
  w.field("vcsw", static_cast<std::int64_t>(s.vcsw));
  w.field("ivcsw", static_cast<std::int64_t>(s.ivcsw));
  w.field("coll_calls", s.coll_calls);
  w.key("ops").begin_array();
  for (const auto v : s.ops) w.value(v);
  w.end_array();
  w.key("bytes").begin_array();
  for (const auto v : s.bytes) w.value(v);
  w.end_array();
  w.field("eager_sends", s.eager_sends);
  w.field("rndv_sends", s.rndv_sends);
  w.field("reg_hits", s.reg_hits);
  w.field("reg_misses", s.reg_misses);
  w.field("reg_evictions", s.reg_evictions);
  w.field("reg_peak_pinned", s.reg_peak_pinned);
  w.field("net_transfers", s.net_transfers);
  w.field("net_congested", s.net_congested);
  w.field("net_max_factor", s.net_max_factor);
  w.field("net_peak_util", s.net_peak_util);
  w.field("spans", s.spans);
  if (s.analyzed) {
    w.key("blame").begin_object();
    for (std::size_t b = 0; b < obs::analysis::kBlames; ++b)
      w.field(obs::analysis::to_string(static_cast<Blame>(b)), s.blame[b]);
    w.end_object();
    w.field("late_sender_us", s.late_sender_us);
    w.field("coll_imbalance_us", s.coll_imbalance_us);
  }
  w.field("report_bytes", s.report_bytes);
  w.field("perfetto_bytes", s.perfetto_bytes);
  w.field("sched_run_ms", s.sched_run_ms);
  w.field("makespan_us", s.makespan_us);
  w.field("utilization", s.utilization);
  w.field("mean_queue_wait_us", s.mean_queue_wait_us);
  w.field("intra_host_pair_frac", s.intra_host_pair_frac);
  w.field("backfilled_jobs", s.backfilled_jobs);
  if (s.ideal_twin_ms >= 0.0) w.field("ideal_twin_ms", s.ideal_twin_ms);
  w.end_object();
}

void write_trace(const std::string& path, const Workload& workload, const Tracer& tracer) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("workload", workload.name);
  w.key("spans").begin_array();
  for (const auto& span : tracer.spans()) {
    w.begin_object();
    w.field("name", span.name);
    w.field("job", static_cast<std::int64_t>(span.job));
    w.field("parent", span.parent);
    w.field("begin_us", span.begin_us);
    w.field("end_us", span.end_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path, std::ios::binary);
  out << w.str() << '\n';
  CBMPI_REQUIRE(out.good(), "failed writing ", path);
}

/// The timed loop runs at least this many jobs, so that p90 has at least 10
/// samples above it, and gives up once this much time has passed, so that a
/// run on a slow host still ends well within its time limit. run.py fails a
/// run that ended with fewer jobs.
constexpr long kMinTimedJobs = 100;
constexpr double kMaxTimedSeconds = 100.0;

int run(const Workload& workload, std::uint64_t seed, double seconds, bool trace,
        bool quick, const std::string& trace_out) {
  const int setups = quick ? 1 : 5;
  const long min_jobs = quick ? 5 : kMinTimedJobs;
  const std::size_t refs = quick ? 1 : 5;
  probe_ms();  // first touch of the probe's buffers
  Tracer tracer;
  long attempted = 0;
  long failed = 0;
  const auto count = [&](const Sample& s) {
    ++attempted;
    if (!s.ok) ++failed;
  };

  // 1. Set-up: inputs and one warm-up job, `setups` times. The first one is
  // measured from driver start; each is paired with the probe run in it.
  std::vector<double> setup_s;
  std::vector<double> setup_probe_ms;
  for (int r = 0; r < setups; ++r) {
    const double begin = r == 0 ? 0.0 : now_us();
    const auto warmup =
        run_sample(workload, tracer, "bench.setup", Mode::Aware,
                   job_seed(kSetupRoot, kSetupPhase, static_cast<std::uint64_t>(r)),
                   false);
    count(warmup);
    setup_s.push_back((now_us() - begin) / 1e6);
    setup_probe_ms.push_back(warmup.probe_ms);
  }

  // 2. The timed closed loop. With --trace, odd jobs are traced.
  std::vector<Sample> samples;
  const double timed_begin = now_us();
  for (long i = 0;; ++i) {
    const double elapsed_s = (now_us() - timed_begin) / 1e6;
    if (i >= min_jobs && (quick || elapsed_s >= seconds)) break;
    if (i >= static_cast<long>(refs) && elapsed_s >= kMaxTimedSeconds) break;
    const bool traced = trace && i % 2 == 1;
    const auto job_seed_i = job_seed(seed, kTimedPhase, static_cast<std::uint64_t>(i));
    tracer.set_job(i);
    samples.push_back(
        run_sample(workload, tracer, "bench.job", Mode::Aware, job_seed_i, traced));
    count(samples.back());
    if (traced && workload.ideal_twin) {
      Tracer::Scope span(tracer, "bench.twin");
      ++attempted;
      try {
        samples.back().ideal_twin_ms = workload.ideal_twin(tracer, job_seed_i);
      } catch (const std::exception& e) {
        ++failed;
        std::fprintf(stderr, "cbmpi_bench: ideal twin failed: %s\n", e.what());
      }
    }
    tracer.set_job(-1);
  }

  // 3. Reference jobs on the first `refs` job seeds.
  std::vector<double> hostname_us;
  std::vector<double> native_us;
  long rerun_mismatches = 0;
  for (std::size_t k = 0; k < refs; ++k) {
    const auto& first = samples[k];
    const auto hostname =
        run_sample(workload, tracer, "bench.ref", Mode::Hostname, first.seed, false);
    const auto native =
        run_sample(workload, tracer, "bench.ref", Mode::Native, first.seed, false);
    const auto rerun =
        run_sample(workload, tracer, "bench.ref", Mode::Aware, first.seed, false);
    for (const auto* s : {&hostname, &native, &rerun}) count(*s);
    hostname_us.push_back(hostname.virt_us);
    native_us.push_back(native.virt_us);
    if (!first.ok || !rerun.ok || rerun.fingerprint != first.fingerprint)
      ++rerun_mismatches;
  }

  // 4. Exit.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  if (!trace_out.empty()) write_trace(trace_out, workload, tracer);

  obs::JsonWriter w;
  w.begin_object();
  w.field("workload", workload.name);
  w.field("seed", seed);
  w.field("trace", trace);
  w.field("attempted", static_cast<std::int64_t>(attempted));
  w.field("failed", static_cast<std::int64_t>(failed));
  w.key("setup_s").begin_array();
  for (const double v : setup_s) w.value(v);
  w.end_array();
  w.key("setup_probe_ms").begin_array();
  for (const double v : setup_probe_ms) w.value(v);
  w.end_array();
  w.field("min_timed_jobs", static_cast<std::int64_t>(min_jobs));
  w.field("peak_rss_kb", static_cast<std::int64_t>(ru.ru_maxrss) -
                             static_cast<std::int64_t>(2 * kProbeBufferBytes / 1024));
  w.key("samples").begin_array();
  for (const auto& s : samples) write_sample(w, s);
  w.end_array();
  w.key("reference").begin_object();
  w.key("aware_us").begin_array();
  for (std::size_t k = 0; k < refs; ++k) w.value(samples[k].virt_us);
  w.end_array();
  w.key("hostname_us").begin_array();
  for (const double v : hostname_us) w.value(v);
  w.end_array();
  w.key("native_us").begin_array();
  for (const double v : native_us) w.value(v);
  w.end_array();
  w.field("reruns", static_cast<std::int64_t>(refs));
  w.field("rerun_mismatches", static_cast<std::int64_t>(rerun_mismatches));
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const std::string name = opts.get(
      "workload", "", "pt2pt_intra | coll_wide | apps_fattree | observed_schedule");
  const auto seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 1, "root of every job seed"));
  const double seconds = opts.get_double(
      "seconds", 0.0, "length of the timed loop (run.py passes BENCHMARK.json's run_seconds)");
  const bool trace = opts.get_flag("trace", "observe and analyze every second job");
  const std::string trace_out =
      opts.get("trace-out", "", "write the driver's spans to this file at exit");
  const bool quick =
      opts.get_flag("quick", "5 timed jobs, 1 set-up, 1 reference seed (smoke test)");
  if (opts.finish("cbmpi_bench — closed-loop benchmark driver (bench/suite/run.py)"))
    return 0;

  const auto it = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                               [&](const Workload& w) { return name == w.name; });
  if (it == kWorkloads.end()) {
    std::fprintf(stderr, "cbmpi_bench: unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  if (!quick && !(seconds > 0.0)) {
    std::fprintf(stderr, "cbmpi_bench: --seconds must be positive\n");
    return 2;
  }
  try {
    return run(*it, seed, seconds, trace, quick, trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cbmpi_bench: %s\n", e.what());
    return 1;
  }
}
