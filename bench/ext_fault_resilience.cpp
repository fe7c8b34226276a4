// Extension experiment: job time vs HCA fault rate under both locality
// policies. The locality-aware runtime keeps intra-host traffic on SHM/CMA,
// so it exposes *fewer* transfers to the faulty fabric than the hostname
// default — degradation under faults is flatter, and the retry counts show
// why. A second section demonstrates graceful degradation of the init-time
// paths: private IPC namespaces, /dev/shm failures, and CMA EPERM.
#include "bench_util.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

namespace {

/// Mixed-size neighbour exchange: eager (2 KiB) + rendezvous (128 KiB)
/// per round, intra- and inter-host traffic.
void mixed_traffic(mpi::Process& p) {
  constexpr int kRounds = 8;
  std::vector<std::uint8_t> small(2_KiB);
  std::vector<std::uint8_t> large(128_KiB);
  const int next = (p.rank() + 1) % p.size();
  const int prev = (p.rank() + p.size() - 1) % p.size();
  for (int round = 0; round < kRounds; ++round) {
    auto s1 = p.world().isend(std::span<const std::uint8_t>(small), next, 1);
    auto s2 = p.world().isend(std::span<const std::uint8_t>(large), next, 2);
    p.world().recv(std::span<std::uint8_t>(small), prev, 1);
    p.world().recv(std::span<std::uint8_t>(large), prev, 2);
    p.world().wait(s1);
    p.world().wait(s2);
    p.world().barrier();
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int hosts = static_cast<int>(opts.get_int("hosts", 2, "hosts"));
  const int procs = static_cast<int>(opts.get_int("procs", 8, "procs per host"));
  const std::uint64_t seed = declare_seed(opts);
  Figure fig(opts, "ext_fault_resilience",
             std::to_string(hosts) + " hosts x 2 containers x " + std::to_string(procs) +
                 " procs",
             seed);
  if (opts.finish("Extension: fault resilience vs locality policy")) return 0;

  fig.banner("Extension", "job time vs HCA fault rate",
             "locality-aware channel selection shrinks the HCA fault "
             "surface; retries/backoff degrade job time gracefully instead "
             "of failing the job");

  const auto modes = make_modes(hosts, 2, procs);
  const std::vector<double> fault_rates = {0.0, 0.02, 0.05, 0.10};

  Table table({"HCA fault rate", "default (ms)", "aware (ms)", "def retries",
               "aware retries", "def lost (ms)", "aware lost (ms)"});
  std::vector<double> def_times, opt_times;
  std::vector<std::uint64_t> def_retries, opt_retries;
  for (const double rate : fault_rates) {
    mpi::JobConfig def = modes.def;
    mpi::JobConfig opt = modes.opt;
    def.seed = seed;
    opt.seed = seed;
    def.faults.hca_transient_prob = rate;
    opt.faults.hca_transient_prob = rate;

    const auto def_result = mpi::run_job(def, mixed_traffic);
    const auto opt_result = mpi::run_job(opt, mixed_traffic);
    def_times.push_back(def_result.job_time);
    opt_times.push_back(opt_result.job_time);
    def_retries.push_back(def_result.fault_report.hca_retries);
    opt_retries.push_back(opt_result.fault_report.hca_retries);

    fig.row("default,rate=" + Table::num(rate, 2), 0, def_result.job_time, 0.0);
    fig.row("aware,rate=" + Table::num(rate, 2), 0, opt_result.job_time, 0.0);
    table.add_row({Table::num(rate, 2), Table::num(to_millis(def_result.job_time), 3),
                   Table::num(to_millis(opt_result.job_time), 3),
                   std::to_string(def_result.fault_report.hca_retries),
                   std::to_string(opt_result.fault_report.hca_retries),
                   Table::num(to_millis(def_result.fault_report.time_lost), 3),
                   Table::num(to_millis(opt_result.fault_report.time_lost), 3)});
  }
  table.print(std::cout);
  std::printf(
      "slowdown at %.0f%% faults: default %.2fx, aware %.2fx\n\n",
      fault_rates.back() * 100.0, def_times.back() / def_times.front(),
      opt_times.back() / opt_times.front());

  bool monotone = true;
  for (std::size_t i = 1; i < fault_rates.size(); ++i) {
    if (def_times[i] < def_times[i - 1]) monotone = false;
    if (opt_times[i] < opt_times[i - 1]) monotone = false;
  }
  fig.check(monotone, "job time non-decreasing with fault rate");
  fig.check(opt_times.back() < def_times.back(),
            "locality-aware stays faster under faults");
  fig.check(opt_retries.back() <= def_retries.back(),
            "locality-aware suffers no more HCA retries than default "
            "(smaller HCA fault surface)");
  fig.check(def_retries.back() > def_retries.front(),
            "higher fault rate means more retries");

  // --- init-time degradation demo ------------------------------------------
  std::printf("\n--- graceful degradation of init-time paths ---\n");
  mpi::JobConfig clean = modes.opt;
  clean.seed = seed;
  mpi::JobConfig degraded = clean;
  degraded.faults.private_ipc_prob = 0.5;
  degraded.faults.shm_segment_fail_prob = 0.1;
  degraded.faults.cma_eperm_prob = 0.25;
  const auto clean_result = mpi::run_job(clean, mixed_traffic);
  const auto degraded_result = mpi::run_job(degraded, mixed_traffic);
  std::printf("clean job: %.3f ms — degraded job: %.3f ms (%.2fx)\n",
              to_millis(clean_result.job_time), to_millis(degraded_result.job_time),
              degraded_result.job_time / clean_result.job_time);
  std::printf("%s", degraded_result.fault_report.summary().c_str());
  fig.check(degraded_result.fault_report.any(),
            "degraded run reports injected faults and fallbacks");
  fig.check(degraded_result.job_time >= clean_result.job_time,
            "degradation costs time, never correctness");
  return fig.finish();
}
