// Extension experiment: fabric topology and link contention (src/net).
//
// The paper's testbed hides the switch fabric behind one flat per-pair cost;
// this bench turns on the explicit fat-tree model and checks the three
// qualitative shapes it must produce:
//
//   1. hop sensitivity — the same pt2pt exchange gets slower as the two
//      hosts move from the same edge switch to the same pod to different
//      pods, for every swept arity;
//   2. congestion — piling concurrent streams onto one host pair leaves the
//      aggregate bandwidth roughly flat (the shared uplink is the
//      bottleneck), so per-stream bandwidth collapses ~1/N;
//   3. placement — the TopologyAware placer never loses to LocalityAware on
//      a multi-host job mix once the fabric charges for hop distance and
//      link sharing.
//
// Everything is virtual-time deterministic: the same seed writes a
// byte-identical --json document.
#include "bench_util.hpp"

#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sched/scheduler.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

namespace {

/// One cross-host exchange between physical hosts `src` and `dst` of a
/// `cluster`-host fat-tree; returns the virtual job time.
Micros timed_pair(int arity, int cluster, int dst_host, Bytes bytes,
                  std::uint64_t seed) {
  mpi::JobConfig config;
  config.deployment = container::DeploymentSpec::native_hosts(2, 1);
  config.fabric = net::FabricConfig::parse("fattree");
  config.fabric.arity = arity;
  config.fabric.hosts = cluster;
  config.physical_hosts = {0, dst_host};
  config.seed = seed;
  const auto result = mpi::run_job(config, [&](mpi::Process& p) {
    std::vector<std::uint8_t> buf(bytes);
    if (p.rank() == 0)
      p.world().send(std::span<const std::uint8_t>(buf), 1);
    else
      p.world().recv(std::span<std::uint8_t>(buf), 0);
  });
  return result.job_time;
}

/// `streams` concurrent 4 MiB sends between one host pair; returns the
/// aggregate bandwidth in MB/s.
double aggregate_bw(int streams, std::uint64_t seed) {
  const Bytes bytes = 4_MiB;
  mpi::JobConfig config;
  config.deployment = container::DeploymentSpec::native_hosts(2, streams);
  config.fabric = net::FabricConfig::parse("flat");
  config.seed = seed;
  const auto result = mpi::run_job(config, [&](mpi::Process& p) {
    std::vector<std::uint8_t> buf(bytes);
    const int n = p.size() / 2;
    if (p.rank() < n)
      p.world().send(std::span<const std::uint8_t>(buf), p.rank() + n);
    else
      p.world().recv(std::span<std::uint8_t>(buf), p.rank() - n);
  });
  const double total = static_cast<double>(bytes) * streams;
  return total / result.job_time;  // bytes/us == MB/s
}

/// Job mix for the placement comparison: wide jobs that must span hosts,
/// with message sizes big enough that the fabric model dominates.
std::vector<sched::JobSpec> placement_mix(int jobs, std::uint64_t seed) {
  static const char* kBodies[] = {"ring", "pairs", "allreduce", "alltoall"};
  Xoshiro256 rng(mix64(seed ^ mix64(std::uint64_t{0xfab51c})));
  std::vector<sched::JobSpec> mix;
  Micros t = 0.0;
  for (int i = 0; i < jobs; ++i) {
    sched::JobSpec job;
    job.body = kBodies[static_cast<std::size_t>(i) % std::size(kBodies)];
    // Mixed widths fragment the free-core distribution as jobs drain, which
    // is exactly where emptiest-first host order starts hopping across pods.
    job.ranks = i % 3 == 0 ? 4 : 8 + 4 * static_cast<int>(rng.below(3));
    job.ranks_per_container = 4;
    job.params.message_size = 64_KiB << rng.below(3);  // 64..256 KiB
    job.params.rounds = 2 + static_cast<int>(rng.below(2));
    job.submit_time = t;
    job.est_runtime = millis(50.0);
    if (i >= jobs / 4) t += 5.0 + 5.0 * static_cast<double>(rng.below(3));
    mix.push_back(job);
  }
  return mix;
}

Micros makespan_under(sched::PlacementPolicy policy, int hosts, int jobs,
                      std::uint64_t seed) {
  sched::SchedulerConfig config;
  config.cluster_hosts = hosts;
  config.host_shape = topo::HostShape{2, 4, true};  // 8-core hosts: jobs span
  config.policy = policy;
  config.seed = seed;
  config.fabric = net::FabricConfig::parse("fattree:4");
  sched::Scheduler scheduler(config);
  for (const auto& job : placement_mix(jobs, seed)) scheduler.submit(job);
  scheduler.run();
  return scheduler.metrics().makespan;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int jobs = static_cast<int>(opts.get_int("jobs", 12, "jobs in the placement mix"));
  const std::uint64_t seed = declare_seed(opts);
  Figure fig(opts, "ext_network_contention", "fattree arity sweep + contention", seed);
  if (opts.finish("Extension: fat-tree topology, link contention, SR-IOV VF "
                  "sharing (src/net)"))
    return 0;

  fig.banner("Extension", "network contention on an explicit fat-tree fabric",
             "container HPC clouds share the IB fabric: hop distance, link "
             "contention and SR-IOV VF multiplexing all tax the flat-model "
             "numbers, and topology-aware placement claws the loss back");

  // --- 1. hop sensitivity across arities ------------------------------------
  std::printf("pt2pt 64 KiB exchange vs hop distance (virtual us):\n");
  Table hop_table({"arity", "same edge (2 hops)", "same pod (4 hops)",
                   "cross pod (6 hops)"});
  bool hops_monotone = true;
  for (const int arity : {4, 8}) {
    const int pod = arity * arity / 4;
    const int cluster = arity * arity * arity / 4;
    const Micros edge = timed_pair(arity, cluster, 1, 64_KiB, seed);
    const Micros intra_pod = timed_pair(arity, cluster, arity / 2, 64_KiB, seed);
    const Micros cross_pod = timed_pair(arity, cluster, pod, 64_KiB, seed);
    hops_monotone = hops_monotone && edge < intra_pod && intra_pod < cross_pod;
    hop_table.add_row({std::to_string(arity), Table::num(edge, 3),
                       Table::num(intra_pod, 3), Table::num(cross_pod, 3)});
    const std::string prefix = "k=" + std::to_string(arity) + " ";
    fig.row(prefix + "2hops", 64_KiB, edge, 0.0);
    fig.row(prefix + "4hops", 64_KiB, intra_pod, 0.0);
    fig.row(prefix + "6hops", 64_KiB, cross_pod, 0.0);
  }
  hop_table.print(std::cout);
  fig.check(hops_monotone, "more hops => higher pt2pt latency at every arity");

  // --- 2. congestion: concurrent streams over one host pair -----------------
  std::printf("\nconcurrent 4 MiB streams between one host pair:\n");
  Table cong_table({"streams", "aggregate (MB/s)", "per stream (MB/s)"});
  std::vector<double> agg;
  for (const int streams : {1, 2, 4, 8}) {
    agg.push_back(aggregate_bw(streams, seed));
    cong_table.add_row({std::to_string(streams), Table::num(agg.back(), 1),
                        Table::num(agg.back() / streams, 1)});
    fig.row("streams" + std::to_string(streams), 4_MiB, 0.0, agg.back());
  }
  cong_table.print(std::cout);
  // The uplink is the bottleneck: aggregate stays roughly flat (sublinear in
  // stream count), instead of scaling 8x as the flat model would claim.
  const bool sublinear = agg[3] < 2.0 * agg[0] && agg[1] < 1.5 * agg[0];
  fig.check(sublinear,
            "aggregate bandwidth sublinear in stream count (shared "
            "uplink, not 8 independent pipes)");

  // --- 3. TopologyAware vs LocalityAware placement --------------------------
  std::printf("\nplacement policies on a %d-job multi-host mix (16 hosts, "
              "fattree:4):\n", jobs);
  const Micros locality =
      makespan_under(sched::PlacementPolicy::LocalityAware, 16, jobs, seed);
  const Micros topology =
      makespan_under(sched::PlacementPolicy::TopologyAware, 16, jobs, seed);
  Table place_table({"policy", "makespan (ms)"});
  place_table.add_row({"locality", Table::num(to_millis(locality), 3)});
  place_table.add_row({"topology", Table::num(to_millis(topology), 3)});
  place_table.print(std::cout);
  fig.row("locality_makespan", 0, locality, 0.0);
  fig.row("topology_makespan", 0, topology, 0.0);
  fig.check(topology <= locality * 1.02,
            "TopologyAware makespan <= LocalityAware (within 2%) on "
            "the multi-host mix");

  // --- determinism ----------------------------------------------------------
  const Micros rerun =
      makespan_under(sched::PlacementPolicy::TopologyAware, 16, jobs, seed);
  fig.check(rerun == topology, "congested fat-tree schedule bit-identical across reruns");

  return fig.finish();
}
