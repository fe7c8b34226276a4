// Extension experiment (paper Sec. II background + refs [27]-[29]):
// container-based vs hypervisor-based virtualization for the same MPI
// workload. Containers with the locality-aware runtime should land closest
// to native; VMs pay the SR-IOV VF overhead inter-host and — without
// IVSHMEM — lose shared memory intra-host entirely. IVSHMEM (the
// MVAPICH2-Virt inter-VM shared-memory device) recovers most of the
// intra-host loss but can never enable CMA across guest kernels.
#include "bench_util.hpp"

#include "apps/graph500/bfs.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int scale = static_cast<int>(opts.get_int("scale", 13, "Graph500 scale"));
  const int procs = static_cast<int>(opts.get_int("procs", 16, "procs per host"));
  Figure fig(opts, "ext_virtualization_comparison",
             "1 host x " + std::to_string(procs) + " procs, scale " +
                 std::to_string(scale));
  if (opts.finish("Extension: containers vs virtual machines")) return 0;

  fig.banner("Extension", "container vs hypervisor virtualization",
             "containers (locality-aware) ~ native; VMs pay SR-IOV + lose "
             "CMA; IVSHMEM recovers the SHM channel only");

  // Every split host runs the locality-aware policy; Native keeps the default.
  using container::DeploymentSpec;
  const std::pair<std::string, DeploymentSpec> scenarios[] = {
      {"Native", DeploymentSpec::native_hosts(1, procs)},
      {"4-Containers (aware)", DeploymentSpec::containers(1, 4, procs)},
      {"4-VMs (SR-IOV)", DeploymentSpec::virtual_machines(1, 4, procs, false)},
      {"4-VMs + IVSHMEM", DeploymentSpec::virtual_machines(1, 4, procs, true)}};

  const apps::graph500::EdgeListParams params{scale, 16, 1};
  const auto roots = apps::graph500::choose_roots(params, 2);

  Table table({"scenario", "1K latency (us)", "BFS (ms)", "SHM ops", "CMA ops",
               "HCA ops"});
  std::map<std::string, double> bfs_times;
  for (const auto& [name, deployment] : scenarios) {
    mpi::JobConfig config;
    config.deployment = deployment;
    if (!deployment.native()) config.policy = fabric::LocalityPolicy::ContainerAware;
    // Ping-pong latency between the first and last rank on the host — these
    // live in *different* containers/VMs whenever the host is split.
    const Micros latency = run_rank0(config, [&](mpi::Process& p) {
      const int peer = p.size() - 1;
      constexpr int kIters = 20;
      std::vector<std::uint8_t> buf(1_KiB);
      p.sync_time();
      const Micros start = p.now();
      for (int i = 0; i < kIters; ++i) {
        if (p.rank() == 0) {
          p.world().send(std::span<const std::uint8_t>(buf), peer, 5);
          p.world().recv(std::span<std::uint8_t>(buf), peer, 5);
        } else if (p.rank() == peer) {
          p.world().recv(std::span<std::uint8_t>(buf), 0, 5);
          p.world().send(std::span<const std::uint8_t>(buf), 0, 5);
        }
      }
      return (p.now() - start) / (2.0 * kIters);
    });

    mpi::JobResult result;
    const Micros bfs = run_rank0(
        config,
        [&](mpi::Process& p) {
          const auto graph = apps::graph500::build_graph(p, params);
          Micros sum = 0.0;
          for (const auto root : roots)
            sum += apps::graph500::run_bfs(p, graph, root).time;
          return sum / static_cast<double>(roots.size());
        },
        &result);
    bfs_times[name] = bfs;
    const auto& ops = result.profile.total;
    table.add_row({name, Table::num(latency, 2), Table::num(to_millis(bfs), 3),
                   std::to_string(ops.channel_ops(fabric::ChannelKind::Shm)),
                   std::to_string(ops.channel_ops(fabric::ChannelKind::Cma)),
                   std::to_string(ops.channel_ops(fabric::ChannelKind::Hca))});
    fig.row(name + "/latency", 1_KiB, latency, 0.0);
    fig.row(name + "/bfs", 0, bfs, 0.0);
  }
  table.print(std::cout);

  const double native = bfs_times["Native"];
  fig.check(bfs_times["4-Containers (aware)"] < native * 1.15,
            "aware containers within ~15% of native");
  fig.check(bfs_times["4-VMs (SR-IOV)"] > bfs_times["4-Containers (aware)"],
            "bare VMs slower than aware containers");
  fig.check(bfs_times["4-VMs + IVSHMEM"] < bfs_times["4-VMs (SR-IOV)"],
            "IVSHMEM recovers part of the VM loss");
  fig.check(
      bfs_times["4-VMs + IVSHMEM"] > bfs_times["4-Containers (aware)"] * 0.90,
      "IVSHMEM VMs do not beat containers meaningfully (no CMA across guests)");
  return fig.finish();
}
