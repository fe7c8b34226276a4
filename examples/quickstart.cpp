// Quickstart: the smallest complete cbmpi program.
//
// Launches an 8-rank MPI job in two containers on one simulated host, runs
// point-to-point and collective traffic under the locality-aware runtime,
// and prints what happened — including which channels the traffic used.
//
//   $ ./quickstart
#include <cstdio>
#include <numeric>

#include "mpi/runtime.hpp"

int main() {
  using namespace cbmpi;

  // 1. Describe the deployment: 2 containers x 4 processes on one host,
  //    Docker-style defaults (--privileged --ipc=host --pid=host).
  mpi::JobConfig config;
  config.deployment = container::DeploymentSpec::containers(
      /*hosts=*/1, /*containers_per_host=*/2, /*procs_per_host=*/8);

  // 2. Pick the runtime: ContainerAware is the paper's proposed design;
  //    HostnameBased reproduces default MVAPICH2 behaviour.
  config.policy = fabric::LocalityPolicy::ContainerAware;

  // 3. Run the job. The lambda is the "MPI program"; every rank executes it
  //    as its own fiber with its own virtual clock.
  const auto result = mpi::run_job(config, [](mpi::Process& p) {
    auto& world = p.world();

    // Point-to-point ring: pass a token once around.
    int token = p.rank() == 0 ? 42 : 0;
    const int next = (p.rank() + 1) % p.size();
    const int prev = (p.rank() + p.size() - 1) % p.size();
    if (p.rank() == 0) {
      world.send_value(token, next);
      token = world.recv_value<int>(prev);
    } else {
      token = world.recv_value<int>(prev);
      world.send_value(token, next);
    }

    // A compute phase (virtual time, identical on every rank).
    p.compute(10'000.0);

    // Collectives.
    const auto sum = world.allreduce_value<std::int64_t>(p.rank(), mpi::ReduceOp::Sum);
    std::vector<int> everyone(static_cast<std::size_t>(p.size()));
    const int mine = p.rank() * p.rank();
    world.allgather(std::span<const int>(&mine, 1), std::span<int>(everyone));

    if (p.rank() == 0) {
      std::printf("ring token arrived: %d\n", token);
      std::printf("allreduce sum of ranks: %lld\n", static_cast<long long>(sum));
      std::printf("allgather of rank^2:");
      for (const int v : everyone) std::printf(" %d", v);
      std::printf("\n");
      std::printf("virtual time so far: %.2f us\n", p.now());
    }
  });

  // 4. Inspect the job result: virtual makespan and channel usage.
  std::printf("\njob completed in %.2f us of virtual time\n", result.job_time);
  std::printf("channel transfer operations: SHM=%llu CMA=%llu HCA=%llu\n",
              static_cast<unsigned long long>(
                  result.profile.total.channel_ops(fabric::ChannelKind::Shm)),
              static_cast<unsigned long long>(
                  result.profile.total.channel_ops(fabric::ChannelKind::Cma)),
              static_cast<unsigned long long>(
                  result.profile.total.channel_ops(fabric::ChannelKind::Hca)));
  std::printf("(all intra-host: the locality detector kept everything off the "
              "HCA loopback)\n");
  return 0;
}
