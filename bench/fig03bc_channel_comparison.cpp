// Figure 3(b)/(c): point-to-point latency and bandwidth of the three
// communication channels (SHM / CMA / HCA), forced per run, between two
// processes on one host.
//
// Expected shape (paper): SHM best at small sizes (up to ~77% lower latency
// and ~111% higher bandwidth than HCA); CMA overtakes SHM above ~8K; HCA
// (loopback) worst throughout the intra-host range.
#include "bench_util.hpp"

#include "apps/osu/microbench.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const auto max_size = static_cast<Bytes>(
      opts.get_int("max-size", static_cast<std::int64_t>(1_MiB), "largest message"));
  const int iters = static_cast<int>(opts.get_int("iters", 10, "iterations per size"));
  Figure fig(opts, "fig03bc_channel_comparison", "1 host x 2 procs, native");
  if (opts.finish("Figure 3b/3c: forced-channel latency and bandwidth")) return 0;

  fig.banner("Figure 3(b)/(c)", "SHM vs CMA vs HCA channel comparison",
             "SHM beats HCA by up to 77% (latency) / 111% (bandwidth); CMA "
             "overtakes SHM above 8K");

  apps::osu::PairOptions pair;
  pair.iterations = iters;

  auto measure = [&](fabric::ChannelKind channel, Bytes size, bool bandwidth) {
    mpi::JobConfig config;
    // Native 2-proc job on one host; the forced channel overrides selection.
    config.deployment = container::DeploymentSpec::native_hosts(1, 2);
    config.forced_channel = channel;
    const double value = run_rank0(config, [&](mpi::Process& p) {
      return bandwidth ? apps::osu::pt2pt_bandwidth(p, size, pair)
                       : apps::osu::pt2pt_latency(p, size, pair);
    });
    fig.row(std::string(fabric::to_string(channel)) + (bandwidth ? "/bw" : "/latency"),
            size, bandwidth ? 0.0 : value, bandwidth ? value : 0.0);
    return value;
  };

  const auto sizes = size_sweep(1, max_size);

  std::printf("-- (b) latency (us) --\n");
  Table lat({"size", "SHM", "CMA", "HCA"});
  double shm_lat_1k = 0, hca_lat_1k = 0, shm4k = 0, cma4k = 0, shm64k = 0, cma64k = 0;
  for (const Bytes size : sizes) {
    const double shm = measure(fabric::ChannelKind::Shm, size, false);
    const double cma = measure(fabric::ChannelKind::Cma, size, false);
    const double hca = measure(fabric::ChannelKind::Hca, size, false);
    if (size == 1_KiB) {
      shm_lat_1k = shm;
      hca_lat_1k = hca;
    }
    if (size == 4_KiB) {
      shm4k = shm;
      cma4k = cma;
    }
    if (size == 64_KiB) {
      shm64k = shm;
      cma64k = cma;
    }
    lat.add_row({format_size(size), Table::num(shm, 2), Table::num(cma, 2),
                 Table::num(hca, 2)});
  }
  lat.print(std::cout);

  std::printf("\n-- (c) bandwidth (MB/s) --\n");
  Table bw({"size", "SHM", "CMA", "HCA"});
  double best_gain = 0.0;
  for (const Bytes size : sizes) {
    const double shm = measure(fabric::ChannelKind::Shm, size, true);
    const double cma = measure(fabric::ChannelKind::Cma, size, true);
    const double hca = measure(fabric::ChannelKind::Hca, size, true);
    best_gain = std::max(best_gain, (shm - hca) / hca * 100.0);
    bw.add_row({format_size(size), Table::num(shm, 1), Table::num(cma, 1),
                Table::num(hca, 1)});
  }
  bw.print(std::cout);

  std::printf("\nSHM over HCA: latency %.0f%% better at 1K, bandwidth up to "
              "%.0f%% better\n",
              percent_better(hca_lat_1k, shm_lat_1k), best_gain);
  fig.check(shm_lat_1k < hca_lat_1k * 0.5, "SHM latency far below HCA loopback");
  fig.check(shm4k < cma4k, "SHM still wins below 8K");
  fig.check(cma64k < shm64k, "CMA wins above 8K");
  fig.check(best_gain > 60.0, "SHM bandwidth advantage over HCA is large");
  return fig.finish();
}
