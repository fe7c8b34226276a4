// Figure 10: collective performance (Bcast, Allreduce, Allgather, Alltoall)
// with containers spread evenly over the cluster — the paper uses 256
// processes in 64 containers on 16 hosts (4 containers x 4 procs per host).
// Defaults here are scaled to 64 processes (16 hosts x 4) for wall-clock
// reasons; use --procs-per-host 16 to reproduce the full 256.
//
// Expected shape (paper): Opt improves on Def by up to 59% (bcast), 64%
// (allreduce), 86% (allgather), 28% (alltoall), and stays within ~9% of
// native. Alltoall benefits least (no hierarchical variant, only channel
// gains).
#include "bench_util.hpp"

#include "apps/osu/microbench.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int hosts = static_cast<int>(opts.get_int("hosts", 16, "cluster hosts"));
  const int containers = static_cast<int>(
      opts.get_int("containers-per-host", 4, "containers per host"));
  const int procs = static_cast<int>(
      opts.get_int("procs-per-host", 4, "processes per host (paper: 16)"));
  const auto max_size = static_cast<Bytes>(
      opts.get_int("max-size", static_cast<std::int64_t>(16_KiB), "largest message"));
  const int iters = static_cast<int>(opts.get_int("iters", 3, "iterations per point"));
  const bool flat = opts.get_flag("flat", "disable two-level collectives (ablation)");
  Figure fig(opts, "fig10_collectives",
             std::to_string(hosts) + " hosts x " + std::to_string(containers) +
                 " containers x " + std::to_string(procs) + " procs" +
                 (flat ? ", flat" : ""));
  if (opts.finish("Figure 10: collective latency, Def vs Opt vs Native")) return 0;

  fig.banner("Figure 10", "collectives across containers on the cluster",
             "Opt gains up to 59%/64%/86%/28% for bcast/allreduce/allgather/"
             "alltoall; <=9% overhead vs native");

  auto modes = make_modes(hosts, containers, procs);
  if (flat)
    for (auto* mode : {&modes.def, &modes.opt, &modes.native})
      mode->coll_tuning = mode->coll_tuning.flat();

  auto measure = [&](const mpi::JobConfig& config, const char* mode,
                     apps::osu::Collective coll, Bytes size) {
    apps::osu::PairOptions pair;
    pair.iterations = iters;
    pair.warmup = 1;
    const double value = run_rank0(config, [&](mpi::Process& p) {
      return apps::osu::collective_latency(p, coll, size, pair);
    });
    fig.row(std::string(apps::osu::to_string(coll)) + "/" + mode, size, value, 0.0);
    return value;
  };

  std::map<apps::osu::Collective, double> best_gain;
  std::map<apps::osu::Collective, double> worst_overhead;

  for (const auto coll :
       {apps::osu::Collective::Bcast, apps::osu::Collective::Allreduce,
        apps::osu::Collective::Allgather, apps::osu::Collective::Alltoall}) {
    std::printf("-- %s latency (us), %d ranks --\n", apps::osu::to_string(coll),
                hosts * procs);
    Table table({"size", "Cont-Def", "Cont-Opt", "Native", "Opt vs Def",
                 "Opt vs Native"});
    for (const Bytes size : size_sweep(4, max_size)) {
      const double def = measure(modes.def, "def", coll, size);
      const double opt = measure(modes.opt, "opt", coll, size);
      const double native = measure(modes.native, "native", coll, size);
      const double gain = percent_better(def, opt);
      const double overhead = (opt - native) / native * 100.0;
      best_gain[coll] = std::max(best_gain[coll], gain);
      worst_overhead[coll] = std::max(worst_overhead[coll], overhead);
      table.add_row({format_size(size), Table::num(def, 1), Table::num(opt, 1),
                     Table::num(native, 1), Table::num(gain, 0) + "%",
                     Table::num(overhead, 0) + "%"});
    }
    table.print(std::cout);
    std::printf("\n");
  }

  std::printf("max Opt-vs-Def gains: bcast %.0f%%, allreduce %.0f%%, allgather "
              "%.0f%%, alltoall %.0f%% (paper: 59/64/86/28)\n",
              best_gain[apps::osu::Collective::Bcast],
              best_gain[apps::osu::Collective::Allreduce],
              best_gain[apps::osu::Collective::Allgather],
              best_gain[apps::osu::Collective::Alltoall]);
  for (const auto coll :
       {apps::osu::Collective::Bcast, apps::osu::Collective::Allreduce,
        apps::osu::Collective::Allgather, apps::osu::Collective::Alltoall}) {
    // Alltoall gains only through channel selection (no hierarchical
    // variant), and most of its traffic is inter-host — a small but positive
    // gain is the expected shape.
    const double floor = coll == apps::osu::Collective::Alltoall ? 4.0 : 15.0;
    fig.check(best_gain[coll] > floor,
              std::string(apps::osu::to_string(coll)) +
                  " shows a clear Opt-over-Def gain");
  }
  fig.check(best_gain[apps::osu::Collective::Alltoall] <=
                best_gain[apps::osu::Collective::Allgather],
            "alltoall benefits least (matches paper ordering)");
  return fig.finish();
}
