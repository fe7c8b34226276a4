// Ablation: collective algorithm choices.
//
//   (a) two-level (leader-based) vs flat algorithms across containers
//   (b) binomial-tree vs van-de-Geijn (scatter + ring allgather) broadcast
//   (c) recursive-doubling vs Rabenseifner (reduce-scatter + allgather)
//       allreduce
//   (d) engine sweep: every algorithm of every collective across
//       {1, 2, 4} containers per host, checked against the shipped
//       container tuning table (does the default pick the winner?)
//
// These are the design decisions DESIGN.md calls out; the bench shows each
// one earns its keep in its regime (hierarchy for multi-container hosts,
// bandwidth algorithms for large payloads) — mirroring how MVAPICH2 switches
// algorithms by message size.
//
// With --autotune the bench runs only the (d) sweep and emits the winners as
// a ready-to-use tuning file (the same format `cbmpirun --tuning=` parses),
// so a new machine profile can regenerate its own table:
//
//   ablation_collectives --autotune > my.tuning
//   cbmpirun --app=cg --tuning=my.tuning
#include "bench_util.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "apps/osu/microbench.hpp"
#include "mpi/coll/tuning_table.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

namespace {

/// OSU collective latency, recorded as a row labelled "<label>/<collective>".
Micros collective_time(Figure& fig, const std::string& label,
                       const mpi::JobConfig& config, apps::osu::Collective coll,
                       Bytes size, int iters) {
  apps::osu::PairOptions osu_opts;
  osu_opts.iterations = iters;
  osu_opts.warmup = 1;
  const Micros value = run_rank0(config, [&](mpi::Process& p) {
    return apps::osu::collective_latency(p, coll, size, osu_opts);
  });
  fig.row(label + "/" + apps::osu::to_string(coll), size, value, 0.0);
  return value;
}

/// Times one engine collective (OSU-style: aligned start, max across ranks,
/// averaged over iterations). `size` is the engine's tuning key for the
/// collective: payload bytes for bcast/reduce/allreduce, per-rank block for
/// allgather, per-peer block for alltoall, ignored for barrier.
Micros engine_collective_time(const mpi::JobConfig& config, coll::Coll c, Bytes size,
                              int iters) {
  return run_rank0(config, [&](mpi::Process& p) {
    auto& comm = p.world();
    const auto n = static_cast<std::size_t>(comm.size());
    const Bytes per_rank = std::max<Bytes>(size, 1);
    std::vector<std::byte> mine(per_rank);
    std::vector<std::byte> all(per_rank * n);
    std::vector<std::byte> send_all(per_rank * n);
    std::vector<std::int64_t> red_in(std::max<Bytes>(size / sizeof(std::int64_t), 1));
    std::vector<std::int64_t> red_out(red_in.size());
    auto one = [&] {
      switch (c) {
        case coll::Coll::Barrier:
          comm.barrier();
          break;
        case coll::Coll::Bcast:
          comm.bcast(std::span<std::byte>(mine), 0);
          break;
        case coll::Coll::Reduce:
          comm.reduce(std::span<const std::int64_t>(red_in),
                      std::span<std::int64_t>(red_out), mpi::ReduceOp::Sum, 0);
          break;
        case coll::Coll::Allreduce:
          comm.allreduce(std::span<const std::int64_t>(red_in),
                         std::span<std::int64_t>(red_out), mpi::ReduceOp::Sum);
          break;
        case coll::Coll::Allgather:
          comm.allgather(std::span<const std::byte>(mine), std::span<std::byte>(all));
          break;
        case coll::Coll::Alltoall:
          comm.alltoall(std::span<const std::byte>(send_all),
                        std::span<std::byte>(all));
          break;
        case coll::Coll::Count_:
          break;
      }
    };
    for (int i = 0; i < 2; ++i) one();
    Micros total = 0.0;
    for (int i = 0; i < iters; ++i) {
      p.sync_time();
      const Micros start = p.now();
      one();
      total += comm.allreduce_value(p.now() - start, mpi::ReduceOp::Max);
    }
    return total / static_cast<double>(iters);
  });
}

struct SweepPoint {
  coll::Coll coll;
  Bytes size;  ///< engine tuning key (0 for barrier)
};

/// The (collective, size) grid for the (d) sweep and --autotune.
std::vector<SweepPoint> sweep_points() {
  std::vector<SweepPoint> points{{coll::Coll::Barrier, 0}};
  for (const auto c : {coll::Coll::Bcast, coll::Coll::Reduce, coll::Coll::Allreduce,
                       coll::Coll::Allgather, coll::Coll::Alltoall}) {
    for (const Bytes size : {1_KiB, 128_KiB}) points.push_back({c, size});
  }
  return points;
}

/// Sweeps every algorithm of every collective at every containers-per-host
/// shape and checks that the shipped container table picks the winner
/// (within `tolerance` of the best measured time). With `emit_table` the
/// measured winners go to stdout in tuning-file format and everything
/// human-readable moves to stderr, so `--autotune > my.tuning` yields a file
/// cbmpirun can parse as-is.
void engine_sweep(Figure& fig, int hosts, int procs, int iters, bool emit_table) {
  std::FILE* info = emit_table ? stderr : stdout;
  const double tolerance = 1.10;
  Table table({"cph", "collective", "size", "winner", "best (us)", "shipped",
               "shipped (us)", "spread"});
  coll::TuningTable best_of;
  double max_spread = 1.0;
  bool shipped_ok = true;
  for (const int cph : {1, 2, 4}) {
    mpi::JobConfig base;
    base.deployment = container::DeploymentSpec::containers(hosts, cph, procs);
    base.policy = fabric::LocalityPolicy::ContainerAware;
    const int ranks = base.deployment.total_ranks();
    const auto shipped_table = coll::TuningTable::container_defaults();
    for (const SweepPoint& point : sweep_points()) {
      std::map<coll::Algo, Micros> times;
      for (const coll::Algo algo : coll::algorithms_for(point.coll)) {
        auto config = base;
        config.coll_tuning.add({.coll = point.coll, .algo = algo});
        times[algo] = engine_collective_time(config, point.coll, point.size, iters);
        fig.row("d/cph=" + std::to_string(cph) + "/" + to_string(point.coll) + "/" +
                    to_string(algo),
                point.size, times[algo], 0.0);
      }
      const auto best = std::min_element(
          times.begin(), times.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      const auto worst = std::max_element(
          times.begin(), times.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      max_spread = std::max(max_spread, worst->second / best->second);
      // What the shipped defaults would run at this point (hierarchy is
      // available in these deployments: every host runs several ranks).
      const coll::Algo shipped = shipped_table.select(
          point.coll, point.size, ranks, cph, /*two_level=*/true);
      const Micros shipped_time = times.at(shipped);
      shipped_ok = shipped_ok && shipped_time <= best->second * tolerance;
      table.add_row({std::to_string(cph), to_string(point.coll),
                     point.coll == coll::Coll::Barrier ? "-" : format_size(point.size),
                     to_string(best->first), Table::num(best->second, 1),
                     to_string(shipped), Table::num(shipped_time, 1),
                     Table::num(worst->second / best->second, 2) + "x"});
      coll::TuningEntry entry;
      entry.coll = point.coll;
      entry.min_cph = entry.max_cph = cph;
      entry.min_size = entry.max_size = point.size;
      entry.algo = best->first;
      best_of.add(entry);
    }
  }
  if (emit_table) {
    std::ostringstream rendered;
    table.print(rendered);
    std::fputs(rendered.str().c_str(), info);
    std::printf("# best-of table (feed back via cbmpirun --tuning=<file>):\n%s",
                best_of.serialize().c_str());
  } else {
    table.print(std::cout);
  }
  fig.check(max_spread > 1.10, "algorithms measurably apart somewhere (spread > 1.10x)");
  fig.check(shipped_ok,
            "shipped container table picks the winner at every swept "
            "point (within 1.10x)");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int hosts = static_cast<int>(opts.get_int("hosts", 8, "cluster hosts"));
  const int iters = static_cast<int>(opts.get_int("iters", 3, "iterations"));
  const int sweep_hosts = static_cast<int>(
      opts.get_int("sweep-hosts", 4, "hosts for the (d) engine sweep"));
  const int sweep_procs = static_cast<int>(
      opts.get_int("sweep-procs", 8, "procs per host for the (d) engine sweep"));
  const bool autotune = opts.get_flag(
      "autotune", "run only the engine sweep and emit a best-of tuning file");
  Figure fig(opts, "ablation_collectives",
             std::to_string(hosts) + " hosts; (d) " + std::to_string(sweep_hosts) +
                 " hosts x " + std::to_string(sweep_procs) + " procs");
  if (opts.finish("Ablation: collective algorithm choices")) return 0;

  if (autotune) {
    fig.print_to(stderr);
    std::fprintf(stderr, "=== Autotune — per-size-class algorithm sweep ===\n"
                         "(progress and tables on stderr; the tuning file on "
                         "stdout)\n\n");
    engine_sweep(fig, sweep_hosts, sweep_procs, iters, /*emit_table=*/true);
    return fig.finish();
  }

  // ---- (a) two-level vs flat ------------------------------------------------
  // An honest nuance: with block-contiguous rank placement, flat recursive
  // doubling / ring algorithms are already locality-friendly (the low-order
  // exchange rounds stay intra-host), so composing the two-level local phase
  // from the same pt2pt primitives cannot beat them outright. Real MVAPICH2's
  // two-level gains come from dedicated shared-memory collective primitives
  // in the local phase. What this repo reproduces faithfully is the paper's
  // actual comparison — the locality *view* (Def vs Opt in Fig. 10), where
  // both modes run identical algorithms. This ablation documents that the
  // topology term is second-order next to the channel term.
  fig.banner("Ablation (a)", "two-level vs flat collectives (locality view fixed)",
             "channel selection, not collective topology, carries the gains");
  {
    mpi::JobConfig base;
    base.deployment = container::DeploymentSpec::containers(hosts, 4, 8);
    base.policy = fabric::LocalityPolicy::ContainerAware;
    // Pin the hierarchy explicitly: the shipped table picks flat algorithms
    // for some of these points, and this section is about the hierarchy.
    for (const auto c : {coll::Coll::Bcast, coll::Coll::Allreduce,
                         coll::Coll::Allgather})
      base.coll_tuning.add({.coll = c, .algo = coll::Algo::TwoLevel});
    auto flat = base;
    flat.coll_tuning = base.coll_tuning.flat();  // two_level rows dropped

    Table table({"collective @ 1K", "flat (us)", "two-level (us)", "delta"});
    double worst_ratio = 1.0;
    for (auto coll : {apps::osu::Collective::Bcast, apps::osu::Collective::Allreduce,
                      apps::osu::Collective::Allgather}) {
      const Micros flat_time = collective_time(fig, "a/flat", flat, coll, 1_KiB, iters);
      const Micros two_level_time =
          collective_time(fig, "a/two-level", base, coll, 1_KiB, iters);
      worst_ratio = std::max(worst_ratio, two_level_time / flat_time);
      table.add_row({apps::osu::to_string(coll), Table::num(flat_time, 1),
                     Table::num(two_level_time, 1),
                     Table::num(percent_better(flat_time, two_level_time), 0) + "%"});
    }
    table.print(std::cout);
    // The channel term: the same collectives, Def vs Opt policy (two-level on).
    auto def = base;
    def.policy = fabric::LocalityPolicy::HostnameBased;
    const Micros def_ag = collective_time(
        fig, "a/def", def, apps::osu::Collective::Allgather, 1_KiB, iters);
    const Micros opt_ag = collective_time(
        fig, "a/opt", base, apps::osu::Collective::Allgather, 1_KiB, iters);
    std::printf("channel term (allgather @1K, Def vs Opt, both two-level): "
                "%.1f vs %.1f us\n", def_ag, opt_ag);
    fig.check(opt_ag < def_ag * 0.8, "locality view dominates (channel term large)");
    fig.check(worst_ratio < 2.0, "topology term is second-order (within 2x either way)");
  }

  // ---- (b) bcast: binomial vs van de Geijn ----------------------------------
  std::printf("\n");
  fig.banner("Ablation (b)", "broadcast algorithm vs payload size",
             "binomial wins small, scatter+allgather wins large");
  {
    mpi::JobConfig tree;
    tree.deployment = container::DeploymentSpec::native_hosts(hosts, 4);
    tree.coll_tuning.add({.coll = coll::Coll::Bcast, .algo = coll::Algo::Binomial});
    auto ring = tree;
    ring.coll_tuning.add({.coll = coll::Coll::Bcast, .algo = coll::Algo::VanDeGeijn});

    Table table({"size", "binomial (us)", "scatter+allgather (us)", "winner"});
    bool small_tree = false, large_ring = false;
    for (const Bytes size : {1_KiB, 16_KiB, 128_KiB, 1_MiB}) {
      const Micros tree_time = collective_time(
          fig, "b/binomial", tree, apps::osu::Collective::Bcast, size, iters);
      const Micros ring_time = collective_time(
          fig, "b/scatter+allgather", ring, apps::osu::Collective::Bcast, size, iters);
      if (size == 1_KiB) small_tree = tree_time < ring_time;
      if (size == 1_MiB) large_ring = ring_time < tree_time;
      table.add_row({format_size(size), Table::num(tree_time, 1),
                     Table::num(ring_time, 1),
                     tree_time < ring_time ? "binomial" : "scatter+allgather"});
    }
    table.print(std::cout);
    fig.check(small_tree, "binomial wins at 1K");
    fig.check(large_ring, "scatter+allgather wins at 1M");
  }

  // ---- (c) allreduce: recursive doubling vs Rabenseifner ----------------------
  std::printf("\n");
  fig.banner("Ablation (c)", "allreduce algorithm vs payload size",
             "recursive doubling wins small, Rabenseifner wins large");
  {
    mpi::JobConfig recdbl;
    recdbl.deployment = container::DeploymentSpec::native_hosts(hosts, 4);
    recdbl.coll_tuning.add(
        {.coll = coll::Coll::Allreduce, .algo = coll::Algo::RecursiveDoubling});
    auto raben = recdbl;
    raben.coll_tuning.add(
        {.coll = coll::Coll::Allreduce, .algo = coll::Algo::Rabenseifner});

    Table table({"size", "rec-doubling (us)", "Rabenseifner (us)", "winner"});
    bool small_recdbl = false, large_raben = false;
    for (const Bytes size : {1_KiB, 16_KiB, 128_KiB, 1_MiB}) {
      const Micros recdbl_time = collective_time(
          fig, "c/rec-doubling", recdbl, apps::osu::Collective::Allreduce, size, iters);
      const Micros raben_time = collective_time(
          fig, "c/rabenseifner", raben, apps::osu::Collective::Allreduce, size, iters);
      if (size == 1_KiB) small_recdbl = recdbl_time < raben_time;
      if (size == 1_MiB) large_raben = raben_time < recdbl_time;
      table.add_row({format_size(size), Table::num(recdbl_time, 1),
                     Table::num(raben_time, 1),
                     recdbl_time < raben_time ? "rec-doubling" : "Rabenseifner"});
    }
    table.print(std::cout);
    fig.check(small_recdbl, "recursive doubling wins at 1K");
    fig.check(large_raben, "Rabenseifner wins at 1M");
  }

  // ---- (d) engine sweep: every algorithm everywhere ---------------------------
  std::printf("\n");
  fig.banner("Ablation (d)", "engine sweep across containers-per-host",
             "shipped container tuning table picks the measured winner");
  engine_sweep(fig, sweep_hosts, sweep_procs, iters, /*emit_table=*/false);
  return fig.finish();
}
