// Figure 9: one-sided point-to-point performance between two containers on a
// single host — put latency, get latency, put bandwidth, get bandwidth (the
// paper's six panels cover intra-/inter-socket variants of these).
//
// Expected shape (paper): up to 95% latency and ~9X bandwidth improvement of
// Opt over Def; e.g. put bandwidth at 4 B: 15.73 MB/s (Def) vs 147.99 MB/s
// (Opt) vs 155.47 MB/s (native).
#include "bench_util.hpp"

#include "apps/osu/microbench.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

namespace {

struct Panel {
  const char* name;
  apps::osu::OneSidedOp op;
  bool bandwidth;
};

/// One point, recorded as a row labelled "<put|get>/<mode>/<latency|bw>".
double measure(Figure& fig, const mpi::JobConfig& config, const char* mode,
               const Panel& panel, Bytes size, int iters) {
  apps::osu::PairOptions pair;
  pair.iterations = iters;
  const double value = run_rank0(config, [&](mpi::Process& p) {
    return panel.bandwidth ? apps::osu::one_sided_bandwidth(p, panel.op, size, pair)
                           : apps::osu::one_sided_latency(p, panel.op, size, pair);
  });
  fig.row(std::string(panel.op == apps::osu::OneSidedOp::Put ? "put/" : "get/") + mode +
              (panel.bandwidth ? "/bw" : "/latency"),
          size, panel.bandwidth ? 0.0 : value, panel.bandwidth ? value : 0.0);
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const auto max_size = static_cast<Bytes>(
      opts.get_int("max-size", static_cast<std::int64_t>(256_KiB), "largest message"));
  const int iters = static_cast<int>(opts.get_int("iters", 8, "iterations per point"));
  const bool inter_socket = opts.get_flag("inter-socket", "use inter-socket placement");
  Figure fig(opts, "fig09_pt2pt_one_sided",
             std::string("1 host x 2 containers x 2 procs, ") +
                 (inter_socket ? "inter-socket" : "intra-socket"));
  if (opts.finish("Figure 9: one-sided put/get latency and bandwidth")) return 0;

  fig.banner("Figure 9", "one-sided point-to-point, 2 containers on 1 host",
             "up to 95% latency and 9X bandwidth gain; put bw at 4B: 15.73 "
             "(Def) vs 147.99 (Opt) vs 155.47 (native) MB/s");

  const auto modes =
      make_modes(1, 2, 2,
                 inter_socket ? container::SocketPolicy::DistinctSockets
                              : container::SocketPolicy::SameSocket);

  double best_lat_gain = 0.0, best_bw_ratio = 0.0;
  double putbw4_def = 0, putbw4_opt = 0, putbw4_native = 0;

  const Panel panels[] = {
      {"put latency (us)", apps::osu::OneSidedOp::Put, false},
      {"get latency (us)", apps::osu::OneSidedOp::Get, false},
      {"put bandwidth (MB/s)", apps::osu::OneSidedOp::Put, true},
      {"get bandwidth (MB/s)", apps::osu::OneSidedOp::Get, true},
  };

  for (const auto& panel : panels) {
    std::printf("-- %s --\n", panel.name);
    Table table({"size", "Cont-Def", "Cont-Opt", "Native", "Opt vs Def"});
    for (const Bytes size : size_sweep(4, max_size)) {
      const double def = measure(fig, modes.def, "def", panel, size, iters);
      const double opt = measure(fig, modes.opt, "opt", panel, size, iters);
      const double native = measure(fig, modes.native, "native", panel, size, iters);
      std::string gain;
      if (panel.bandwidth) {
        const double ratio = opt / def;
        best_bw_ratio = std::max(best_bw_ratio, ratio);
        gain = Table::num(ratio, 1) + "x";
        if (size == 4 && panel.op == apps::osu::OneSidedOp::Put) {
          putbw4_def = def;
          putbw4_opt = opt;
          putbw4_native = native;
        }
      } else {
        const double g = percent_better(def, opt);
        best_lat_gain = std::max(best_lat_gain, g);
        gain = Table::num(g, 0) + "%";
      }
      table.add_row({format_size(size), Table::num(def, 2), Table::num(opt, 2),
                     Table::num(native, 2), gain});
    }
    table.print(std::cout);
    std::printf("\n");
  }

  std::printf("put bandwidth at 4 B: Def %.2f, Opt %.2f, Native %.2f MB/s "
              "(paper: 15.73 / 147.99 / 155.47)\n",
              putbw4_def, putbw4_opt, putbw4_native);
  std::printf("max gains: latency %.0f%% (paper: up to 95%%), bandwidth %.1fx "
              "(paper: up to 9X)\n",
              best_lat_gain, best_bw_ratio);
  fig.check(best_lat_gain > 50.0, "large one-sided latency gain");
  fig.check(best_bw_ratio > 5.0, "multi-X one-sided bandwidth gain");
  fig.check(putbw4_opt > putbw4_def * 5.0 && putbw4_opt < putbw4_native * 1.05,
            "4B put bandwidth: Opt ~9x Def and close to native");
  return fig.finish();
}
