// Figure 8: two-sided point-to-point performance between two containers on a
// single host — (a) latency, (b) bandwidth, (c) bi-directional bandwidth —
// for intra-socket and inter-socket placements, comparing the default
// library (Cont-*-Def), the proposed design (Cont-*-Opt) and native.
//
// Expected shape (paper): Opt improves on Def by up to 79% / 191% / 407%
// (latency / bw / bibw) and sits within a few percent of native (e.g. 1 KiB
// intra-socket latency 2.26 us Def vs 0.47 us Opt vs 0.44 us native).
#include "bench_util.hpp"

#include "apps/osu/microbench.hpp"
#include "obs/report.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

namespace {

enum class Metric { Latency, Bandwidth, BiBandwidth };

double measure(const mpi::JobConfig& config, Metric metric, Bytes size, int iters,
               mpi::JobResult* result = nullptr) {
  apps::osu::PairOptions pair;
  pair.iterations = iters;
  return run_rank0(
      config,
      [&](mpi::Process& p) {
        switch (metric) {
          case Metric::Latency: return apps::osu::pt2pt_latency(p, size, pair);
          case Metric::Bandwidth: return apps::osu::pt2pt_bandwidth(p, size, pair);
          case Metric::BiBandwidth: return apps::osu::pt2pt_bi_bandwidth(p, size, pair);
        }
        return 0.0;
      },
      result);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const auto max_size = static_cast<Bytes>(
      opts.get_int("max-size", static_cast<std::int64_t>(1_MiB), "largest message"));
  const int iters = static_cast<int>(opts.get_int("iters", 8, "iterations per point"));
  const std::uint64_t seed = declare_seed(opts);
  Figure fig(opts, "fig08_pt2pt_two_sided", "1 host x 2 containers x 2 procs", seed);
  const std::string trace_file = opts.get(
      "trace-out", "", "write a Perfetto trace of one observed run to this file");
  if (opts.finish("Figure 8: two-sided pt2pt latency/bw/bibw, Def vs Opt vs Native"))
    return 0;

  fig.banner("Figure 8", "two-sided point-to-point, 2 containers on 1 host",
             "Opt gains up to 79%/191%/407% over Def (lat/bw/bibw); Opt "
             "within a few % of native");

  struct Panel {
    const char* name;
    Metric metric;
  };
  const Panel panels[] = {{"(a) latency (us)", Metric::Latency},
                          {"(b) bandwidth (MB/s)", Metric::Bandwidth},
                          {"(c) bi-directional bandwidth (MB/s)", Metric::BiBandwidth}};
  const container::SocketPolicy placements[] = {
      container::SocketPolicy::SameSocket, container::SocketPolicy::DistinctSockets};
  const char* placement_names[] = {"intra-socket", "inter-socket"};

  double best_lat_gain = 0, best_bw_gain = 0, best_bibw_gain = 0;
  double lat1k_def = 0, lat1k_opt = 0, lat1k_native = 0;

  for (const auto& panel : panels) {
    for (int pl = 0; pl < 2; ++pl) {
      auto modes = make_modes(1, 2, 2, placements[pl]);
      modes.def.seed = modes.opt.seed = modes.native.seed = seed;
      std::printf("-- %s, %s --\n", panel.name, placement_names[pl]);
      Table table({"size", "Cont-Def", "Cont-Opt", "Native", "Opt vs Def"});
      for (const Bytes size : size_sweep(1, max_size)) {
        const double def = measure(modes.def, panel.metric, size, iters);
        const double opt = measure(modes.opt, panel.metric, size, iters);
        const double native = measure(modes.native, panel.metric, size, iters);
        const bool is_lat = panel.metric == Metric::Latency;
        for (const auto& [mode, v] : {std::pair{"def", def}, {"opt", opt},
                                      {"native", native}})
          fig.row(std::string(placement_names[pl]) + "/" + mode +
                      (is_lat ? "/latency"
                              : panel.metric == Metric::Bandwidth ? "/bw" : "/bibw"),
                  size, is_lat ? v : 0.0, is_lat ? 0.0 : v);
        double gain;
        if (panel.metric == Metric::Latency) {
          gain = percent_better(def, opt);
          best_lat_gain = std::max(best_lat_gain, gain);
          if (size == 1_KiB && pl == 0) {
            lat1k_def = def;
            lat1k_opt = opt;
            lat1k_native = native;
          }
        } else {
          gain = (opt - def) / def * 100.0;
          auto& best = panel.metric == Metric::Bandwidth ? best_bw_gain : best_bibw_gain;
          best = std::max(best, gain);
        }
        table.add_row({format_size(size), Table::num(def, 2), Table::num(opt, 2),
                       Table::num(native, 2), Table::num(gain, 0) + "%"});
      }
      table.print(std::cout);
      std::printf("\n");
    }
  }

  std::printf("1 KiB intra-socket latency: Def %.2f us, Opt %.2f us, Native %.2f us "
              "(paper: 2.26 / 0.47 / 0.44)\n",
              lat1k_def, lat1k_opt, lat1k_native);
  std::printf("max gains Opt over Def: latency %.0f%%, bw %.0f%%, bibw %.0f%% "
              "(paper: 79%% / 191%% / 407%%)\n",
              best_lat_gain, best_bw_gain, best_bibw_gain);
  fig.check(best_lat_gain > 50.0, "large latency gain");
  fig.check(best_bw_gain > 100.0, "large bandwidth gain");
  fig.check(best_bibw_gain >= best_bw_gain * 0.8,
            "bi-directional gain at least comparable");
  fig.check(lat1k_opt < lat1k_native * 1.25, "Opt within ~25% of native at 1 KiB");

  // Observability must be free in virtual time: rerun one point with the
  // full obs layer (metrics + spans + instant trace) attached and compare
  // job times. The acceptance bar is <5%; the design gives exactly 0%.
  {
    auto modes = make_modes(1, 2, 2, container::SocketPolicy::SameSocket);
    modes.opt.seed = seed;
    mpi::JobResult plain, observed;
    measure(modes.opt, Metric::Latency, 1_KiB, iters, &plain);
    modes.opt.observe = true;
    modes.opt.record_trace = true;
    measure(modes.opt, Metric::Latency, 1_KiB, iters, &observed);
    const double overhead =
        plain.job_time == 0.0 ? 0.0
                              : (observed.job_time - plain.job_time) / plain.job_time;
    std::printf("observability overhead: %.2f%% virtual time (%zu spans, %zu "
                "metrics)\n",
                overhead * 100.0, observed.spans.size(),
                observed.metrics.counters.size() + observed.metrics.gauges.size() +
                    observed.metrics.histograms.size());
    fig.check(overhead < 0.05, "observability costs <5% virtual time");
    if (!trace_file.empty()) {
      std::ofstream(trace_file, std::ios::binary)
          << obs::to_perfetto(observed.spans, observed.trace);
      std::printf("trace written to %s\n", trace_file.c_str());
    }
  }

  return fig.finish();
}
