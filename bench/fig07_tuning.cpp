// Figure 7: communication channel parameter tuning for container
// environments.
//   (a) SMP_EAGER_SIZE sweep            — paper optimum: 8 K
//   (b) SMPI_LENGTH_QUEUE sweep         — paper optimum: 128 K
//   (c) MV2_IBA_EAGER_THRESHOLD sweep   — paper optimum: 17 K
//
// (a)/(b) run between two co-resident containers with the locality-aware
// runtime (bandwidth + message rate, as in the paper); (c) runs between two
// hosts (bandwidth around the threshold region).
//
// The sweeps are centred on — and the shape checks compare against — the
// *runtime's* shipped defaults (`fabric::TuningParams{}`), not private
// copies of the paper constants, so this figure cannot silently drift from
// what the library actually ships.
#include "bench_util.hpp"

#include "apps/osu/microbench.hpp"
#include "fabric/tuning.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

namespace {

/// One OSU pair run at `size`, recorded as a row under `label`: the
/// bandwidth in MB/s, or with `message_rate` the message rate in msg/s.
double run_pair(Figure& fig, const std::string& label, const mpi::JobConfig& config,
                Bytes size, bool message_rate, int iters) {
  apps::osu::PairOptions pair;
  pair.iterations = iters;
  const double value = run_rank0(config, [&](mpi::Process& p) {
    return message_rate ? apps::osu::pt2pt_message_rate(p, size, pair)
                        : apps::osu::pt2pt_bandwidth(p, size, pair);
  });
  fig.row(label + (message_rate ? "/mr" : "/bw"), size,
          {{message_rate ? "msg_per_s" : "bandwidth_mbps", value}});
  return value;
}

mpi::JobConfig intra_host_config() {
  mpi::JobConfig config;
  config.deployment = container::DeploymentSpec::containers(1, 2, 2);
  config.policy = fabric::LocalityPolicy::ContainerAware;
  return config;
}

mpi::JobConfig inter_host_config() {
  mpi::JobConfig config;
  config.deployment = container::DeploymentSpec::containers(2, 1, 1);
  config.policy = fabric::LocalityPolicy::ContainerAware;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int iters = static_cast<int>(opts.get_int("iters", 8, "iterations per point"));
  Figure fig(opts, "fig07_tuning", "(a)(b) 1 host x 2 containers x 2 procs, (c) 2 hosts");
  if (opts.finish("Figure 7: SMP_EAGER_SIZE / SMPI_LENGTH_QUEUE / "
                  "MV2_IBA_EAGER_THRESHOLD sweeps"))
    return 0;

  // The shipped channel defaults: the values the paper's Fig. 7 tuned, as
  // the runtime actually carries them.
  const fabric::TuningParams defaults;

  // ---- (a) SMP_EAGER_SIZE --------------------------------------------------
  fig.banner("Figure 7(a)", "SMP_EAGER_SIZE sweep",
             "optimal eager/rendezvous switch point at the shipped default (" +
                 format_size(defaults.smp_eager_size) + ")");
  {
    const Bytes d = defaults.smp_eager_size;
    const std::vector<Bytes> settings{d / 4, d / 2, d, 2 * d, 4 * d};
    const std::vector<Bytes> probe_sizes{2_KiB, 4_KiB, 8_KiB, 16_KiB, 32_KiB};
    Table table({"eager size", "bw@4K", "bw@8K", "bw@16K", "mr@4K (Kmsg/s)",
                 "score (avg MB/s)"});
    Bytes best_setting = 0;
    double best_score = 0.0;
    for (const Bytes eager : settings) {
      auto config = intra_host_config();
      config.tuning.smp_eager_size = eager;
      const std::string label = "eager_size=" + format_size(eager);
      double score = 0.0;
      std::map<Bytes, double> bw;
      for (const Bytes size : probe_sizes) {
        bw[size] = run_pair(fig, label, config, size, false, iters);
        score += bw[size];
      }
      score /= static_cast<double>(probe_sizes.size());
      const double mr = run_pair(fig, label, config, 4_KiB, true, iters) / 1000.0;
      if (score > best_score) {
        best_score = score;
        best_setting = eager;
      }
      table.add_row({format_size(eager), Table::num(bw[4_KiB], 1),
                     Table::num(bw[8_KiB], 1), Table::num(bw[16_KiB], 1),
                     Table::num(mr, 1), Table::num(score, 1)});
    }
    table.print(std::cout);
    std::printf("best SMP_EAGER_SIZE: %s\n", format_size(best_setting).c_str());
    fig.check(best_setting == defaults.smp_eager_size,
              "optimum at the shipped default (" +
                  format_size(defaults.smp_eager_size) + ", paper: 8K)");
  }

  // ---- (b) SMPI_LENGTH_QUEUE -------------------------------------------------
  std::printf("\n");
  fig.banner("Figure 7(b)", "SMPI_LENGTH_QUEUE sweep",
             "optimal per-pair shared queue size at the shipped default (" +
                 format_size(defaults.smpi_length_queue) + ")");
  {
    const Bytes d = defaults.smpi_length_queue;
    const std::vector<Bytes> settings{d / 8, d / 4, d / 2, d,
                                      2 * d, 4 * d, 8 * d};
    const std::vector<Bytes> probe_sizes{64, 1_KiB, 4_KiB};
    Table table({"length queue", "bw@1K", "bw@4K", "mr@64B (Kmsg/s)",
                 "score (avg MB/s)"});
    Bytes best_setting = 0;
    double best_score = 0.0;
    for (const Bytes queue : settings) {
      auto config = intra_host_config();
      config.tuning.smpi_length_queue = queue;
      const std::string label = "length_queue=" + format_size(queue);
      double score = 0.0;
      std::map<Bytes, double> bw;
      for (const Bytes size : probe_sizes) {
        bw[size] = run_pair(fig, label, config, size, false, iters);
        score += bw[size] / static_cast<double>(size);  // normalize sizes
      }
      const double mr = run_pair(fig, label, config, 64, true, iters) / 1000.0;
      score = score / static_cast<double>(probe_sizes.size()) * 1000.0;
      if (score > best_score) {
        best_score = score;
        best_setting = queue;
      }
      table.add_row({format_size(queue), Table::num(bw[1_KiB], 1),
                     Table::num(bw[4_KiB], 1), Table::num(mr, 1),
                     Table::num(score, 1)});
    }
    table.print(std::cout);
    std::printf("best SMPI_LENGTH_QUEUE: %s\n", format_size(best_setting).c_str());
    fig.check(best_setting == defaults.smpi_length_queue,
              "optimum at the shipped default (" +
                  format_size(defaults.smpi_length_queue) + ", paper: 128K)");
  }

  // ---- (c) MV2_IBA_EAGER_THRESHOLD ---------------------------------------------
  std::printf("\n");
  fig.banner("Figure 7(c)", "MV2_IBA_EAGER_THRESHOLD sweep",
             "optimal HCA eager/rendezvous switch point at the shipped "
             "default (" + format_size(defaults.iba_eager_threshold) + ")");
  {
    const Bytes d = defaults.iba_eager_threshold;
    std::vector<Bytes> settings;
    for (Bytes t = d - 4_KiB; t <= d + 2_KiB; t += 1_KiB) settings.push_back(t);
    const std::vector<Bytes> probe_sizes(settings);
    Table table({"threshold", "bw@" + format_size(d - 3_KiB),
                 "bw@" + format_size(d - 1_KiB), "bw@" + format_size(d + 1_KiB),
                 "score (avg MB/s)"});
    Bytes best_setting = 0;
    double best_score = 0.0;
    for (const Bytes threshold : settings) {
      auto config = inter_host_config();
      config.tuning.iba_eager_threshold = threshold;
      const std::string label = "iba_eager_threshold=" + format_size(threshold);
      double score = 0.0;
      std::map<Bytes, double> bw;
      for (const Bytes size : probe_sizes) {
        bw[size] = run_pair(fig, label, config, size, false, iters);
        score += bw[size];
      }
      score /= static_cast<double>(probe_sizes.size());
      if (score > best_score) {
        best_score = score;
        best_setting = threshold;
      }
      table.add_row({format_size(threshold), Table::num(bw[d - 3_KiB], 1),
                     Table::num(bw[d - 1_KiB], 1), Table::num(bw[d + 1_KiB], 1),
                     Table::num(score, 1)});
    }
    table.print(std::cout);
    std::printf("best MV2_IBA_EAGER_THRESHOLD: %s\n",
                format_size(best_setting).c_str());
    fig.check(best_setting >= d - 1_KiB && best_setting <= d + 1_KiB,
              "optimum within 1K of the shipped default (" + format_size(d) +
                  ", paper: 17K)");
  }
  return fig.finish();
}
