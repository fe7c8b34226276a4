// Figure 11: Graph 500 BFS time with the DEFAULT vs the PROPOSED MPI library
// under the Fig. 1 deployment scenarios (Native / 1 / 2 / 4 containers on one
// host, 16 processes).
//
// Expected shape (paper): the proposed design's BFS time stays flat across
// all scenarios at roughly the native level, eliminating the bottleneck that
// makes the default curve climb.
#include "bench_util.hpp"

#include "apps/graph500/bfs.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int scale = static_cast<int>(opts.get_int("scale", 13, "Graph500 scale (paper: 20)"));
  const int procs = static_cast<int>(opts.get_int("procs", 16, "MPI processes"));
  const int nbfs = static_cast<int>(opts.get_int("nbfs", 8, "BFS roots averaged"));
  Figure fig(opts, "fig11_graph500_proposed",
             "1 host x " + std::to_string(procs) + " procs, scale " +
                 std::to_string(scale));
  if (opts.finish("Figure 11: Graph500 BFS, default vs proposed library")) return 0;

  fig.banner("Figure 11", "Graph 500 BFS, default vs proposed design",
             "proposed design keeps BFS time flat (near native) across all "
             "container scenarios");

  const apps::graph500::EdgeListParams params{scale, 16, 1};

  auto bfs_time = [&](const mpi::JobConfig& config, const std::string& label) {
    const Micros time = run_rank0(config, [&](mpi::Process& p) {
      const auto graph = apps::graph500::build_graph(p, params);
      const auto roots = apps::graph500::choose_roots(params, nbfs);
      Micros sum = 0.0;
      for (const auto root : roots) sum += apps::graph500::run_bfs(p, graph, root).time;
      return sum / nbfs;
    });
    fig.row(label, 0, time, 0.0);
    return time;
  };

  Table table({"scenario", "Default (ms)", "Proposed (ms)", "Proposed vs Native"});
  const auto scenarios = container_scenarios(procs);
  const Micros native = bfs_time(scenarios[0], "Native");
  table.add_row({"Native", Table::num(to_millis(native), 3),
                 Table::num(to_millis(native), 3), "1.00x"});
  std::vector<Micros> proposed_times;
  for (std::size_t i = 1; i < scenarios.size(); ++i) {
    const std::string label = scenarios[i].deployment.label();
    auto opt_config = scenarios[i];
    opt_config.policy = fabric::LocalityPolicy::ContainerAware;
    const Micros def = bfs_time(scenarios[i], label + "/default");
    const Micros opt = bfs_time(opt_config, label + "/proposed");
    proposed_times.push_back(opt);
    table.add_row({label, Table::num(to_millis(def), 3), Table::num(to_millis(opt), 3),
                   Table::num(opt / native, 2) + "x"});
  }
  table.print(std::cout);

  const Micros worst =
      *std::max_element(proposed_times.begin(), proposed_times.end());
  const Micros best =
      *std::min_element(proposed_times.begin(), proposed_times.end());
  // BFS timing carries ~±10% wildcard-matching noise per run; the paper's
  // "similar across scenarios" claim is checked at a noise-aware 15%.
  fig.check(worst < best * 1.15,
            "proposed BFS time flat across container scenarios (<15% spread)");
  fig.check(worst < native * 1.15, "proposed BFS time within 15% of native");
  return fig.finish();
}
