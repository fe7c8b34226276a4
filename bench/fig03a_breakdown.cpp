// Figure 3(a): Graph 500 BFS execution-time breakdown (communication vs
// computation) per deployment scenario, via the mpiP-style profiler.
//
// Expected shape (paper): communication fraction ~77% on native and
// 1-container, jumping to ~91% at 2 containers and ~93% at 4; computation
// time roughly constant (~17 ms) across scenarios.
#include "bench_util.hpp"

#include "apps/graph500/bfs.hpp"
#include "prof/profile.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int scale = static_cast<int>(opts.get_int("scale", 13, "Graph500 scale (paper: 20)"));
  const int procs = static_cast<int>(opts.get_int("procs", 16, "MPI processes"));
  Figure fig(opts, "fig03a_breakdown",
             "1 host x " + std::to_string(procs) + " procs, scale " +
                 std::to_string(scale));
  if (opts.finish("Figure 3a: BFS communication/computation breakdown")) return 0;

  fig.banner("Figure 3(a)", "BFS time breakdown, default MPI",
             "comm fraction 77% native -> 91% (2 cont) -> 93% (4 cont); "
             "computation constant across scenarios");

  const apps::graph500::EdgeListParams params{scale, 16, 1};

  struct Row {
    std::string label;
    double comm_ms, comp_ms, fraction;
  };
  std::vector<Row> rows;

  for (const auto& config : container_scenarios(procs)) {
    const auto result = mpi::run_job(config, [&](mpi::Process& p) {
      const auto graph = apps::graph500::build_graph(p, params);
      apps::graph500::run_bfs(p, graph, 0);
    });
    rows.push_back({config.deployment.label(),
                    to_millis(result.profile.total.comm_time()),
                    to_millis(result.profile.total.compute_time()),
                    result.profile.comm_fraction()});
    fig.row(rows.back().label, 0,
            {{"comm_ms", rows.back().comm_ms},
             {"comp_ms", rows.back().comp_ms},
             {"comm_fraction", rows.back().fraction}});
  }

  Table table({"scenario", "comm (ms, sum over ranks)", "comp (ms)", "comm %"});
  for (const auto& row : rows)
    table.add_row({row.label, Table::num(row.comm_ms, 2), Table::num(row.comp_ms, 2),
                   Table::num(row.fraction * 100.0, 1)});
  table.print(std::cout);

  fig.check(std::abs(rows[0].comp_ms - rows[3].comp_ms) < rows[0].comp_ms * 0.05,
            "computation time constant across scenarios");
  fig.check(rows[2].fraction > rows[1].fraction + 0.03,
            "comm fraction jumps at 2 containers");
  fig.check(rows[3].fraction >= rows[2].fraction,
            "comm fraction grows further at 4 containers");
  return fig.finish();
}
