// Figure 1: Graph 500 BFS execution time with the DEFAULT MPI library under
// different container deployment scenarios (Native / 1 / 2 / 4 containers on
// one host, 16 processes, scale 20, edgefactor 16 in the paper — scale is
// reduced by default so the bench runs in seconds; raise with --scale).
//
// Expected shape: Native ≈ 1-Container, then BFS time grows markedly at 2
// and again at 4 containers.
#include "bench_util.hpp"

#include "apps/graph500/bfs.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int scale = static_cast<int>(opts.get_int("scale", 13, "Graph500 scale (paper: 20)"));
  const int edgefactor = static_cast<int>(opts.get_int("edgefactor", 16, "edges per vertex"));
  const int procs = static_cast<int>(opts.get_int("procs", 16, "MPI processes (paper: 16)"));
  const int nbfs = static_cast<int>(opts.get_int("nbfs", 4, "BFS roots averaged"));
  Figure fig(opts, "fig01_graph500_default",
             "1 host x " + std::to_string(procs) + " procs, scale " +
                 std::to_string(scale));
  if (opts.finish("Figure 1: Graph500 BFS time, default MPI, vs container count"))
    return 0;

  fig.banner("Figure 1", "Graph 500 BFS, default MPI library",
             "BFS time flat from native to 1 container, rising sharply at 2 "
             "and 4 containers per host");

  const apps::graph500::EdgeListParams params{scale, edgefactor, 1};

  const auto scenarios = container_scenarios(procs);
  std::vector<Micros> times;
  for (const auto& config : scenarios) {
    times.push_back(run_rank0(config, [&](mpi::Process& p) {
      const auto graph = apps::graph500::build_graph(p, params);
      Micros sum = 0.0;
      for (const auto root : apps::graph500::choose_roots(params, nbfs))
        sum += apps::graph500::run_bfs(p, graph, root).time;
      return sum / nbfs;
    }));
    fig.row(config.deployment.label(), 0, times.back(), 0.0);
  }

  Table table({"scenario", "BFS time (ms)", "vs native"});
  const Micros native = times[0], one = times[1], two = times[2], four = times[3];
  for (std::size_t i = 0; i < times.size(); ++i)
    table.add_row({scenarios[i].deployment.label(), Table::num(to_millis(times[i]), 3),
                   Table::num(times[i] / native, 2) + "x"});
  table.print(std::cout);

  fig.check(one < native * 1.15, "1-container within 15% of native");
  fig.check(two > one * 1.3, "2-containers markedly slower than 1");
  fig.check(four > two, "4-containers slower than 2");
  return fig.finish();
}
