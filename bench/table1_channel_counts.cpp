// Table I: counts of message transfer operations per channel (CMA / SHM /
// HCA) during Graph 500 BFS, for Native / 1 / 2 / 4 container scenarios under
// the default MPI library.
//
// Expected shape (paper, scale 20 / 16 procs): native and 1-container are
// identical with zero HCA operations and CMA dominant (full 8K coalescing
// buffers ride the rendezvous path); with 2 and 4 containers a growing share
// of operations shifts onto HCA while the total stays constant.
#include "bench_util.hpp"

#include "apps/graph500/bfs.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int scale = static_cast<int>(opts.get_int("scale", 16, "Graph500 scale (paper: 20)"));
  const int procs = static_cast<int>(opts.get_int("procs", 16, "MPI processes"));
  const int nbfs = static_cast<int>(opts.get_int("nbfs", 2, "BFS roots summed"));
  Figure fig(opts, "table1_channel_counts",
             "1 host x " + std::to_string(procs) + " procs, scale " +
                 std::to_string(scale));
  if (opts.finish("Table I: channel transfer-operation counts during BFS")) return 0;

  fig.banner("Table I", "message transfer operations per channel",
             "HCA ops: 0 / 0 / large / larger across Native,1,2,4 containers; "
             "total ops constant; CMA dominant when co-resident");

  struct Counts {
    std::uint64_t cma, shm, hca;
    std::uint64_t total() const { return cma + shm + hca; }
  };
  std::vector<std::pair<std::string, Counts>> rows;

  const apps::graph500::EdgeListParams params{scale, 16, 1};
  for (auto config : container_scenarios(procs)) {
    // Flat collectives keep the total exactly invariant across scenarios.
    config.coll_tuning = config.coll_tuning.flat();
    const auto result = mpi::run_job(config, [&](mpi::Process& p) {
      const auto graph = apps::graph500::build_graph(p, params);
      for (const auto root : apps::graph500::choose_roots(params, nbfs))
        apps::graph500::run_bfs(p, graph, root);
    });
    const auto& total = result.profile.total;
    rows.emplace_back(config.deployment.label(),
                      Counts{total.channel_ops(fabric::ChannelKind::Cma),
                             total.channel_ops(fabric::ChannelKind::Shm),
                             total.channel_ops(fabric::ChannelKind::Hca)});
    const Counts& c = rows.back().second;
    fig.row(rows.back().first, 0,
            {{"cma_ops", static_cast<double>(c.cma)},
             {"shm_ops", static_cast<double>(c.shm)},
             {"hca_ops", static_cast<double>(c.hca)}});
  }

  Table table({"channel", "Native", "1-Container", "2-Containers", "4-Containers"});
  auto row_of = [&](const std::string& name, auto getter) {
    std::vector<std::string> cells{name};
    for (const auto& [label, counts] : rows) cells.push_back(std::to_string(getter(counts)));
    table.add_row(std::move(cells));
  };
  row_of("CMA", [](const Counts& c) { return c.cma; });
  row_of("SHM", [](const Counts& c) { return c.shm; });
  row_of("HCA", [](const Counts& c) { return c.hca; });
  row_of("total", [](const Counts& c) { return c.total(); });
  table.print(std::cout);

  const auto& native = rows[0].second;
  const auto& one = rows[1].second;
  const auto& two = rows[2].second;
  const auto& four = rows[3].second;
  fig.check(native.hca == 0 && one.hca == 0,
            "no HCA operations on native and 1-container");
  fig.check(native.cma == one.cma && native.shm == one.shm,
            "native equals 1-container exactly");
  fig.check(two.hca > 0 && four.hca > two.hca,
            "HCA operations grow with container count");
  fig.check(native.total() == two.total() && native.total() == four.total(),
            "total transfer operations invariant across scenarios");
  fig.check(native.cma > native.shm,
            "CMA dominant (full coalescing buffers ride rendezvous)");
  return fig.finish();
}
