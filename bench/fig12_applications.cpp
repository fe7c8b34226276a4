// Figure 12: application performance — Graph 500 and the NAS Parallel
// Benchmarks — with Def / Opt / Native configurations, containers spread over
// the cluster. The paper runs 256 processes on 16 hosts (64 containers) with
// Graph500 (22,16) and NAS class D; defaults here are scaled down (64 ranks,
// smaller problems) and can be raised via flags.
//
// Expected shape (paper): Opt cuts execution time by up to 16% (Graph500)
// and 11% (CG) vs Def, and lands within 5% (Graph500) / 9% (NAS) of native.
#include "bench_util.hpp"

#include "apps/graph500/bfs.hpp"
#include "apps/npb/npb.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int hosts = static_cast<int>(opts.get_int("hosts", 16, "cluster hosts"));
  const int containers = static_cast<int>(
      opts.get_int("containers-per-host", 4, "containers per host"));
  const int procs = static_cast<int>(
      opts.get_int("procs-per-host", 4, "processes per host (paper: 16)"));
  const int scale = static_cast<int>(
      opts.get_int("scale", 14, "Graph500 scale (paper: 22)"));
  Figure fig(opts, "fig12_applications",
             std::to_string(hosts) + " hosts x " + std::to_string(containers) +
                 " containers x " + std::to_string(procs) + " procs");
  if (opts.finish("Figure 12: Graph500 + NAS application performance")) return 0;

  const int nranks = hosts * procs;
  fig.banner("Figure 12", "application performance, " + std::to_string(nranks) +
                              " processes / " + std::to_string(hosts * containers) +
                              " containers",
             "Opt cuts up to 16% (Graph500) / 11% (CG) vs Def; <=5%/9% "
             "overhead vs native");

  const auto modes = make_modes(hosts, containers, procs);

  struct AppRow {
    std::string name;
    Micros def = 0, opt = 0, native = 0;
    bool verified = true;
  };
  std::vector<AppRow> rows;

  auto run_app = [&](const std::string& name, auto&& kernel) {
    AppRow row;
    row.name = name;
    for (auto [config, slot, mode] :
         {std::tuple{&modes.def, &row.def, "def"}, {&modes.opt, &row.opt, "opt"},
          {&modes.native, &row.native, "native"}}) {
      const auto [time, ok] = run_rank0(*config, kernel);
      *slot = time;
      row.verified = row.verified && ok;
      fig.row(name + "/" + mode, 0, time, 0.0);
    }
    rows.push_back(row);
    std::printf("  %-8s done (Def %.1f ms, Opt %.1f ms, Native %.1f ms)\n",
                name.c_str(), to_millis(row.def), to_millis(row.opt),
                to_millis(row.native));
  };

  std::printf("running applications...\n");

  run_app("Graph500", [&](mpi::Process& p) {
    const apps::graph500::EdgeListParams params{scale, 16, 1};
    const auto graph = apps::graph500::build_graph(p, params);
    Micros total = 0.0;
    for (const auto root : apps::graph500::choose_roots(params, 2))
      total += apps::graph500::run_bfs(p, graph, root).time;
    return std::pair{total / 2.0, true};
  });

  run_app("EP", [&](mpi::Process& p) {
    apps::npb::EpParams params;
    params.pairs_per_rank = 1 << 13;
    const auto r = apps::npb::run_ep(p, params);
    return std::pair{r.time, r.verified};
  });

  run_app("CG", [&](mpi::Process& p) {
    apps::npb::CgParams params;
    params.grid = std::max(64, nranks);
    params.iterations = 12;
    const auto r = apps::npb::run_cg(p, params);
    return std::pair{r.time, r.verified};
  });

  run_app("MG", [&](mpi::Process& p) {
    apps::npb::MgParams params;
    params.nx = params.ny = 32;
    params.nz = std::max(32, 2 * nranks);
    params.vcycles = 3;
    const auto r = apps::npb::run_mg(p, params);
    return std::pair{r.time, r.verified};
  });

  run_app("FT", [&](mpi::Process& p) {
    apps::npb::FtParams params;
    params.ny = 8;
    params.nx = params.nz = std::max(32, nranks);
    params.timesteps = 2;
    const auto r = apps::npb::run_ft(p, params);
    return std::pair{r.time, r.verified};
  });

  run_app("LU", [&](mpi::Process& p) {
    apps::npb::LuParams params;
    params.grid = std::max(64, nranks * 4);
    params.sweeps = 2;
    const auto r = apps::npb::run_lu(p, params);
    return std::pair{r.time, r.verified};
  });

  run_app("IS", [&](mpi::Process& p) {
    apps::npb::IsParams params;
    params.keys_per_rank = 1 << 14;
    const auto r = apps::npb::run_is(p, params);
    return std::pair{r.time, r.verified};
  });

  std::printf("\n");
  Table table({"application", "Def (ms)", "Opt (ms)", "Native (ms)",
               "Opt saves vs Def", "Opt overhead vs Native", "verified"});
  double best_saving = 0.0, worst_overhead = 0.0;
  bool all_verified = true;
  for (const auto& row : rows) {
    const double saving = percent_better(row.def, row.opt);
    const double overhead = (row.opt - row.native) / row.native * 100.0;
    if (row.name != "EP") best_saving = std::max(best_saving, saving);
    worst_overhead = std::max(worst_overhead, overhead);
    all_verified = all_verified && row.verified;
    table.add_row({row.name, Table::num(to_millis(row.def), 2),
                   Table::num(to_millis(row.opt), 2),
                   Table::num(to_millis(row.native), 2),
                   Table::num(saving, 1) + "%", Table::num(overhead, 1) + "%",
                   row.verified ? "yes" : "NO"});
  }
  table.print(std::cout);

  fig.check(all_verified, "all applications verified");
  fig.check(best_saving > 5.0, "Opt saves a clear margin over Def on comm-bound apps");
  fig.check(worst_overhead < 15.0, "Opt within ~15% of native on every app");
  return fig.finish();
}
