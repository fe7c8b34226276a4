// cbmpi-analyze — offline run-report checker, inspector and differ.
//
//   cbmpi-analyze report.json              # one report: metrics + blame
//   cbmpi-analyze fresh.json base.json     # diff: relative deltas vs base
//
// Each report is first checked against its declared schema
// (obs/analysis/report_schema.hpp), printing `file: path: message` per
// problem. With two reports it prints the relative change of every scalar
// they share — e.g. the registration blame of a cold vs a warm cache run:
//
//   analysis.blame.registration_us   812.430   31.207   +2503.4%
//
// Exit status: 0 on success, 1 when a report is unreadable or fails its
// checks, 2 on usage errors.
#include <cstdio>
#include <string>
#include <vector>

#include "obs/analysis/report_facts.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: cbmpi-analyze <report.json> [baseline.json]\n\n"
          "Checks each cbmpi run report against the declared schema, then\n"
          "prints its comparable scalar facts (critical-path blame, wait\n"
          "states, percentiles, counters), or the relative delta of every\n"
          "scalar two reports share.\n");
      return 0;
    }
    paths.push_back(arg);
  }
  if (paths.empty() || paths.size() > 2) {
    std::fprintf(stderr, "usage: cbmpi-analyze <report.json> [baseline.json]\n");
    return 2;
  }

  std::vector<cbmpi::obs::analysis::ReportFacts> reports;
  bool ok = true;
  for (const auto& path : paths) {
    reports.push_back(cbmpi::obs::analysis::load_report_facts(path));
    for (const auto& problem : reports.back().problems)
      std::fprintf(stderr, "%s: %s\n", path.c_str(), problem.c_str());
    ok = ok && reports.back().ok();
  }
  if (!ok) return 1;
  std::fputs(reports.size() == 1
                 ? cbmpi::obs::analysis::render_report(reports[0]).c_str()
                 : cbmpi::obs::analysis::render_diff(reports[0], reports[1]).c_str(),
             stdout);
  return 0;
}
