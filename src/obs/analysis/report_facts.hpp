// Offline view of a run report for tools/cbmpi-analyze: checks a
// "cbmpi.run_report" document (report_schema.hpp), loads it into a flat,
// comparable fact table (scalars keyed by dotted names), renders a summary
// and a two-report diff ("analysis.blame.registration_us +38.2%").
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/analysis/json_read.hpp"

namespace cbmpi::obs::analysis {

struct ReportFacts {
  std::string label;  ///< display name (the file path)
  /// Unreadable file, bad JSON, or one "path: message" per check_report
  /// violation; nothing below is loaded when any is set.
  std::vector<std::string> problems;
  bool ok() const { return problems.empty(); }

  std::string mode;  ///< "single" or "schedule"
  std::string app, deployment, policy;

  /// Every numeric field the schema declares outside an array, plus
  /// counter.NAME, hist.NAME.{count,p50,p95,p99} and, with --analyze,
  /// analysis.blame.CATEGORY_us and the whole-run analysis.wait.*_us.
  std::map<std::string, double> scalars;

  bool has_analysis = false;
};

/// Reads, parses and checks one report file.
ReportFacts load_report_facts(const std::string& path);

/// Checks and loads an already-parsed document.
ReportFacts parse_report_facts(const JsonValue& doc, std::string label);

/// Human summary of one report.
std::string render_report(const ReportFacts& facts);

/// Human diff: relative change of every scalar both reports share.
std::string render_diff(const ReportFacts& fresh, const ReportFacts& baseline);

}  // namespace cbmpi::obs::analysis
