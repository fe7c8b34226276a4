// The run report's one declaration (DESIGN.md §12): every field the emitter
// (obs/report.cpp, analysis::write_analysis) writes, with its JSON type, the
// mode it belongs to, whether it may be absent and one per-field rule; and
// check_report, which validates a parsed report against it. tests/obs_test
// binds the emitter to the table. The table is plain strings, so
// obs/analysis still reads no mpi/fabric/sched type.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/analysis/json_read.hpp"

namespace cbmpi::obs {

/// The only report version any code emits or accepts.
inline constexpr int kRunReportVersion = 6;

}  // namespace cbmpi::obs

namespace cbmpi::obs::analysis {

/// Object and Objects (an array of objects) are the containers the dotted
/// paths imply; Numbers is an array whose elements each obey the rule.
enum class FieldType : std::uint8_t { String, Number, Bool, Numbers, Object, Objects };

enum class ReportMode : std::uint8_t { Single, Schedule, Both };

enum class FieldRule : std::uint8_t { None, NonNegative, Positive, Fraction, OneOf };

struct ReportField {
  std::string path;  ///< dotted; "x[]" is every element of array x
  FieldType type = FieldType::Number;
  ReportMode mode = ReportMode::Both;
  bool optional = false;  ///< may be absent when its parent is present
  FieldRule rule = FieldRule::None;
  const char* one_of = nullptr;  ///< "a|b|c" for FieldRule::OneOf
};

/// Every declared field, containers included ("cluster" twice: optional in
/// single reports, required in schedule reports).
const std::vector<ReportField>& report_fields();

/// Checks presence, type and rule of every field (an undeclared field is a
/// problem too), then each cross-field invariant. One "path: message" per
/// violation; empty for a valid report.
std::vector<std::string> check_report(const JsonValue& doc);

}  // namespace cbmpi::obs::analysis
