#include "obs/analysis/report_facts.hpp"

#include <fstream>
#include <sstream>

#include "common/table.hpp"
#include "obs/analysis/report_schema.hpp"

namespace cbmpi::obs::analysis {

ReportFacts parse_report_facts(const JsonValue& doc, std::string label) {
  ReportFacts facts;
  facts.label = std::move(label);
  facts.problems = check_report(doc);
  if (!facts.ok()) return facts;
  facts.mode = doc["mode"].as_string();
  facts.app = doc["job"]["app"].as_string();
  facts.deployment = doc["job"]["deployment"].as_string();
  facts.policy = doc["job"]["policy"].as_string();

  // A path of the other mode resolves to null and is skipped.
  auto& out = facts.scalars;
  for (const auto& field : report_fields()) {
    if (field.type != FieldType::Number || field.path.find("[]") != std::string::npos) continue;
    const JsonValue* value = &doc;
    for (std::size_t begin = 0, end = 0; end != std::string::npos; begin = end + 1) {
      end = field.path.find('.', begin);
      value = &(*value)[field.path.substr(begin, end - begin)];
    }
    if (value->kind() == JsonValue::Kind::Number) out[field.path] = value->as_number();
  }
  for (const auto& c : doc["metrics"]["counters"].as_array())
    out["counter." + c["name"].as_string()] = c["value"].as_number();
  for (const auto& h : doc["metrics"]["histograms"].as_array())
    for (const char* key : {"count", "p50", "p95", "p99"})
      out["hist." + h["name"].as_string() + "." + key] = h[key].as_number();
  facts.has_analysis = doc.has("analysis");
  if (!facts.has_analysis) return facts;
  const auto& analysis = doc["analysis"];
  for (const auto& b : analysis["blame"].as_array())
    out["analysis.blame." + b["category"].as_string() + "_us"] = b["time_us"].as_number();
  for (const char* key : {"late_sender_us", "late_receiver_us", "coll_imbalance_us",
                          "contention_us", "registration_us"}) {
    double& total = out[std::string("analysis.wait.") + key];
    for (const auto& ws : analysis["wait_states"].as_array()) total += ws[key].as_number();
  }
  return facts;
}

ReportFacts load_report_facts(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ReportFacts facts;
  facts.label = path;
  if (!in) {
    facts.problems.push_back("cannot open");
    return facts;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  const JsonValue doc = JsonValue::parse(buffer.str(), &parse_error);
  if (!parse_error.empty()) {
    facts.problems.push_back(parse_error);
    return facts;
  }
  return parse_report_facts(doc, path);
}

std::string render_report(const ReportFacts& facts) {
  std::ostringstream os;
  os << facts.label << ": " << facts.mode << " run report v" << kRunReportVersion
     << ", app=" << facts.app << ", deployment=" << facts.deployment
     << ", policy=" << facts.policy << "\n";
  if (!facts.has_analysis)
    os << "(no analysis section — re-run cbmpirun with --analyze --report="
       << "... for critical-path blame)\n";
  Table table({"metric", "value"});
  for (const auto& [name, value] : facts.scalars)
    table.add_row({name, Table::num(value, 3)});
  table.print(os);
  return os.str();
}

std::string render_diff(const ReportFacts& fresh, const ReportFacts& baseline) {
  std::ostringstream os;
  os << fresh.label << " vs baseline " << baseline.label << "\n";
  Table table({"metric", "this run", "baseline", "delta"});
  std::size_t shared = 0;
  for (const auto& [name, value] : fresh.scalars) {
    const auto it = baseline.scalars.find(name);
    if (it == baseline.scalars.end()) continue;
    ++shared;
    const double base = it->second;
    if (value == 0.0 && base == 0.0) continue;  // uninteresting
    std::string delta;
    if (base == 0.0) {
      delta = "new";
    } else {
      const double pct = (value - base) / base * 100.0;
      if (pct >= 0.0) delta += '+';
      delta += Table::num(pct, 1);
      delta += '%';
    }
    table.add_row({name, Table::num(value, 3), Table::num(base, 3), delta});
  }
  table.print(os);
  os << shared << " shared metrics compared\n";
  return os.str();
}

}  // namespace cbmpi::obs::analysis
