#include "obs/analysis/report_schema.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "obs/json.hpp"

namespace cbmpi::obs::analysis {

namespace {

using Kind = JsonValue::Kind;

// ---- the table ---------------------------------------------------------------
// A section is one subtree with a single mode and presence. Its rows are
// dotted paths relative to the section root; the containers between are
// implied by the paths.

struct Row {
  const char* path;
  FieldType type = FieldType::Number;
  FieldRule rule = FieldRule::NonNegative;
  const char* one_of = nullptr;
  bool optional = false;

  /// A number, non-negative unless another rule is given.
  constexpr Row(const char* p, FieldRule r = FieldRule::NonNegative, bool opt = false)
      : path(p), rule(r), optional(opt) {}
  /// A string or bool with no rule, or an array of non-negative numbers.
  constexpr Row(const char* p, FieldType t) : path(p), type(t) {
    if (t != FieldType::Numbers) rule = FieldRule::None;
  }
  /// A string that must be one of `allowed` ("a|b|c").
  constexpr Row(const char* p, const char* allowed)
      : path(p), type(FieldType::String), rule(FieldRule::OneOf), one_of(allowed) {}
};

struct Section {
  const char* path;  ///< "" is the document; "jobs[]" every element of jobs
  ReportMode mode;
  bool optional;
  std::vector<Row> rows;
};

constexpr auto kStr = FieldType::String;
constexpr auto kBool = FieldType::Bool;
constexpr auto kNums = FieldType::Numbers;
constexpr auto kAny = FieldRule::None;
constexpr auto kPos = FieldRule::Positive;
constexpr auto kFrac = FieldRule::Fraction;
constexpr auto kSingle = ReportMode::Single;
constexpr auto kSchedule = ReportMode::Schedule;
constexpr auto kBoth = ReportMode::Both;

/// Blame categories in their fixed emission order.
constexpr const char* kBlames =
    "compute|eager|rndv|registration|contention|retry|recovery|mpi-other|idle";

// Mounted in both modes.
const std::vector<Row> kAnalysis = {
    {"critical_path_us"}, {"end_rank"}, {"segments"}, {"blame[].category", kBlames},
    {"blame[].time_us"}, {"blame[].fraction", kFrac}, {"top_segments[].rank"},
    {"top_segments[].category", kBlames}, {"top_segments[].name", kStr},
    {"top_segments[].begin_us", kAny}, {"top_segments[].end_us", kAny},
    {"top_segments[].time_us", kAny}, {"wait_states[].rank"},
    {"wait_states[].late_sender_us"}, {"wait_states[].late_receiver_us"},
    {"wait_states[].coll_imbalance_us"}, {"wait_states[].contention_us"},
    {"wait_states[].registration_us"}, {"coll_groups[].name", kStr},
    {"coll_groups[].calls", kPos}, {"coll_groups[].imbalance_us"}};
const std::vector<Row> kCluster = {
    {"makespan_us"}, {"utilization", kFrac}, {"mean_queue_wait_us"}, {"max_queue_wait_us"},
    {"backfilled_jobs"}, {"intra_host_pairs"}, {"inter_host_pairs"},
    {"intra_host_pair_share", kFrac}, {"channel_ops.shm"}, {"channel_ops.cma"},
    {"channel_ops.hca"}, {"local_op_share", kFrac}, {"recovery.crashes"},
    {"recovery.requeues"}, {"recovery.restarts_from_checkpoint"}, {"recovery.checkpoints"},
    {"recovery.jobs_failed"}, {"recovery.blacklisted_hosts"}, {"recovery.lost_work_us"},
    {"recovery.completed_work_us"}};

// Top-level sections in emission order, each followed by its nested ones;
// tools/check_docs.py holds DESIGN.md §12 to the top-level names.
const std::vector<Section> kSections = {
    {"", kBoth, false,
     {{"schema", "cbmpi.run_report"}, {"version", kPos}, {"mode", "single|schedule"}}},
    {"job", kBoth, false, {{"app", kStr}, {"deployment", kStr}, {"policy", kStr}, {"seed"}}},
    {"result", kSingle, false,
     {{"job_time_us"}, {"rank_times_us", kNums}, {"hca_queue_pairs"}}},
    {"profile", kSingle, false,
     {{"ranks", kPos}, {"comm_fraction", kFrac}, {"comm_time_us"}, {"compute_time_us"},
      {"recovery_time_us"}, {"calls[].name", kStr}, {"calls[].count", kPos},
      {"calls[].time_us"}, {"channels[].name", "SHM|CMA|HCA"}, {"channels[].ops"},
      {"channels[].bytes"}, {"coll_algos[].collective", kStr},
      {"coll_algos[].algorithm", kStr}, {"coll_algos[].calls", kPos}}},
    {"metrics", kSingle, false,
     {{"counters[].name", kStr}, {"counters[].value"}, {"gauges[].name", kStr},
      {"gauges[].value", kAny}, {"histograms[].name", kStr}, {"histograms[].count"},
      {"histograms[].sum"}, {"histograms[].p50"}, {"histograms[].p95"},
      {"histograms[].p99"}, {"histograms[].buckets[].le"},
      {"histograms[].buckets[].count", kPos}}},
    {"spans", kSingle, false,
     {{"count"}, {"by_category[].category", "mpi|coll|proto|compute|fault|migrate"},
      {"by_category[].count", kPos}, {"by_category[].time_us"}}},
    {"faults", kSingle, false,
     {{"injected"}, {"degradations"}, {"retries.shm"}, {"retries.cma"}, {"retries.hca"},
      {"time_lost_us"}}},
    {"recovery", kSingle, false,
     {{"checkpoints"}, {"restored", kBool}, {"restore_round"}, {"restore_progress_us"},
      {"events[].round"}, {"events[].at_us"}, {"events[].bytes"}}},
    {"net", kSingle, true,
     {{"model", "flat|fattree"}, {"arity"}, {"hosts", kPos}, {"switches"}, {"links"},
      {"transfers"}, {"congested_transfers"}, {"max_factor", kAny},
      {"max_peak_util", kFrac}, {"mean_util", kFrac}, {"hop_histogram", kNums},
      {"link_utils[].link"}, {"link_utils[].peak", kFrac}, {"link_utils[].mean", kFrac}}},
    {"reg_cache", kSingle, true,
     {{"capacity_bytes"}, {"hits"}, {"misses"}, {"evictions"}, {"pinned_bytes"},
      {"peak_pinned_bytes"}, {"registered_bytes"}}},
    {"migration", kBoth, true,
     {{"policy", "off|defrag|evacuate|colocate"}, {"proposed"}, {"rejected"}, {"executed"},
      {"total_pause_us"}, {"predicted_win_us"}, {"predicted_cost_us"}}},
    {"migration.records[]", kBoth, false,
     {{"quiesce_round", kPos}, {"quiesce_at_us"}, {"resume_at_us"}, {"snapshot_bytes"},
      {"drained_msgs"}, {"pause_us"}, {"pairs_to_local"}, {"pairs_to_remote"},
      {"invalidated_reg_entries"}, {"invalidated_reg_bytes"}}},
    {"migration.records[].move", kBoth, false,
     {{"src_host"}, {"container"}, {"dst_phys_host"}, {"ranks", kNums}}},
    {"migration.records[].estimate", kBoth, false,
     {{"image_bytes"}, {"precopy_rounds"}, {"stop_copy_bytes"}, {"precopy_us"},
      {"pause_us"}, {"rereg_us"}, {"total_us"}, {"predicted_win_us"}, {"worthwhile", kBool}}},
    {"analysis", kSingle, true, kAnalysis},
    {"cluster", kSingle, true, kCluster},
    {"cluster", kSchedule, false, kCluster},
    {"jobs[]", kSchedule, false,
     {{"name", kStr}, {"body", kStr}, {"ranks", kPos}, {"hosts_used"}, {"submit_us"},
      {"start_us"}, {"end_us"}, {"queue_wait_us"}, {"backfilled", kBool},
      {"intra_host_share", kFrac}, {"job_time_us"}, {"attempt"},
      {"outcome", "completed|crashed|failed"},
      {"restored_progress_us", FieldRule::NonNegative, true}}},
    {"jobs[].crash", kSchedule, true,
     {{"kind", "rank-crash|container-crash|host-crash"}, {"rank"}, {"host"},
      {"at_us", kPos}, {"last_checkpoint_us"}}},
    {"jobs[].analysis", kSchedule, true, kAnalysis},
};

std::vector<ReportField> flatten() {
  std::vector<ReportField> fields;
  std::set<std::pair<std::string, ReportMode>> declared;
  const auto declare = [&](ReportField field) {
    if (declared.emplace(field.path, field.mode).second) fields.push_back(std::move(field));
  };
  for (const auto& section : kSections) {
    std::string root = section.path;
    if (root.ends_with("[]")) root.resize(root.size() - 2);
    for (const auto& row : section.rows) {
      const std::string path =
          *section.path == '\0' ? row.path : std::string(section.path) + "." + row.path;
      for (auto dot = path.find('.'); dot != std::string::npos; dot = path.find('.', dot + 1)) {
        std::string container = path.substr(0, dot);
        const bool array = container.ends_with("[]");
        if (array) container.resize(container.size() - 2);
        declare({container, array ? FieldType::Objects : FieldType::Object, section.mode,
                 section.optional && container == root});
      }
      declare({path, row.type, section.mode, row.optional, row.rule, row.one_of});
    }
  }
  return fields;
}

// ---- the generic walk ----------------------------------------------------------

// Indexed by FieldType.
constexpr Kind kKinds[] = {Kind::String, Kind::Number, Kind::Bool,
                           Kind::Array,  Kind::Object, Kind::Array};
constexpr const char* kTypeNames[] = {"a string", "a number",  "a bool",
                                      "an array", "an object", "an array"};

std::string join(const std::string& prefix, const std::string& key) {
  return prefix.empty() ? key : prefix + "." + key;
}

std::string indexed(const std::string& at, std::size_t i) {
  return at + "[" + std::to_string(i) + "]";
}

bool one_of(const std::string& value, const std::string& allowed) {
  return ("|" + allowed + "|").find("|" + value + "|") != std::string::npos;
}

std::string fmt(double value) { return format_double(value); }

struct Problems {
  std::vector<std::string> list;  ///< "path: message"
  void expect(bool holds, std::string problem) {
    if (!holds) list.push_back(std::move(problem));
  }
};

/// Walks one report against the table's view for its mode.
class Walk {
 public:
  Walk(ReportMode mode, Problems& p) : p_(p) {
    for (const auto& f : report_fields()) {
      if (f.mode != mode && f.mode != ReportMode::Both) continue;
      fields_[f.path] = &f;
      const auto dot = f.path.rfind('.');  // npos + 1 == 0: the whole path
      members_[dot == std::string::npos ? "" : f.path.substr(0, dot)].push_back(
          f.path.substr(dot + 1));
    }
  }

  void object(const JsonValue& obj, const std::string& prefix, const std::string& at) {
    for (const auto& [key, value] : obj.as_object()) {
      const auto it = fields_.find(join(prefix, key));
      p_.expect(it != fields_.end(), join(at, key) + ": undeclared field");
      if (it != fields_.end()) field(value, *it->second, join(at, key), false);
    }
    for (const auto& key : members_.at(prefix))  // every container has members
      p_.expect(obj.has(key) || fields_.at(join(prefix, key))->optional,
                join(at, key) + ": missing");
  }

 private:
  /// `element`: `value` is one element of the array field `f`.
  void field(const JsonValue& value, const ReportField& f, const std::string& at,
             bool element) {
    auto type = f.type;
    if (element) type = type == FieldType::Objects ? FieldType::Object : FieldType::Number;
    const auto t = static_cast<std::size_t>(type);
    if (value.kind() != kKinds[t]) return p_.expect(false, at + ": is not " + kTypeNames[t]);
    if (type == FieldType::Object) {
      object(value, element ? f.path + "[]" : f.path, at);
    } else if (type == FieldType::Objects || type == FieldType::Numbers) {
      for (std::size_t i = 0; i < value.size(); ++i) field(value[i], f, indexed(at, i), true);
    } else if (f.rule == FieldRule::OneOf) {
      p_.expect(one_of(value.as_string(), f.one_of),
                at + ": '" + value.as_string() + "' is not one of " + f.one_of);
    } else {
      const double x = value.as_number();
      const std::string is = at + ": " + fmt(x) + " is ";
      p_.expect(f.rule != FieldRule::NonNegative || x >= 0.0, is + "negative");
      p_.expect(f.rule != FieldRule::Positive || x > 0.0, is + "not positive");
      p_.expect(f.rule != FieldRule::Fraction || (x >= 0.0 && x <= 1.0),
                is + "not a fraction in [0, 1]");
    }
  }

  std::map<std::string, const ReportField*> fields_;
  /// Member keys each object prefix declares ("" the document, "x[]" the
  /// elements of x).
  std::map<std::string, std::vector<std::string>> members_;
  Problems& p_;
};

// ---- cross-field invariants ----------------------------------------------------
// One statement per invariant. Presence, types and per-field rules are the
// walk's; a value the walk already flagged reads as 0 here.

double num(const JsonValue& value, const char* key) { return value[key].as_number(); }

/// Sum of `key` over an array of objects, or of an array of numbers when
/// `key` is null.
double sum(const JsonValue& array, const char* key) {
  double total = 0.0;
  for (const auto& element : array.as_array())
    total += key == nullptr ? element.as_number() : num(element, key);
  return total;
}

bool close(double a, double b) { return std::abs(a - b) <= 1e-6 * std::max(std::abs(b), 1.0); }

/// The log2 bucket an emitted upper bound closes (obs/metrics.hpp): le = 0
/// holds only 0 and le = 2^i - 1 holds [2^(i-1), 2^i - 1]; -1 for any other
/// bound.
int bucket_index(double le) {
  if (!(le >= 1.0)) return le == 0.0 ? 0 : -1;
  const auto i = static_cast<int>(std::lround(std::log2(le + 1.0)));
  return i <= 64 && std::ldexp(1.0, i) - 1.0 == le ? i : -1;
}

void check_histogram(const JsonValue& hist, const std::string& at, Problems& p) {
  const auto& buckets = hist["buckets"];
  double lo = 0.0, hi = 0.0, previous = -1.0;
  std::vector<double> bounds;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double le = num(buckets[b], "le"), n = num(buckets[b], "count");
    const int i = bucket_index(le);
    const std::string bound = indexed(at + ".buckets", b) + ".le: ";
    p.expect(i >= 0, bound + fmt(le) + " is not 0 or 2^i - 1");
    p.expect(le > previous, bound + "bounds not ascending");
    lo += i > 0 ? n * std::ldexp(1.0, i - 1) : 0.0;
    hi += n * le;
    previous = le;
    bounds.push_back(le);
  }
  const double total = num(hist, "sum");
  p.expect(sum(buckets, "count") == num(hist, "count"), at + ".count: not the bucket total");
  p.expect(lo <= total && total <= hi,
           at + ".sum: " + fmt(total) + " outside [" + fmt(lo) + ", " + fmt(hi) + "]");
  p.expect(num(hist, "p50") <= num(hist, "p95") && num(hist, "p95") <= num(hist, "p99"),
           at + ".p50: p50 <= p95 <= p99 does not hold");
  for (const char* q : {"p50", "p95", "p99"})
    p.expect(bounds.empty() || std::ranges::count(bounds, num(hist, q)) > 0,
             at + "." + q + ": " + fmt(num(hist, q)) + " is not a bucket bound");
}

void check_analysis(const JsonValue& a, const std::string& at, Problems& p) {
  const double cp = num(a, "critical_path_us"), eps = 1e-6 * std::max(cp, 1.0);
  std::string categories;
  for (const auto& b : a["blame"].as_array()) {
    if (!categories.empty()) categories += '|';
    categories += b["category"].as_string();
  }
  p.expect(categories == kBlames, at + ".blame: categories are not " + kBlames);
  p.expect(std::abs(sum(a["blame"], "time_us") - cp) <= eps,
           at + ".blame: does not sum to critical_path_us");
  const auto& top = a["top_segments"];
  for (std::size_t i = 0; i < top.size(); ++i) {
    const double begin = num(top[i], "begin_us"), end = num(top[i], "end_us");
    const std::string segment = indexed(at + ".top_segments", i);
    p.expect(begin >= -eps && begin < end && end <= cp + eps,
             segment + ": begin_us..end_us is not in the path");
    p.expect(std::abs(num(top[i], "time_us") - (end - begin)) <= eps,
             segment + ".time_us: is not end_us - begin_us");
  }
}

void check_single(const JsonValue& doc, Problems& p) {
  const auto& result = doc["result"];
  double slowest = 0.0;
  for (const auto& t : result["rank_times_us"].as_array())
    slowest = std::max(slowest, t.as_number());
  p.expect(result["rank_times_us"].size() == 0 || close(slowest, num(result, "job_time_us")),
           "result.job_time_us: is not the max of rank_times_us");

  const auto& histograms = doc["metrics"]["histograms"];
  for (std::size_t h = 0; h < histograms.size(); ++h)
    check_histogram(histograms[h], indexed("metrics.histograms", h), p);

  // Table-I path: every channel decision is one message send (eager or
  // rendezvous) or one one-sided op (MPI_Put, MPI_Get, MPI_Accumulate).
  std::map<std::string, double> counters;
  for (const auto& c : doc["metrics"]["counters"].as_array())
    counters[c["name"].as_string()] = num(c, "value");
  double channel_counters = 0.0;
  for (const auto& [name, value] : counters)
    if (name.starts_with("channel.")) channel_counters += value;
  const double channel_ops = sum(doc["profile"]["channels"], "ops");
  p.expect(counters.empty() || channel_counters == channel_ops,
           "metrics.counters: channel.* counters != profile.channels ops");
  double one_sided = 0.0;
  for (const auto& call : doc["profile"]["calls"].as_array()) {
    const std::string& name = call["name"].as_string();
    if (name == "MPI_Put" || name == "MPI_Get" || name == "MPI_Accumulate")
      one_sided += num(call, "count");
  }
  p.expect((!counters.contains("adi3.eager_sends") && !counters.contains("adi3.rndv_sends")) ||
               counters["adi3.eager_sends"] + counters["adi3.rndv_sends"] + one_sided ==
                   channel_ops,
           "metrics.counters: adi3.eager_sends + adi3.rndv_sends + one-sided calls != "
           "profile.channels ops");

  p.expect(sum(doc["spans"]["by_category"], "count") == num(doc["spans"], "count"),
           "spans.count: is not the sum of by_category counts");

  // Committed checkpoints are monotone in round and virtual time.
  const auto& recovery = doc["recovery"];
  const auto& events = recovery["events"];
  p.expect(static_cast<double>(events.size()) == num(recovery, "checkpoints"),
           "recovery.checkpoints: is not the number of events");
  for (std::size_t i = 1; i < events.size(); ++i) {
    const std::string event = indexed("recovery.events", i);
    p.expect(num(events[i], "round") > num(events[i - 1], "round"),
             event + ".round: not after the previous round");
    p.expect(num(events[i], "at_us") > num(events[i - 1], "at_us"),
             event + ".at_us: not after the previous checkpoint");
  }
  p.expect(recovery["restored"].as_bool() || num(recovery, "restore_round") == 0.0,
           "recovery.restore_round: set without restored = true");

  if (doc.has("net")) {
    const auto& net = doc["net"];
    const auto& links = net["link_utils"];
    p.expect(num(net, "congested_transfers") <= num(net, "transfers"),
             "net.congested_transfers: exceeds transfers");
    p.expect(num(net, "max_factor") >= 1.0, "net.max_factor: is below 1");
    p.expect(sum(net["hop_histogram"], nullptr) == num(net, "transfers"),
             "net.hop_histogram: does not sum to transfers");
    for (std::size_t i = 0; i < links.size(); ++i)
      p.expect(num(links[i], "mean") <= num(links[i], "peak") + 1e-9,
               indexed("net.link_utils", i) + ".mean: exceeds peak");
    p.expect(static_cast<double>(links.size()) <= num(net, "links"),
             "net.link_utils: more rows than links");
  }

  if (doc.has("reg_cache")) {
    const auto& reg = doc["reg_cache"];
    const double pinned = num(reg, "pinned_bytes"), peak = num(reg, "peak_pinned_bytes");
    p.expect(pinned <= peak, "reg_cache.pinned_bytes: exceeds peak_pinned_bytes");
    p.expect(peak <= num(reg, "capacity_bytes"),
             "reg_cache.peak_pinned_bytes: exceeds capacity_bytes");
    p.expect(pinned <= num(reg, "registered_bytes"),
             "reg_cache.pinned_bytes: exceeds registered_bytes");
    p.expect(num(reg, "misses") > 0.0 || num(reg, "registered_bytes") == 0.0,
             "reg_cache.misses: 0 although bytes were registered");
    for (const std::string key : {"hits", "misses", "evictions"}) {
      const auto counter = counters.find("hca.reg_cache." + key);
      p.expect(counter == counters.end() || counter->second == num(reg, key.c_str()),
               "reg_cache." + key + ": differs from counter hca.reg_cache." + key);
    }
  }

  if (doc.has("analysis")) check_analysis(doc["analysis"], "analysis", p);
}

void check_schedule(const JsonValue& doc, Problems& p) {
  const auto& jobs = doc["jobs"];
  double crash_rows = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string at = indexed("jobs", i);
    p.expect(num(jobs[i], "start_us") >= num(jobs[i], "submit_us"),
             at + ".start_us: before submit_us");
    p.expect(num(jobs[i], "end_us") >= num(jobs[i], "start_us"), at + ".end_us: before start_us");
    if (jobs[i].has("crash")) ++crash_rows;
    if (jobs[i].has("analysis")) check_analysis(jobs[i]["analysis"], at + ".analysis", p);
  }
  p.expect(crash_rows <= num(doc["cluster"]["recovery"], "crashes"),
           "jobs: more crash rows than cluster.recovery.crashes");
}

void check_migration(const JsonValue& m, Problems& p) {
  const auto& records = m["records"];
  p.expect(num(m, "rejected") + num(m, "executed") <= num(m, "proposed"),
           "migration.executed: rejected + executed exceed proposed");
  p.expect(static_cast<double>(records.size()) == num(m, "executed"),
           "migration.records: not one record per executed move");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string record = indexed("migration.records", i);
    p.expect(records[i]["move"]["ranks"].size() > 0, record + ".move.ranks: empty rank set");
    p.expect(num(records[i], "resume_at_us") >= num(records[i], "quiesce_at_us"),
             record + ".resume_at_us: before quiesce_at_us");
  }
  p.expect(records.size() == 0 || close(sum(records, "pause_us"), num(m, "total_pause_us")),
           "migration.total_pause_us: is not the sum of the record pauses");
}

}  // namespace

const std::vector<ReportField>& report_fields() {
  static const std::vector<ReportField> fields = flatten();
  return fields;
}

std::vector<std::string> check_report(const JsonValue& doc) {
  Problems p;
  const std::string& mode = doc["mode"].as_string();
  if (mode != "single" && mode != "schedule")
    return {"mode: '" + mode + "' is not single|schedule"};
  Walk(mode == "single" ? kSingle : kSchedule, p).object(doc, "", "");
  p.expect(num(doc, "version") == kRunReportVersion,
           "version: " + fmt(num(doc, "version")) + " is not " + std::to_string(kRunReportVersion));
  if (mode == "single") check_single(doc, p);
  else check_schedule(doc, p);
  const auto& recovery = doc["cluster"]["recovery"];  // either mode, when present
  p.expect(num(recovery, "restarts_from_checkpoint") <= num(recovery, "crashes"),
           "cluster.recovery.restarts_from_checkpoint: exceeds crashes");
  p.expect(num(recovery, "requeues") <= num(recovery, "crashes"),
           "cluster.recovery.requeues: exceeds crashes");
  if (doc.has("migration")) check_migration(doc["migration"], p);
  return p.list;
}

}  // namespace cbmpi::obs::analysis
