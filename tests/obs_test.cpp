// Observability-layer tests: JSON writer correctness (escaping, number
// formatting, structural validity), metrics registry semantics, log2
// histogram bucket boundaries, canonical span ordering and nesting, the
// versioned run report (golden shape, Table-I consistency, byte-identical
// reruns), the Perfetto export, and the zero-virtual-time-overhead
// guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mpi/runtime.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "sched/scheduler.hpp"
#include "sim/trace_export.hpp"

namespace cbmpi {
namespace {

using container::DeploymentSpec;

// ---- a mini JSON validator -------------------------------------------------
// Strict syntactic checker (RFC 8259 subset: no leading zeros enforced, but
// escapes, nesting and separators are). Enough to prove every emitted
// document parses — independently of Python's json module used in CI.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return false;  // raw control character: invalid
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i)
            if (pos_ + static_cast<std::size_t>(i) >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(
                    text_[pos_ + static_cast<std::size_t>(i)])))
              return false;
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---- deterministic observability job ---------------------------------------
// Blocking-only traffic (ping-pong, collectives, compute): completion order
// equals program order, so rank clocks — and therefore the whole report —
// are a pure function of the seed.

mpi::JobConfig obs_job_config(bool observe) {
  mpi::JobConfig config;
  config.deployment = DeploymentSpec::containers(2, 2, 2);
  config.policy = fabric::LocalityPolicy::ContainerAware;
  config.observe = observe;
  config.seed = 7;
  return config;
}

void obs_job_body(mpi::Process& p) {
  auto& world = p.world();
  std::vector<double> buf(4096);
  p.compute(500.0);
  if (p.rank() == 0) {
    world.send(std::span<const double>(buf), 1, 3);
    world.recv(std::span<double>(buf), 1, 4);
    // A rendezvous-sized message exercises the rndv protocol span.
    std::vector<double> big(64 * 1024);
    world.send(std::span<const double>(big), 1, 5);
  } else if (p.rank() == 1) {
    world.recv(std::span<double>(buf), 0, 3);
    world.send(std::span<const double>(buf), 0, 4);
    std::vector<double> big(64 * 1024);
    world.recv(std::span<double>(big), 0, 5);
  }
  world.barrier();
  std::vector<double> out(buf.size());
  world.allreduce(std::span<const double>(buf), std::span<double>(out),
                  mpi::ReduceOp::Sum);
  world.bcast(std::span<double>(out), 0);
  p.compute(200.0);
}

obs::ReportContext test_context() {
  obs::ReportContext ctx;
  ctx.app = "obs-test";
  ctx.deployment = "2x2x2";
  ctx.policy = "aware";
  ctx.seed = 7;
  return ctx;
}

// ---- JSON writer -----------------------------------------------------------

TEST(ObsJson, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(obs::escape_json("plain"), "plain");
  EXPECT_EQ(obs::escape_json("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::escape_json("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::escape_json("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(obs::escape_json("\b\f"), "\\b\\f");
  EXPECT_EQ(obs::escape_json(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(ObsJson, FormatDoubleIsFixed) {
  EXPECT_EQ(obs::format_double(0.0), "0");
  EXPECT_EQ(obs::format_double(42.0), "42");
  EXPECT_EQ(obs::format_double(-3.0), "-3");
  EXPECT_EQ(obs::format_double(0.5), "0.5");
  EXPECT_EQ(obs::format_double(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(obs::format_double(std::numeric_limits<double>::infinity()), "0");
}

// Reference renderings through snprintf: "%.0f"/"%.10g" is the documented
// JSON number format, "%.6g" what std::ostream prints for a legacy instant's
// timestamp.
std::string snprintf_json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  if (value == std::floor(value) && std::fabs(value) < 9.0e15)
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  else
    std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string snprintf_g6(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// Edge cases plus seeded doubles: raw bit patterns (NaN payloads,
/// subnormals, huge exponents), integers straddling the 9e15 cutoff,
/// virtual-time-like values and short decimals at every scale.
std::vector<double> differential_doubles() {
  using lim = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, 9e15, -9e15, std::nextafter(9e15, 0.0), std::nextafter(-9e15, 0.0),
      std::nextafter(9e15, 1e16), 1e-5, -1e-5, lim::denorm_min(), -lim::denorm_min(),
      lim::min() / 3.0, lim::min(), 1e300, -1e300, lim::max(), lim::lowest(),
      lim::quiet_NaN(), -lim::quiet_NaN(), lim::infinity(), -lim::infinity(), 0.5,
      2.5, 0.1, 999999.5, 9999999999.5, 123456.7890123, 1e16, 1e21};
  std::mt19937_64 rng(20161016);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  while (values.size() < 120000) {
    switch (values.size() % 4) {
      case 0: values.push_back(std::bit_cast<double>(rng())); break;
      case 1:
        values.push_back(static_cast<double>(
            static_cast<std::int64_t>(rng() % 20'000'000'000'000'000ULL) -
            10'000'000'000'000'000LL));
        break;
      case 2: values.push_back(unit(rng) * 1e7); break;
      default:
        values.push_back(std::round(unit(rng) * 1e6) / 1e3 *
                         std::pow(10.0, exponent(rng)));
    }
  }
  return values;
}

TEST(ObsJson, NumberFormattingMatchesSnprintf) {
  for (const double v : differential_doubles()) {
    std::string number;
    obs::append_number(number, v);
    ASSERT_EQ(number, snprintf_json_number(v)) << std::hexfloat << v;

    // A legacy instant renders its ts between "ts": and the next comma.
    const sim::TraceEvent event{sim::TraceKind::SendEager, 0, 1, 8, v, ""};
    const std::string doc = sim::to_chrome_trace(std::span(&event, 1));
    const auto at = doc.find("\"ts\":") + 5;
    ASSERT_EQ(doc.substr(at, doc.find(',', at) - at), snprintf_g6(v)) << std::hexfloat << v;
  }
}

TEST(ObsJson, WriterEmitsValidNestedDocument) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("name", "x\"y\\z\n");
  w.field("count", std::uint64_t{7});
  w.field("ratio", 0.25);
  w.field("on", true);
  w.key("rows").begin_array();
  for (int i = 0; i < 3; ++i) {
    w.begin_object();
    w.field("i", i);
    w.end_object();
  }
  w.end_array();
  w.key("empty").begin_array();
  w.end_array();
  w.end_object();
  const std::string doc = w.str();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"rows\":[{\"i\":0},{\"i\":1},{\"i\":2}]"), std::string::npos);
}

// ---- metrics ---------------------------------------------------------------

TEST(ObsMetrics, CounterAndGaugeBasics) {
  obs::MetricsRegistry registry;
  auto& c = registry.counter("ops");
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
  EXPECT_EQ(&registry.counter("ops"), &c);  // lookup-or-create returns the same

  auto& g = registry.gauge("level");
  g.set(1.5);
  g.set(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 0.5);  // last write wins
}

TEST(ObsMetrics, KindConflictThrows) {
  obs::MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), Error);
  EXPECT_THROW(registry.histogram("x"), Error);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  // bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i - 1].
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3);
  EXPECT_EQ(obs::Histogram::bucket_of(1023), 10);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11);
  EXPECT_EQ(obs::Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64);

  EXPECT_EQ(obs::Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(obs::Histogram::bucket_upper(10), 1023u);
  EXPECT_EQ(obs::Histogram::bucket_upper(64),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ObsMetrics, HistogramSnapshotSumsMatch) {
  obs::Histogram h;
  const std::uint64_t values[] = {0, 1, 1, 2, 3, 4, 100, 1024};
  std::uint64_t sum = 0;
  for (const auto v : values) {
    h.observe(v);
    sum += v;
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, std::size(values));
  EXPECT_EQ(snap.sum, sum);
  std::uint64_t bucket_total = 0;
  std::uint64_t last_upper = 0;
  for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
    bucket_total += snap.buckets[i].count;
    if (i > 0) {
      EXPECT_GT(snap.buckets[i].upper, last_upper);
    }
    last_upper = snap.buckets[i].upper;
    EXPECT_GT(snap.buckets[i].count, 0u);  // only non-empty buckets emitted
  }
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ObsMetrics, HistogramPercentilesFromBuckets) {
  // Percentiles come from the log2 buckets: the answer is the upper bound of
  // the first bucket whose cumulative count reaches ceil(q * count).
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(1);      // bucket upper 1
  for (int i = 0; i < 9; ++i) h.observe(1000);    // bucket upper 1023
  h.observe(100000);                              // bucket upper 131071
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.percentile(0.50), 1u);
  EXPECT_EQ(snap.percentile(0.90), 1u);     // ceil(0.9*100)=90, first bucket
  EXPECT_EQ(snap.percentile(0.95), 1023u);
  EXPECT_EQ(snap.percentile(0.99), 1023u);
  EXPECT_EQ(snap.percentile(1.00), 131071u);
  EXPECT_EQ(snap.percentile(0.0), 1u);      // clamped to the first value
  EXPECT_EQ(obs::HistogramSnapshot{}.percentile(0.99), 0u);  // empty
  // Monotone in q by construction.
  EXPECT_LE(snap.percentile(0.50), snap.percentile(0.95));
  EXPECT_LE(snap.percentile(0.95), snap.percentile(0.99));
}

TEST(ObsMetrics, SnapshotIsNameSorted) {
  obs::MetricsRegistry registry;
  registry.counter("zeta").add(1);
  registry.counter("alpha").add(1);
  registry.counter("mid").add(1);
  registry.gauge("g2").set(2.0);
  registry.gauge("g1").set(1.0);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mid");
  EXPECT_EQ(snap.counters[2].first, "zeta");
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "g1");
  EXPECT_EQ(snap.gauges[1].first, "g2");
}

// ---- spans -----------------------------------------------------------------

TEST(ObsSpan, CanonicalSortOrder) {
  std::vector<obs::Span> spans;
  spans.push_back({"inner", obs::SpanCat::Coll, 0, -1, -1, 0, 5.0, 8.0, ""});
  spans.push_back({"outer", obs::SpanCat::Mpi, 0, -1, -1, 0, 5.0, 10.0, ""});
  spans.push_back({"first", obs::SpanCat::Mpi, 1, -1, -1, 0, 1.0, 2.0, ""});
  obs::sort_spans(spans);
  EXPECT_EQ(spans[0].name, "first");           // earliest begin first
  EXPECT_EQ(spans[1].name, "outer");           // same begin: longer span first
  EXPECT_EQ(spans[2].name, "inner");           // (parents precede children)
}

TEST(ObsSpan, RecorderCountsByCategory) {
  obs::SpanRecorder recorder;
  recorder.record({"a", obs::SpanCat::Mpi, 0, -1, -1, 0, 0.0, 1.0, ""});
  recorder.record({"b", obs::SpanCat::Proto, 0, 1, 0, 8, 0.0, 1.0, ""});
  recorder.record({"c", obs::SpanCat::Proto, 1, 0, 0, 8, 1.0, 2.0, ""});
  EXPECT_EQ(recorder.count(), 3u);
  EXPECT_EQ(recorder.count(obs::SpanCat::Proto), 2u);
  EXPECT_EQ(recorder.count(obs::SpanCat::Fault), 0u);
}

// ---- job profile report ----------------------------------------------------

TEST(ObsReport, JobProfileReportGoldenShape) {
  const auto result = mpi::run_job(obs_job_config(false), obs_job_body);
  const std::string report = result.profile.report();
  // mpiP-style sections with the calls this body is guaranteed to make.
  EXPECT_NE(report.find("Send"), std::string::npos);
  EXPECT_NE(report.find("Recv"), std::string::npos);
  EXPECT_NE(report.find("Allreduce"), std::string::npos);
  EXPECT_NE(report.find("Barrier"), std::string::npos);
  const double fraction = result.profile.comm_fraction();
  EXPECT_GE(fraction, 0.0);
  EXPECT_LE(fraction, 1.0);
  EXPECT_GT(result.profile.total.compute_time(), 0.0);
}

// ---- run report ------------------------------------------------------------

TEST(ObsReport, RunReportGoldenShape) {
  const auto result = mpi::run_job(obs_job_config(true), obs_job_body);
  const std::string json = obs::run_report_json(test_context(), result);
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);

  for (const char* key :
       {"\"schema\":\"cbmpi.run_report\"", "\"version\":6", "\"mode\":\"single\"",
        "\"job\":", "\"result\":", "\"profile\":", "\"metrics\":", "\"spans\":",
        "\"faults\":", "\"recovery\":", "\"comm_fraction\":", "\"rank_times_us\":",
        "\"counters\":", "\"histograms\":", "\"by_category\":", "\"p50\":",
        "\"p95\":", "\"p99\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key;

  const double fraction = result.profile.comm_fraction();
  EXPECT_GE(fraction, 0.0);
  EXPECT_LE(fraction, 1.0);
}

TEST(ObsReport, ChannelOpCountersMatchTableIPath) {
  // The per-channel counters bumped in the ADI3 hot path must agree with the
  // profile's Table-I channel accounting — same decisions, two observers.
  const auto result = mpi::run_job(obs_job_config(true), obs_job_body);
  std::uint64_t counter_total = 0;
  std::uint64_t eager = 0, rndv = 0;
  for (const auto& [name, value] : result.metrics.counters) {
    if (name.rfind("channel.", 0) == 0) counter_total += value;
    if (name == "adi3.eager_sends") eager = value;
    if (name == "adi3.rndv_sends") rndv = value;
  }
  std::uint64_t profile_total = 0;
  for (const auto kind : {fabric::ChannelKind::Shm, fabric::ChannelKind::Cma,
                          fabric::ChannelKind::Hca})
    profile_total += result.profile.total.channel_ops(kind);
  EXPECT_EQ(counter_total, profile_total);
  EXPECT_GT(profile_total, 0u);
  EXPECT_EQ(eager + rndv, profile_total);
  EXPECT_GT(rndv, 0u);  // the 512 KiB message must have gone rendezvous
}

TEST(ObsReport, ByteIdenticalAcrossReruns) {
  const auto a = mpi::run_job(obs_job_config(true), obs_job_body);
  const auto b = mpi::run_job(obs_job_config(true), obs_job_body);
  EXPECT_EQ(obs::run_report_json(test_context(), a),
            obs::run_report_json(test_context(), b));
  EXPECT_EQ(obs::to_perfetto(a.spans, a.trace), obs::to_perfetto(b.spans, b.trace));
}

TEST(ObsReport, ObserveNeverChangesVirtualTime) {
  const auto off = mpi::run_job(obs_job_config(false), obs_job_body);
  const auto on = mpi::run_job(obs_job_config(true), obs_job_body);
  EXPECT_DOUBLE_EQ(off.job_time, on.job_time);
  ASSERT_EQ(off.rank_times.size(), on.rank_times.size());
  for (std::size_t r = 0; r < off.rank_times.size(); ++r)
    EXPECT_DOUBLE_EQ(off.rank_times[r], on.rank_times[r]);
  EXPECT_FALSE(on.spans.empty());
  EXPECT_FALSE(on.metrics.empty());
  EXPECT_TRUE(off.spans.empty());
  EXPECT_TRUE(off.metrics.empty());
}

TEST(ObsReport, SpansNestProperlyOnRankTracks) {
  auto config = obs_job_config(true);
  config.record_trace = true;
  const auto result = mpi::run_job(config, obs_job_body);

  // Rank-track spans (everything except channel-track Proto spans) must form
  // a proper nesting per rank: in canonical order, a new span either starts
  // after the open one ends or ends within it.
  auto spans = result.spans;
  obs::sort_spans(spans);
  for (int rank = 0; rank < 8; ++rank) {
    std::vector<const obs::Span*> stack;
    for (const auto& span : spans) {
      if (span.rank != rank) continue;
      if (span.cat == obs::SpanCat::Proto && span.channel >= 0) continue;
      while (!stack.empty() && stack.back()->end <= span.begin) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_GE(stack.back()->end, span.end)
            << stack.back()->name << " vs " << span.name << " on rank " << rank;
      }
      stack.push_back(&span);
    }
  }

  // Every Coll span must sit inside an enclosing Mpi span's interval.
  for (const auto& span : spans) {
    if (span.cat != obs::SpanCat::Coll) continue;
    const bool enclosed =
        std::any_of(spans.begin(), spans.end(), [&](const obs::Span& outer) {
          return outer.cat == obs::SpanCat::Mpi && outer.rank == span.rank &&
                 outer.begin <= span.begin && outer.end >= span.end;
        });
    EXPECT_TRUE(enclosed) << span.name;
  }
}

// ---- perfetto / chrome-trace export ----------------------------------------

TEST(ObsTrace, PerfettoDocumentStructure) {
  auto config = obs_job_config(true);
  config.record_trace = true;
  const auto result = mpi::run_job(config, obs_job_body);
  const std::string doc = obs::to_perfetto(result.spans, result.trace);
  EXPECT_TRUE(JsonChecker(doc).valid());
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);  // duration events
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);  // track metadata
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);  // instants ride along
  EXPECT_NE(doc.find("\"pid\":1000"), std::string::npos);  // a channel track
  EXPECT_NE(doc.find("rank 0"), std::string::npos);
}

TEST(ObsTrace, ChromeTraceEscapesNastyNotes) {
  std::vector<sim::TraceEvent> events;
  events.push_back({sim::TraceKind::SendEager, 0, 1, 64, 1.0,
                    "quote \" backslash \\ newline \n tab \t"});
  events.push_back({sim::TraceKind::RecvComplete, 1, 0, 64, 2.0,
                    std::string("ctrl \x01\x02\x1f end")});
  const std::string doc = sim::to_chrome_trace(events);
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\\\""), std::string::npos);
  EXPECT_NE(doc.find("\\\\"), std::string::npos);
  EXPECT_NE(doc.find("\\n"), std::string::npos);
  EXPECT_NE(doc.find("\\u0001"), std::string::npos);
  EXPECT_NE(doc.find("\\u001f"), std::string::npos);
  // No raw control characters may survive into the document.
  for (const char c : doc) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
}

TEST(ObsTrace, EmptyInputsStillValid) {
  EXPECT_TRUE(JsonChecker(sim::to_chrome_trace({})).valid());
  EXPECT_TRUE(JsonChecker(obs::to_perfetto({}, {})).valid());
}

// ---- scheduler metrics export ----------------------------------------------

TEST(ObsSched, SchedulerExportsClusterMetrics) {
  sched::SchedulerConfig config;
  config.cluster_hosts = 2;
  config.host_shape = topo::HostShape{2, 4, true};
  sched::Scheduler scheduler(config);
  scheduler.set_runner([](const mpi::JobConfig&, const sched::JobSpec&) {
    mpi::JobResult result;
    result.job_time = 50.0;
    return result;
  });
  sched::JobSpec job;
  job.ranks = 4;
  job.ranks_per_container = 2;
  scheduler.submit(job);
  scheduler.submit(job);
  scheduler.run();

  obs::MetricsRegistry registry;
  scheduler.export_metrics(registry);
  const auto snap = registry.snapshot();

  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return v;
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  auto has_gauge = [&](const std::string& name) {
    return std::any_of(snap.gauges.begin(), snap.gauges.end(),
                       [&](const auto& g) { return g.first == name; });
  };
  EXPECT_EQ(counter("sched.jobs"), 2u);
  EXPECT_TRUE(has_gauge("sched.makespan_us"));
  EXPECT_TRUE(has_gauge("sched.utilization"));
  EXPECT_TRUE(has_gauge("sched.mean_queue_wait_us"));
  for (const auto& [name, hist] : snap.histograms)
    if (name == "sched.job_runtime_us") {
      EXPECT_EQ(hist.count, 2u);
    }
}

TEST(ObsSched, ScheduleReportGoldenShape) {
  sched::SchedulerConfig config;
  config.cluster_hosts = 2;
  config.host_shape = topo::HostShape{2, 4, true};
  sched::Scheduler scheduler(config);
  scheduler.set_runner([](const mpi::JobConfig&, const sched::JobSpec&) {
    mpi::JobResult result;
    result.job_time = 50.0;
    return result;
  });
  sched::JobSpec job;
  job.ranks = 4;
  job.ranks_per_container = 2;
  scheduler.submit(job);
  scheduler.run();

  auto ctx = test_context();
  ctx.cluster = &scheduler.metrics();
  const std::string json = obs::schedule_report_json(ctx, scheduler);
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  for (const char* key : {"\"mode\":\"schedule\"", "\"cluster\":", "\"jobs\":",
                          "\"makespan_us\":", "\"channel_ops\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key;
}

// ---- recovery reporting (v2) -----------------------------------------------

void checkpointing_body(mpi::Process& p) {
  auto& world = p.world();
  std::vector<double> buf(16, static_cast<double>(p.rank()));
  std::vector<double> out(buf.size());
  for (int round = p.start_round(); round < 8; ++round) {
    p.compute(100.0);
    world.allreduce(std::span<const double>(buf), std::span<double>(out),
                    mpi::ReduceOp::Sum);
    world.barrier();
    const auto bytes = std::as_bytes(std::span<const double>(buf));
    p.checkpoint(round + 1,
                 std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t*>(bytes.data()),
                     bytes.size()));
  }
}

TEST(ObsReport, RecoverySectionSerializesCheckpointEvents) {
  auto config = obs_job_config(true);
  config.checkpoint_interval = 5.0;
  const auto result = mpi::run_job(config, checkpointing_body);
  ASSERT_FALSE(result.checkpoints.empty());

  const std::string json = obs::run_report_json(test_context(), result);
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  for (const char* key :
       {"\"recovery\":", "\"checkpoints\":", "\"restored\":false",
        "\"events\":", "\"round\":", "\"at_us\":", "\"bytes\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key;

  // The recovery section is part of the byte-identical-rerun contract.
  const auto again = mpi::run_job(config, checkpointing_body);
  EXPECT_EQ(json, obs::run_report_json(test_context(), again));
}

TEST(ObsSched, CrashRecoveryScheduleReportIsByteIdenticalAcrossReruns) {
  const auto report_once = [] {
    sched::SchedulerConfig config;
    config.cluster_hosts = 2;
    config.host_shape = topo::HostShape{2, 4, true};
    config.policy = sched::PlacementPolicy::LocalityAware;
    config.seed = 21;
    config.max_restarts = 6;
    config.requeue_backoff = 25.0;
    config.checkpoint_interval = 5.0;
    sched::Scheduler scheduler(config);
    for (int i = 0; i < 3; ++i) {
      sched::JobSpec job;
      job.ranks = 4;
      job.ranks_per_container = 2;
      job.body = i % 2 == 0 ? "ring" : "cg";
      job.params.rounds = 8;
      job.submit_time = static_cast<Micros>(i) * 2.0;
      // Job 0 always crashes early; the rest flip deterministic coins.
      job.faults.rank_crash_prob = i == 0 ? 1.0 : 0.4;
      job.faults.crash_horizon = i == 0 ? 10.0 : 25.0;
      scheduler.submit(job);
    }
    scheduler.run();
    auto ctx = test_context();
    ctx.cluster = &scheduler.metrics();
    return obs::schedule_report_json(ctx, scheduler);
  };
  const std::string a = report_once();
  EXPECT_EQ(a, report_once());

  EXPECT_TRUE(JsonChecker(a).valid()) << a.substr(0, 400);
  // Crash attribution and recovery aggregates actually made it into the
  // document (job 0's guaranteed crash plus its requeued attempts).
  for (const char* key :
       {"\"recovery\":", "\"crashes\":", "\"requeues\":",
        "\"restarts_from_checkpoint\":", "\"lost_work_us\":",
        "\"outcome\":\"crashed\"", "\"crash\":", "\"kind\":", "\"rank\":",
        "\"at_us\":", "\"attempt\":1"})
    EXPECT_NE(a.find(key), std::string::npos) << key;
}

// ---- metrics summary rendering ---------------------------------------------

TEST(ObsReport, MetricsSummaryMentionsEveryInstrument) {
  obs::MetricsRegistry registry;
  registry.counter("ops.total").add(12);
  registry.gauge("load").set(0.75);
  registry.histogram("sizes").observe(100);
  const std::string text = obs::metrics_summary(registry.snapshot());
  EXPECT_NE(text.find("ops.total"), std::string::npos);
  EXPECT_NE(text.find("load"), std::string::npos);
  EXPECT_NE(text.find("sizes"), std::string::npos);
}

}  // namespace
}  // namespace cbmpi
