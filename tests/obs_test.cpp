// Observability-layer tests: JSON writer correctness (escaping, number
// formatting, structural validity), metrics registry semantics, log2
// histogram bucket boundaries, canonical span ordering and nesting, the
// versioned run report (golden shape, Table-I consistency, byte-identical
// reruns), the declared report schema and its checker, the report fact
// reader, the Perfetto export, and the zero-virtual-time-overhead
// guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/osu/microbench.hpp"
#include "common/error.hpp"
#include "migrate_fixture.hpp"
#include "mpi/runtime.hpp"
#include "obs/analysis/report_facts.hpp"
#include "obs/analysis/report_schema.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "sched/scheduler.hpp"

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

/// Edge cases plus 2^20 seeded doubles: raw bit patterns (NaN payloads,
/// subnormals, huge exponents), integers straddling the 9e15 cutoff,
/// virtual-time-like values, short decimals at every scale, and the edges of
/// append_number's exact "%.10g" path (1e-4 <= |v| < 1e10): decade
/// boundaries, exact ties at the tenth significant digit and roll-overs into
/// the next decade, each with neighbouring doubles and both signs.
std::vector<double> differential_doubles() {
  using lim = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, 9e15, -9e15, std::nextafter(9e15, 0.0), std::nextafter(-9e15, 0.0),
      std::nextafter(9e15, 1e16), 1e-5, -1e-5, lim::denorm_min(), -lim::denorm_min(),
      lim::min() / 3.0, lim::min(), 1e300, -1e300, lim::max(), lim::lowest(),
      lim::quiet_NaN(), -lim::quiet_NaN(), lim::infinity(), -lim::infinity(), 0.5,
      2.5, 0.1, 999999.5, 9999999999.5, -9999999999.5, 999999999.96, 0.99999999996,
      123456.7890123, 1e16, 1e21};
  // v and its three nearest doubles on each side, with both signs.
  const auto around = [&values](double v) {
    double up = v;
    double down = v;
    for (int i = 0; i < 4; ++i) {
      for (const double x : {up, down}) {
        values.push_back(x);
        values.push_back(-x);
      }
      up = std::nextafter(up, lim::infinity());
      down = std::nextafter(down, 0.0);
    }
  };
  const auto decimal = [](const char* mantissa, int exp10) {
    char text[32];
    std::snprintf(text, sizeof(text), "%se%d", mantissa, exp10);
    return std::strtod(text, nullptr);
  };
  for (int m = -6; m <= 12; ++m) {
    around(decimal("1", m));             // decade edge, 1e-4 and 1e10 too
    around(decimal("9.9999999995", m));  // rolls over into the next decade
    around(decimal("9.999999999", m));
  }
  // x.5 at the tenth digit, exactly: odd * 5^k / 2 in [1e9, 1e10) makes
  // odd / 2^(k+1) a double whose scaled value v * 10^k ends in .5.
  std::mt19937_64 rng(20161016);
  const auto tie = [&rng](int k) {
    const double pow5 = std::pow(5.0, k);
    const auto lo = static_cast<std::uint64_t>(std::ceil(2e9 / pow5));
    const auto hi = static_cast<std::uint64_t>(2e10 / pow5);
    const std::uint64_t odd = (lo + rng() % (hi - lo)) | 1;
    return std::ldexp(static_cast<double>(odd), -(k + 1));
  };
  for (int k = 0; k <= 13; ++k)
    for (int i = 0; i < 200; ++i) {
      const double v = tie(k);
      values.push_back(v);
      values.push_back(-v);
    }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> log_scale(-5.0, 11.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  std::uniform_int_distribution<int> tie_k(0, 13);
  while (values.size() < (1u << 20)) {
    switch (values.size() % 6) {
      case 0: values.push_back(std::bit_cast<double>(rng())); break;
      case 1:
        values.push_back(static_cast<double>(
            static_cast<std::int64_t>(rng() % 20'000'000'000'000'000ULL) -
            10'000'000'000'000'000LL));
        break;
      case 2: values.push_back(unit(rng) * 1e7); break;
      case 3: values.push_back(std::pow(10.0, log_scale(rng))); break;
      case 4: values.push_back((rng() & 1 ? -1.0 : 1.0) * tie(tie_k(rng))); break;
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
    const std::string doc = obs::to_perfetto({}, std::span(&event, 1));
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

// Every counter and every histogram's count, sum and buckets of one observed
// job, pinned: rank 0 sends an eager and a rendezvous message over each
// channel (SHM and CMA to ranks in its container and its host, the HCA to
// the other host), then every rank runs a message-path allreduce, a ring
// allgather (a step exchange) and a spread alltoall, at eager and rendezvous
// sizes. No one-sided op, so the channel counters are transfers only.
TEST(ObsMetrics, SnapshotOverEveryChannelAndCollectivePathIsPinned) {
  auto config = obs_job_config(true);
  config.deployment = DeploymentSpec::containers(2, 2, 4);
  config.coll_tuning.add(
      {.coll = coll::Coll::Allreduce, .algo = coll::Algo::RecursiveDoubling});
  config.coll_tuning.add({.coll = coll::Coll::Allgather, .algo = coll::Algo::Ring});
  config.coll_tuning.add({.coll = coll::Coll::Alltoall, .algo = coll::Algo::Spread});
  const auto result = mpi::run_job(config, [](mpi::Process& p) {
    auto& world = p.world();
    for (const std::size_t bytes : {std::size_t{1_KiB}, std::size_t{256_KiB}}) {
      std::vector<std::byte> buf(bytes);
      for (const int peer : {1, 2, 4}) {
        if (p.rank() == 0) world.send(std::span<const std::byte>(buf), peer, 1);
        if (p.rank() == peer) world.recv(std::span<std::byte>(buf), 0, 1);
      }
    }
    for (const std::size_t ints : {std::size_t{128}, std::size_t{16_KiB}}) {
      const std::vector<int> mine(ints, p.rank());
      std::vector<int> out(ints);
      world.allreduce(std::span<const int>(mine), std::span<int>(out),
                      mpi::ReduceOp::Max);
      std::vector<int> all(ints * static_cast<std::size_t>(p.size()));
      world.allgather(std::span<const int>(mine), std::span<int>(all));
      const std::vector<int> send(all.size(), p.rank());
      world.alltoall(std::span<const int>(send), std::span<int>(all));
    }
  });
  std::ostringstream measured;
  for (const auto& [name, value] : result.metrics.counters)
    measured << name << " " << value << "\n";
  for (const auto& [name, hist] : result.metrics.histograms) {
    measured << name << " count " << hist.count << " sum " << hist.sum << "\n ";
    for (const auto& bucket : hist.buckets)
      measured << " " << bucket.upper << ":" << bucket.count;
    measured << "\n";
  }
  EXPECT_EQ(measured.str(), R"(adi3.eager_sends 139
adi3.rndv_sends 139
channel.CMA.ops 84
channel.HCA.ops 110
channel.SHM.ops 84
job.ranks 8
adi3.message_bytes count 278 sum 9772032
  1023:136 2047:3 131071:136 524287:3
adi3.recv_latency_us count 278 sum 5005
  0:79 1:15 3:32 7:6 15:81 31:15 63:26 127:20 255:4
)");
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
  const std::string doc = obs::to_perfetto({}, events);
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

// ---- canonical span order at the source ------------------------------------

auto span_fields(const obs::Span& s) {
  return std::tie(s.name, s.cat, s.rank, s.peer, s.channel, s.bytes, s.begin,
                  s.end, s.note, s.xfer, s.posted_at, s.sent_at, s.avail_at,
                  s.stall, s.reg_stall);
}

auto trace_fields(const sim::TraceEvent& e) {
  return std::tie(e.kind, e.src, e.dst, e.size, e.at, e.note);
}

void expect_same_spans(const std::vector<obs::Span>& a,
                       const std::vector<obs::Span>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(span_fields(a[i]) == span_fields(b[i]))
        << "span " << i << ": " << a[i].name << " vs " << b[i].name;
}

/// JobResult::spans must already be in sort_spans order, so consumers can
/// read it in place, and JobResult::trace in trace_less order.
void expect_canonical(const mpi::JobResult& result) {
  ASSERT_FALSE(result.spans.empty());
  auto sorted = result.spans;
  obs::sort_spans(sorted);
  expect_same_spans(result.spans, sorted);
  ASSERT_FALSE(result.trace.empty());
  EXPECT_TRUE(std::ranges::is_sorted(result.trace, sim::trace_less));
}

/// `config` recording its event trace too.
mpi::JobConfig traced(mpi::JobConfig config) {
  config.record_trace = true;
  return config;
}

TEST(ObsSpan, JobResultSpansAreCanonical) {
  expect_canonical(mpi::run_job(traced(obs_job_config(true)), obs_job_body));

  auto fattree = traced(obs_job_config(true));
  fattree.fabric = net::FabricConfig::parse("fattree:4");
  const auto two_pass = mpi::run_job(fattree, obs_job_body);
  EXPECT_TRUE(two_pass.net.enabled);
  expect_canonical(two_pass);

  auto crashy = traced(obs_job_config(true));
  crashy.checkpoint_interval = 5.0;
  crashy.faults.rank_crash_prob = 1.0;
  crashy.faults.crash_horizon = 5000.0;  // first crash after a checkpoint
  std::shared_ptr<const mpi::CheckpointData> snapshot;
  try {
    mpi::run_job(crashy, checkpointing_body);
    FAIL() << "expected a crash";
  } catch (const mpi::JobCrashedError& e) {
    snapshot = e.checkpoint();
  }
  ASSERT_NE(snapshot, nullptr) << "no checkpoint committed before the crash";
  auto resume = traced(obs_job_config(true));
  resume.checkpoint_interval = 5.0;
  resume.restore = snapshot;
  const auto restarted = mpi::run_job(resume, checkpointing_body);
  EXPECT_TRUE(restarted.restored);
  expect_canonical(restarted);

  const auto job = ring_job(6, 16_KiB);
  const auto migrated =
      run_migrated(job, traced(config_for(job, two_host_placement())), defrag_plan());
  EXPECT_EQ(migrated.migration.executed, 1);
  expect_canonical(migrated);
}

TEST(ObsSpan, OsuAllreduceSpansRerunFieldForField) {
  mpi::JobConfig config;
  config.deployment = DeploymentSpec::containers(2, 2, 4);
  config.policy = fabric::LocalityPolicy::ContainerAware;
  config.observe = true;
  config.record_trace = true;
  const auto body = [](mpi::Process& p) {
    apps::osu::collective_latency(p, apps::osu::Collective::Allreduce, 8_KiB);
  };
  const auto a = mpi::run_job(config, body);
  const auto b = mpi::run_job(config, body);
  ASSERT_FALSE(a.spans.empty());
  expect_same_spans(a.spans, b.spans);
  ASSERT_FALSE(a.trace.empty());
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    ASSERT_TRUE(trace_fields(a.trace[i]) == trace_fields(b.trace[i]))
        << "trace event " << i << ": " << sim::to_string(a.trace[i].kind) << " vs "
        << sim::to_string(b.trace[i].kind);
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

// ---- declared report schema ------------------------------------------------

using obs::analysis::JsonValue;
using obs::analysis::ReportMode;

JsonValue parse_json(const std::string& text) {
  std::string error;
  JsonValue doc = JsonValue::parse(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  return doc;
}

/// obs_job_body plus a cross-host rendezvous (HCA path, pin-down cache) and
/// checkpointed rounds.
void schema_body(mpi::Process& p) {
  obs_job_body(p);
  std::vector<double> big(64 * 1024);
  if (p.rank() == 0) p.world().send(std::span<const double>(big), 2, 6);
  if (p.rank() == 2) p.world().recv(std::span<double>(big), 0, 6);
  checkpointing_body(p);
}

/// A single report with every optional single-mode section but migration:
/// fat-tree net, the reg-cache model, checkpoints, analysis and cluster.
std::string full_single_report() {
  auto config = obs_job_config(true);
  config.fabric = net::FabricConfig::parse("fattree:4");
  config.tuning.reg_model = true;
  config.checkpoint_interval = 5.0;
  const auto result = mpi::run_job(config, schema_body);
  const auto analysis = obs::analysis::analyze(
      result.spans, static_cast<int>(result.rank_times.size()), result.rank_times);
  const sched::ClusterMetrics cluster;
  auto ctx = test_context();
  ctx.analysis = &analysis;
  ctx.cluster = &cluster;
  return obs::run_report_json(ctx, result);
}

std::string migrated_single_report() {
  const auto job = ring_job(6, 16_KiB);
  return obs::run_report_json(
      test_context(),
      run_migrated(job, config_for(job, two_host_placement()), defrag_plan()));
}

/// A schedule report with crash rows, restored progress, per-job analyses
/// and a migration section with executed moves.
std::string full_schedule_report() {
  auto config = spread_cluster(migrate::MigrationPolicy::Defrag);
  config.observe = true;
  config.checkpoint_interval = 10.0;
  config.max_restarts = 4;
  sched::Scheduler scheduler(config);
  auto mix = fragmented_mix();
  mix[1].faults.rank_crash_prob = 1.0;
  mix[1].faults.crash_horizon = 60.0;
  for (auto& job : mix) scheduler.submit(std::move(job));
  scheduler.run();
  std::map<std::string, obs::analysis::Analysis> analyses;
  for (const auto& job : scheduler.jobs())
    if (!job.result.rank_times.empty())
      analyses.emplace(job.spec.name,
                       obs::analysis::analyze(job.result.spans,
                                              static_cast<int>(job.result.rank_times.size()),
                                              job.result.rank_times));
  auto ctx = test_context();
  ctx.cluster = &scheduler.metrics();
  ctx.job_analyses = &analyses;
  return obs::schedule_report_json(ctx, scheduler);
}

struct SchemaReports {
  std::string single = full_single_report();
  std::string migrated = migrated_single_report();
  std::string schedule = full_schedule_report();
};

const SchemaReports& schema_reports() {
  static const SchemaReports reports;
  return reports;
}

/// Every table path a document emits: dotted, "x[]" for array elements.
void collect_paths(const JsonValue& value, const std::string& path,
                   std::set<std::string>& out) {
  if (!path.empty()) out.insert(path);
  const auto members = [&](const JsonValue& obj, const std::string& prefix) {
    for (const auto& [key, member] : obj.as_object())
      collect_paths(member, prefix.empty() ? key : prefix + "." + key, out);
  };
  if (value.kind() == JsonValue::Kind::Object) members(value, path);
  for (const auto& element : value.as_array())
    if (element.kind() == JsonValue::Kind::Object) members(element, path + "[]");
}

TEST(ReportSchema, EmitterAndTableDeclareTheSameFields) {
  const auto& reports = schema_reports();
  std::set<std::pair<ReportMode, std::string>> emitted;
  for (const auto& [mode, text] :
       {std::pair{ReportMode::Single, reports.single},
        std::pair{ReportMode::Single, reports.migrated},
        std::pair{ReportMode::Schedule, reports.schedule}}) {
    const auto doc = parse_json(text);
    EXPECT_EQ(obs::analysis::check_report(doc), std::vector<std::string>{});
    std::set<std::string> paths;
    collect_paths(doc, "", paths);
    for (const auto& path : paths) emitted.insert({mode, path});
  }
  std::set<std::pair<ReportMode, std::string>> declared;
  for (const auto& field : obs::analysis::report_fields())
    declared.insert({field.mode, field.path});
  for (const auto& [mode, path] : emitted)
    EXPECT_TRUE(declared.contains({mode, path}) ||
                declared.contains({ReportMode::Both, path}))
        << "emitted but undeclared: " << path;
  for (const auto& field : obs::analysis::report_fields()) {
    const bool seen = field.mode == ReportMode::Both
                          ? emitted.contains({ReportMode::Single, field.path}) ||
                                emitted.contains({ReportMode::Schedule, field.path})
                          : emitted.contains({field.mode, field.path});
    EXPECT_TRUE(seen) << "declared but never emitted: " << field.path;
  }
}

/// One past the JSON value starting at text[i] (compact emitter output).
std::size_t skip_value(const std::string& text, std::size_t i) {
  if (text[i] == '"') {
    for (++i; text[i] != '"'; ++i)
      if (text[i] == '\\') ++i;
    return i + 1;
  }
  if (text[i] == '{' || text[i] == '[') {
    int depth = 0;
    do {
      if (text[i] == '"') {
        i = skip_value(text, i);
        continue;
      }
      if (text[i] == '{' || text[i] == '[') ++depth;
      if (text[i] == '}' || text[i] == ']') --depth;
      ++i;
    } while (depth > 0);
    return i;
  }
  while (text[i] != ',' && text[i] != '}' && text[i] != ']') ++i;
  return i;
}

/// Replaces the value at `path` ("net.link_utils[0].peak") in a compact
/// document, or removes the member when `value` is null.
std::string edit_report(std::string text, const std::string& path, const char* value) {
  std::size_t at = 0, key_begin = 0;  // `at`: start of the current value
  for (std::size_t begin = 0, end = 0; end != std::string::npos; begin = end + 1) {
    end = path.find('.', begin);
    std::string step = path.substr(begin, end - begin);
    int index = -1;
    if (const auto bracket = step.find('['); bracket != std::string::npos) {
      index = std::stoi(step.substr(bracket + 1));
      step.resize(bracket);
    }
    for (std::size_t i = at + 1;; ++i) {
      const std::size_t colon = skip_value(text, i);
      if (text.compare(i, colon - i, "\"" + step + "\"") == 0) {
        key_begin = i;
        at = colon + 1;
        break;
      }
      i = skip_value(text, colon + 1);
      if (text[i] != ',') {
        ADD_FAILURE() << "no " << path << " in the report";
        return text;
      }
    }
    if (index < 0) continue;
    std::size_t i = at + 1;
    for (int e = 0; e < index; ++e) i = skip_value(text, i) + 1;
    at = i;
  }
  const std::size_t value_end = skip_value(text, at);
  if (value != nullptr) return text.replace(at, value_end - at, value);
  if (text[value_end] == ',') return text.erase(key_begin, value_end + 1 - key_begin);
  return text.erase(key_begin - 1, value_end + 1 - key_begin);
}

/// One hand edit of an emitted report and the problem check_report must
/// report for it (a prefix of "path: message").
struct ReportEdit {
  char report;  ///< 'S' full single, 'C' full schedule
  const char* path;
  const char* value;  ///< replacement JSON; null removes the member
  const char* problem;
};

constexpr const char* kLowSumHistogram =
    R"({"name":"h","count":5,"sum":3,"p50":1023,"p95":1023,"p99":1023,)"
    R"("buckets":[{"le":1023,"count":5}]})";

const ReportEdit kReportEdits[] = {
    // Per-field rules: type, missing key, undeclared key, fraction,
    // non-negative, positive, one-of, and the version.
    {'S', "result.job_time_us", "\"fast\"", "result.job_time_us: is not a number"},
    {'S', "recovery.restored", "0", "recovery.restored: is not a bool"},
    {'S', "profile", "[]", "profile: is not an object"},
    {'S', "result.rank_times_us[1]", "\"x\"", "result.rank_times_us[1]: is not a number"},
    {'S', "result.hca_queue_pairs", nullptr, "result.hca_queue_pairs: missing"},
    {'S', "spans", nullptr, "spans: missing"},
    {'C', "cluster", nullptr, "cluster: missing"},
    {'C', "jobs[0].crash", "{}", "jobs[0].crash.kind: missing"},
    {'S', "job", R"({"app":"a","deployment":"d","policy":"p","seed":1,"user":2})",
     "job.user: undeclared field"},
    {'S', "profile.comm_fraction", "7.5", "profile.comm_fraction: 7.5 is not a fraction"},
    {'S', "net.link_utils[0].peak", "1.5", "net.link_utils[0].peak: 1.5 is not a fraction"},
    {'S', "faults.time_lost_us", "-1", "faults.time_lost_us: -1 is negative"},
    {'S', "net.hop_histogram[0]", "-1", "net.hop_histogram[0]: -1 is negative"},
    {'C', "migration.records[0].quiesce_round", "0",
     "migration.records[0].quiesce_round: 0 is not positive"},
    {'C', "jobs[0].outcome", "\"vanished\"", "jobs[0].outcome: 'vanished' is not one of"},
    {'S', "schema", "\"other\"", "schema: 'other' is not one of"},
    {'S', "version", "5", "version: 5 is not 6"},
    // Cross-field invariants, one edit each.
    {'S', "result.job_time_us", "1e9", "result.job_time_us: is not the max"},
    {'S', "metrics.histograms[0]", kLowSumHistogram, "metrics.histograms[0].sum: 3 outside"},
    {'S', "metrics.histograms[0].buckets[0].le", "1000",
     "metrics.histograms[0].buckets[0].le: 1000 is not 0 or 2^i - 1"},
    {'S', "metrics.histograms[0].buckets",
     R"([{"le":1023,"count":1},{"le":511,"count":1}])",
     "metrics.histograms[0].buckets[1].le: bounds not ascending"},
    {'S', "metrics.histograms[0].count", "1e9", "metrics.histograms[0].count:"},
    {'S', "metrics.histograms[0].p50", "1e18", "metrics.histograms[0].p50: p50 <= p95"},
    {'S', "metrics.histograms[0].p99", "5", "metrics.histograms[0].p99: 5 is not a bucket"},
    {'S', "profile.channels[0].ops", "1e9", "metrics.counters: channel.* counters"},
    {'S', "metrics.counters[0].value", "1e9", "metrics.counters: adi3.eager_sends"},
    {'S', "spans.count", "1", "spans.count:"},
    {'S', "recovery.checkpoints", "99", "recovery.checkpoints:"},
    {'S', "recovery.events[1].round", "0", "recovery.events[1].round:"},
    {'S', "recovery.events[1].at_us", "0", "recovery.events[1].at_us:"},
    {'S', "recovery.restore_round", "3", "recovery.restore_round:"},
    {'S', "net.congested_transfers", "1e12", "net.congested_transfers:"},
    {'S', "net.max_factor", "0.5", "net.max_factor:"},
    {'S', "net.transfers", "0", "net.hop_histogram: does not sum"},
    {'S', "net.link_utils[0].peak", "0", "net.link_utils[0].mean: exceeds peak"},
    {'S', "net.links", "0", "net.link_utils: more rows"},
    {'S', "reg_cache.peak_pinned_bytes", "0", "reg_cache.pinned_bytes: exceeds peak"},
    {'S', "reg_cache.capacity_bytes", "0", "reg_cache.peak_pinned_bytes: exceeds capacity"},
    {'S', "reg_cache.registered_bytes", "1", "reg_cache.pinned_bytes: exceeds registered"},
    {'S', "reg_cache.misses", "0", "reg_cache.misses: 0 although"},
    {'S', "reg_cache.hits", "1e9", "reg_cache.hits: differs from counter"},
    {'S', "analysis.critical_path_us", "1e9", "analysis.blame: does not sum"},
    {'S', "analysis.blame[0].category", "\"eager\"", "analysis.blame: categories"},
    {'S', "analysis.top_segments[0].end_us", "-1", "analysis.top_segments[0]: begin_us"},
    {'S', "analysis.top_segments[0].time_us", "1e9", "analysis.top_segments[0].time_us:"},
    {'C', "jobs[2].analysis.critical_path_us", "1e9", "jobs[2].analysis.blame: does not sum"},
    {'C', "migration.proposed", "0", "migration.executed: rejected + executed"},
    {'C', "migration.executed", "99", "migration.records:"},
    {'C', "migration.records[0].move.ranks", "[]", "migration.records[0].move.ranks:"},
    {'C', "migration.records[0].resume_at_us", "0", "migration.records[0].resume_at_us:"},
    {'C', "migration.total_pause_us", "1e9", "migration.total_pause_us:"},
    {'C', "cluster.recovery.restarts_from_checkpoint", "1e9",
     "cluster.recovery.restarts_from_checkpoint:"},
    {'C', "cluster.recovery.requeues", "1e9", "cluster.recovery.requeues:"},
    {'C', "cluster.recovery.crashes", "0", "jobs:"},
    {'C', "jobs[1].submit_us", "1e9", "jobs[1].start_us: before submit_us"},
    {'C', "jobs[0].start_us", "1e9", "jobs[0].end_us: before start_us"},
};

TEST(ReportSchema, EveryRuleAndInvariantNamesTheBrokenPath) {
  const auto& reports = schema_reports();
  for (const auto& edit : kReportEdits) {
    const std::string text = edit_report(
        edit.report == 'S' ? reports.single : reports.schedule, edit.path, edit.value);
    const auto problems = obs::analysis::check_report(parse_json(text));
    EXPECT_TRUE(std::any_of(problems.begin(), problems.end(),
                            [&](const std::string& p) { return p.starts_with(edit.problem); }))
        << edit.path << " = " << (edit.value ? edit.value : "(removed)") << " should report '"
        << edit.problem << "'; got:\n"
        << testing::PrintToString(problems);
  }
}

TEST(ReportSchema, CheckerRejectsAnUnknownMode) {
  const auto problems = obs::analysis::check_report(
      parse_json(edit_report(schema_reports().single, "mode", "\"batch\"")));
  EXPECT_EQ(problems, std::vector<std::string>{"mode: 'batch' is not single|schedule"});
}

// ---- report facts -------------------------------------------------------------

/// 1 MiB messages, one buffer reused, rank 0 on host 0 to rank 1 on host 1:
/// every transfer is an HCA rendezvous against the pin-down cache.
obs::analysis::ReportFacts reg_cache_facts(Bytes cache_bytes) {
  mpi::JobConfig config;
  config.deployment = DeploymentSpec::containers(2, 1, 1);
  config.policy = fabric::LocalityPolicy::ContainerAware;
  config.observe = true;
  config.tuning.reg_model = true;
  config.tuning.reg_cache_bytes = cache_bytes;
  const auto result = mpi::run_job(config, [](mpi::Process& p) {
    std::vector<std::uint8_t> buf(1_MiB);
    for (int i = 0; i < 8; ++i) {
      if (p.rank() == 0) p.world().send(std::span<const std::uint8_t>(buf), 1, i);
      if (p.rank() == 1) p.world().recv(std::span<std::uint8_t>(buf), 0, i);
    }
  });
  const auto analysis = obs::analysis::analyze(
      result.spans, static_cast<int>(result.rank_times.size()), result.rank_times);
  auto ctx = test_context();
  ctx.analysis = &analysis;
  return obs::analysis::parse_report_facts(
      parse_json(obs::run_report_json(ctx, result)),
      cache_bytes == 0 ? "cold.json" : "warm.json");
}

TEST(ReportFacts, ColdVersusWarmPinDownCacheDiff) {
  const auto cold = reg_cache_facts(0);
  const auto warm = reg_cache_facts(64_MiB);
  ASSERT_TRUE(cold.ok()) << testing::PrintToString(cold.problems);
  ASSERT_TRUE(warm.ok()) << testing::PrintToString(warm.problems);
  EXPECT_TRUE(cold.has_analysis);
  EXPECT_EQ(cold.mode, "single");
  // Table-declared scalars and the counter/histogram/blame/wait expansions.
  for (const char* name :
       {"result.job_time_us", "profile.comm_fraction", "reg_cache.misses",
        "counter.hca.reg_cache.hits", "hist.adi3.message_bytes.p99",
        "analysis.critical_path_us", "analysis.blame.registration_us",
        "analysis.wait.registration_us"})
    EXPECT_TRUE(cold.scalars.contains(name)) << name;
  EXPECT_EQ(cold.scalars.at("reg_cache.hits"), 0.0);
  EXPECT_GT(warm.scalars.at("reg_cache.hits"), 0.0);
  EXPECT_GT(cold.scalars.at("analysis.blame.registration_us"),
            warm.scalars.at("analysis.blame.registration_us"));

  const std::string diff = obs::analysis::render_diff(cold, warm);
  EXPECT_NE(diff.find("cold.json vs baseline warm.json"), std::string::npos);
  const auto row = diff.find("analysis.blame.registration_us");
  ASSERT_NE(row, std::string::npos) << diff;
  const std::string line = diff.substr(row, diff.find('\n', row) - row);
  EXPECT_NE(line.find("%"), std::string::npos) << line;
  EXPECT_EQ(line.find("-"), std::string::npos) << "cold must blame more: " << line;
}

TEST(ReportFacts, OneSidedJobPassesItsOwnChecker) {
  // A one-sided op takes a channel but sends no message: the report's
  // channel counters and its send counters must still agree with the
  // profile, and the checker must count the op.
  auto config = obs_job_config(true);
  config.deployment = DeploymentSpec::containers(1, 1, 2);
  const auto result = mpi::run_job(config, [](mpi::Process& p) {
    std::vector<int> memory(4, 0);
    mpi::Window<int> window(p.world(), std::span<int>(memory));
    const int value = p.rank();
    window.put(std::span<const int>(&value, 1), 1 - p.rank(), 0);
    window.fence();
  });
  const auto facts = obs::analysis::parse_report_facts(
      parse_json(obs::run_report_json(test_context(), result)), "put.json");
  EXPECT_TRUE(facts.ok()) << testing::PrintToString(facts.problems);
}

TEST(ReportFacts, UntrustedReportLoadsNoFacts) {
  const std::string bad = edit_report(
      edit_report(edit_report(schema_reports().single, "version", "99"), "result", nullptr),
      "profile.comm_fraction", "7.5");
  const auto facts = obs::analysis::parse_report_facts(parse_json(bad), "bad.json");
  EXPECT_FALSE(facts.ok());
  EXPECT_TRUE(facts.scalars.empty());
  EXPECT_EQ(facts.problems,
            (std::vector<std::string>{"profile.comm_fraction: 7.5 is not a fraction in [0, 1]",
                                      "result: missing", "version: 99 is not 6"}));
}

}  // namespace
}  // namespace cbmpi
