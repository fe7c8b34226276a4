// Job-scoped metrics registry: named counters, gauges and log2-bucketed
// histograms, sampled in *virtual* time so reruns with the same seed are
// bit-identical.
//
// Concurrency model: rank fibers on several worker threads bump the same instrument
// concurrently. Counters and histograms only ever *add* unsigned integers
// (addition commutes, so the final totals are independent of thread
// interleaving); gauges are set from one thread (usually the runtime at job
// end) or via a monotone max. Instrument lookup takes a mutex — hot paths
// resolve their instruments once (e.g. at engine construction) and keep the
// returned references, which stay valid for the registry's lifetime.
//
// A null registry pointer means "observability off"; every instrumentation
// site guards on that, so disabled jobs pay nothing.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cbmpi::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A last-write-wins (or monotone-max) double. Meant for end-of-job summary
/// values (virtual makespan, utilization), not for cross-thread accumulation
/// — double addition does not commute bit-exactly.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot {
  struct Bucket {
    std::uint64_t upper = 0;  ///< largest value this bucket holds (inclusive)
    std::uint64_t count = 0;
  };
  std::uint64_t count = 0;  ///< total observations
  std::uint64_t sum = 0;    ///< sum of observed values
  std::vector<Bucket> buckets;  ///< non-empty buckets, ascending upper bound

  /// Quantile estimate from the log2 buckets: the inclusive upper bound of
  /// the first bucket whose cumulative count reaches ceil(q * count). An
  /// upper bound (within 2x of the true value), monotone in q, and a pure
  /// function of the snapshot — so reports stay byte-identical. 0 when the
  /// histogram is empty.
  std::uint64_t percentile(double q) const;
};

/// Power-of-two histogram over unsigned values (message sizes, queue
/// depths): bucket 0 holds value 0, bucket i >= 1 holds [2^(i-1), 2^i - 1].
class Histogram {
 public:
  void observe(std::uint64_t value) {
    buckets_[static_cast<std::size_t>(bucket_of(value))].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

  /// 0 for 0, otherwise std::bit_width (1 + floor(log2 v)).
  static int bucket_of(std::uint64_t value) {
    return static_cast<int>(std::bit_width(value));
  }
  /// Inclusive upper bound of bucket i.
  static std::uint64_t bucket_upper(int index);

  static constexpr int kBuckets = 65;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Snapshot of a whole registry, sorted by instrument name — the
/// deterministic form every exporter serializes.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

class MetricsRegistry {
 public:
  /// Finds or creates; the returned reference stays valid for the
  /// registry's lifetime. A name identifies exactly one instrument kind —
  /// asking for a counter named like an existing gauge throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

 private:
  struct Instrument {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Instrument> instruments_;
};

}  // namespace cbmpi::obs
