// Job-scoped metrics registry: named counters, gauges and log2-bucketed
// histograms, sampled in *virtual* time so reruns with the same seed are
// bit-identical.
//
// A registry is built once, on one thread, after the job it describes has
// ended: run_job reads each rank's records (mpi::RankRecords, where a rank's
// fiber observes its own message sizes and receive latencies into plain
// Histograms) and the merged profile, and the scheduler exports its cluster
// metrics the same way. No instrument is shared while ranks run, so none
// needs a lock or an atomic.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace cbmpi::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A last-write-wins double, for end-of-job summary values (virtual
/// makespan, utilization).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
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
    ++buckets_[static_cast<std::size_t>(bucket_of(value))];
    sum_ += value;
  }
  /// Adds every observation of `other`.
  void merge(const Histogram& other);

  HistogramSnapshot snapshot() const;

  /// 0 for 0, otherwise std::bit_width (1 + floor(log2 v)).
  static int bucket_of(std::uint64_t value) {
    return static_cast<int>(std::bit_width(value));
  }
  /// Inclusive upper bound of bucket i.
  static std::uint64_t bucket_upper(int index);

  static constexpr int kBuckets = 65;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t sum_ = 0;
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
  Counter& counter(const std::string& name) { return find<Counter>(name); }
  Gauge& gauge(const std::string& name) { return find<Gauge>(name); }
  Histogram& histogram(const std::string& name) { return find<Histogram>(name); }

  MetricsSnapshot snapshot() const;

 private:
  template <typename T>
  T& find(const std::string& name) {
    auto& slot = instruments_.try_emplace(name, std::in_place_type<T>).first->second;
    T* instrument = std::get_if<T>(&slot);
    CBMPI_REQUIRE(instrument != nullptr,
                  "metric '", name, "' already registered with another kind");
    return *instrument;
  }

  std::map<std::string, std::variant<Counter, Gauge, Histogram>> instruments_;
};

}  // namespace cbmpi::obs
