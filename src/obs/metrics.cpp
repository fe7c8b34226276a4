#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cbmpi::obs {

std::uint64_t HistogramSnapshot::percentile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t running = 0;
  for (const auto& bucket : buckets) {
    running += bucket.count;
    if (running >= target) return bucket.upper;
  }
  return buckets.back().upper;
}

std::uint64_t Histogram::bucket_upper(int index) {
  if (index <= 0) return 0;
  if (index >= 64) return std::numeric_limits<std::uint64_t>::max();
  return (std::uint64_t{1} << index) - 1;
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i)
    buckets_[static_cast<std::size_t>(i)] += other.buckets_[static_cast<std::size_t>(i)];
  sum_ += other.sum_;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.sum = sum_;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = buckets_[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    snap.buckets.push_back({bucket_upper(i), n});
    snap.count += n;
  }
  return snap;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  // std::map iteration is already name-sorted — the deterministic order the
  // exporters rely on.
  for (const auto& [name, instrument] : instruments_) {
    if (const auto* c = std::get_if<Counter>(&instrument))
      snap.counters.emplace_back(name, c->value());
    else if (const auto* g = std::get_if<Gauge>(&instrument))
      snap.gauges.emplace_back(name, g->value());
    else
      snap.histograms.emplace_back(name, std::get<Histogram>(instrument).snapshot());
  }
  return snap;
}

}  // namespace cbmpi::obs
