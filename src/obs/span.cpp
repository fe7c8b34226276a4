#include "obs/span.hpp"

#include <algorithm>
#include <tuple>

namespace cbmpi::obs {

const char* to_string(SpanCat cat) {
  switch (cat) {
    case SpanCat::Mpi: return "mpi";
    case SpanCat::Coll: return "coll";
    case SpanCat::Proto: return "proto";
    case SpanCat::Compute: return "compute";
    case SpanCat::Fault: return "fault";
    case SpanCat::Migrate: return "migrate";
  }
  return "?";
}

void SpanRecorder::record(Span span) {
  const std::scoped_lock lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::spans() const {
  const std::scoped_lock lock(mutex_);
  return spans_;
}

std::vector<Span> SpanRecorder::sorted_spans() const {
  auto snapshot = spans();
  sort_spans(snapshot);
  return snapshot;
}

std::size_t SpanRecorder::count() const {
  const std::scoped_lock lock(mutex_);
  return spans_.size();
}

std::size_t SpanRecorder::count(SpanCat cat) const {
  const std::scoped_lock lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [cat](const Span& s) { return s.cat == cat; }));
}

void SpanRecorder::clear() {
  const std::scoped_lock lock(mutex_);
  spans_.clear();
}

bool span_less(const Span& a, const Span& b) {
  // end sorts descending so an enclosing span precedes its children when
  // they share a begin time; everything after is a deterministic tiebreak
  // over the span's virtual-time payload.
  if (a.begin != b.begin) return a.begin < b.begin;
  if (a.end != b.end) return a.end > b.end;
  if (a.cat != b.cat) return static_cast<int>(a.cat) < static_cast<int>(b.cat);
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.peer != b.peer) return a.peer < b.peer;
  if (a.name != b.name) return a.name < b.name;
  return a.note < b.note;
}

void sort_spans(std::vector<Span>& spans) {
  // A lambda rather than the function pointer, so the comparison inlines.
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return span_less(a, b); });
}

}  // namespace cbmpi::obs
