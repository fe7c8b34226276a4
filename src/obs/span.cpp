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

std::vector<Span> SpanRecorder::take_sorted() {
  std::vector<Span> taken;
  {
    const std::scoped_lock lock(mutex_);
    taken.swap(spans_);
  }
  sort_spans(taken);
  return taken;
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

namespace {

/// The canonical order over anything carrying a span's begin, end, cat, rank
/// and peer; `rest` orders what those leave tied.
template <typename T, typename Rest>
bool canonical_before(const T& a, const T& b, Rest rest) {
  // end sorts descending so an enclosing span precedes its children when
  // they share a begin time; everything after is a deterministic tiebreak
  // over the span's virtual-time payload.
  if (a.begin != b.begin) return a.begin < b.begin;
  if (a.end != b.end) return a.end > b.end;
  if (a.cat != b.cat) return static_cast<int>(a.cat) < static_cast<int>(b.cat);
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.peer != b.peer) return a.peer < b.peer;
  return rest(a, b);
}

bool names_before(const Span& a, const Span& b) {
  if (a.name != b.name) return a.name < b.name;
  return a.note < b.note;
}

// A lambda rather than the function pointer, so the comparison inlines.
constexpr auto kSpanLess = [](const Span& a, const Span& b) { return span_less(a, b); };

}  // namespace

bool span_less(const Span& a, const Span& b) {
  return canonical_before(a, b, names_before);
}

void sort_spans(std::vector<Span>& spans) {
  if (std::is_sorted(spans.begin(), spans.end(), kSpanLess)) return;
  // Spans are ~150 bytes: sort a compact key of everything but the names
  // instead, then move each span into place once. Collectives leave many
  // spans of one (begin, end), so the key carries cat, rank and peer too and
  // only full ties read the spans; the index keeps those stable.
  struct Key {
    Micros begin;
    Micros end;
    std::size_t index;
    int rank;
    int peer;
    SpanCat cat;
  };
  std::vector<Key> keys;
  keys.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    keys.push_back({s.begin, s.end, i, s.rank, s.peer, s.cat});
  }
  std::sort(keys.begin(), keys.end(), [&spans](const Key& a, const Key& b) {
    return canonical_before(a, b, [&spans](const Key& x, const Key& y) {
      const Span& s = spans[x.index];
      const Span& t = spans[y.index];
      if (names_before(s, t)) return true;
      if (names_before(t, s)) return false;
      return x.index < y.index;
    });
  });
  std::vector<Span> sorted;
  sorted.reserve(spans.size());
  for (const Key& key : keys) sorted.push_back(std::move(spans[key.index]));
  spans = std::move(sorted);
}

std::span<const Span> canonical_spans(std::span<const Span> spans,
                                      std::vector<Span>& storage) {
  if (std::is_sorted(spans.begin(), spans.end(), kSpanLess)) return spans;
  storage.assign(spans.begin(), spans.end());
  sort_spans(storage);
  return storage;
}

}  // namespace cbmpi::obs
