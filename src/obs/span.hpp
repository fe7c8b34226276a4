// Span-based tracing: begin/end intervals in virtual time, upgrading the
// instant-only sim::TraceEvent stream to something Perfetto renders as
// duration tracks.
//
// Span taxonomy (DESIGN.md §12):
//   Mpi      one user-level MPI call (name = "MPI_Send", ...), rank track
//   Coll     a collective resolved to an algorithm ("bcast/binomial"),
//            nested inside its Mpi span, rank track
//   Proto    one transfer's protocol interval (eager processing window or
//            the rendezvous RTS->done handshake), channel track
//   Compute  a Process::compute phase, rank track
//   Fault    recovery time (retry backoff, locality fallback), rank track
//   Migrate  live-migration time (quiesce snapshot, image transfer, resume),
//            rank track
//
// Recorder appends are thread-safe; append order across rank fibers is
// wall-clock noise, so mpi::run_job hands its spans out through
// take_sorted(), already in the canonical order (begin, end desc, cat, rank,
// peer, name, note) — a total order over the deterministic virtual-time
// payload, making exports bit-identical across reruns. Consumers view their
// input through canonical_spans(), which reads canonical input in place.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace cbmpi::obs {

enum class SpanCat : std::uint8_t { Mpi, Coll, Proto, Compute, Fault, Migrate };

inline constexpr std::size_t kSpanCats = 6;

const char* to_string(SpanCat cat);

struct Span {
  std::string name;
  SpanCat cat = SpanCat::Mpi;
  int rank = -1;     ///< the rank whose timeline this span belongs to
  int peer = -1;     ///< other side of a transfer, -1 when not a transfer
  int channel = -1;  ///< fabric::ChannelKind ordinal for Proto spans, -1 else
  Bytes bytes = 0;
  Micros begin = 0.0;
  Micros end = 0.0;
  std::string note;

  // Dependency payload for the analysis engine (src/obs/analysis). All of
  // these are trailing defaulted fields so the 9-field aggregate inits in
  // existing code and tests keep compiling, and none of them participate in
  // the canonical sort — they are derived from the same virtual-time state
  // the sort keys already pin down.
  std::int64_t xfer = -1;   ///< transfer id (src<<32 | seq) linking the
                            ///< sender's hand-off to the receiver's Proto
                            ///< span; -1 when the span is not a transfer
  Micros posted_at = -1.0;  ///< receiver posted the matching recv (-1 n/a)
  Micros sent_at = -1.0;    ///< sender handed the message to the fabric
  Micros avail_at = -1.0;   ///< payload (eager) / RTS (rndv) visible at
                            ///< the receiver
  Micros stall = 0.0;       ///< link-contention time added vs uncontended
  Micros reg_stall = 0.0;   ///< registration time the rndv pipeline could
                            ///< not hide

  Micros duration() const { return end - begin; }
};

class SpanRecorder {
 public:
  void record(Span span);

  /// Moves every span out in canonical span_less order, leaving the
  /// recorder empty.
  std::vector<Span> take_sorted();

  std::size_t count() const;
  std::size_t count(SpanCat cat) const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Canonical exporter order: (begin asc, end desc, cat, rank, peer, name,
/// note) — outer spans sort before the spans they contain.
bool span_less(const Span& a, const Span& b);

/// Sorts `spans` by span_less; spans that tie keep their relative order.
/// Sorts a compact key of everything but the names and moves each span once.
void sort_spans(std::vector<Span>& spans);

/// `spans` in canonical order: the input itself when it already is (one O(n)
/// pass), otherwise a sorted copy held in `storage`. The view lives as long
/// as both `spans` and `storage`.
std::span<const Span> canonical_spans(std::span<const Span> spans,
                                      std::vector<Span>& storage);

}  // namespace cbmpi::obs
