#include "obs/analysis/analysis.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "common/table.hpp"

namespace cbmpi::obs::analysis {

namespace {

// Comparisons between virtual times that should be equal but passed through
// independent floating-point paths. Smallest modeled cost is ~0.08 us, so a
// much finer tolerance cannot misclassify.
constexpr Micros kEps = 1e-6;

bool is_transfer(const Span& s) {
  return s.cat == SpanCat::Proto && (s.name == "eager" || s.name == "rndv");
}

Micros overlap(const Span& s, Micros lo, Micros hi) {
  return std::max(0.0, std::min(s.end, hi) - std::max(s.begin, lo));
}

/// Everything analyze() indexes out of the sorted span list.
struct Indexes {
  /// Outermost Mpi/Compute/Fault spans per rank, ascending begin.
  std::vector<std::vector<const Span*>> tracks;
  /// Fault "hca-retry" spans nested inside an Mpi span, per rank.
  std::vector<std::vector<const Span*>> retries;
  /// Completed transfers received by each rank, ascending end.
  std::vector<std::vector<const Span*>> recvs;
  /// Rendezvous transfers *sent* by each rank (span.peer), ascending sent_at.
  std::vector<std::vector<const Span*>> rndv_sends;
};

Indexes build_indexes(std::span<const Span> sorted, int nranks) {
  Indexes ix;
  const auto n = static_cast<std::size_t>(nranks);
  ix.tracks.resize(n);
  ix.retries.resize(n);
  ix.recvs.resize(n);
  ix.rndv_sends.resize(n);

  for (const auto& span : sorted) {
    const bool rank_ok = span.rank >= 0 && span.rank < nranks;
    if (is_transfer(span) && rank_ok) {
      ix.recvs[static_cast<std::size_t>(span.rank)].push_back(&span);
      if (span.name == "rndv" && span.peer >= 0 && span.peer < nranks)
        ix.rndv_sends[static_cast<std::size_t>(span.peer)].push_back(&span);
      continue;
    }
    if (!rank_ok) continue;
    if (span.cat != SpanCat::Mpi && span.cat != SpanCat::Compute &&
        span.cat != SpanCat::Fault)
      continue;  // Coll spans nest inside Mpi; used for imbalance only
    auto& track = ix.tracks[static_cast<std::size_t>(span.rank)];
    if (track.empty() || span.begin >= track.back()->end - kEps) {
      track.push_back(&span);
    } else if (span.cat == SpanCat::Fault && span.name == "hca-retry") {
      // Retry backoff charged inside the enclosing MPI call; kept aside so
      // the walk can carve it out of that call's blame.
      ix.retries[static_cast<std::size_t>(span.rank)].push_back(&span);
    }
  }
  // Canonical sort is (begin, end desc, ...); the walk wants recvs by
  // completion time and sends by hand-off time.
  for (auto& v : ix.recvs)
    std::stable_sort(v.begin(), v.end(), [](const Span* a, const Span* b) {
      return a->end < b->end;
    });
  for (auto& v : ix.rndv_sends)
    std::stable_sort(v.begin(), v.end(), [](const Span* a, const Span* b) {
      return a->sent_at < b->sent_at;
    });
  return ix;
}

void classify_wait_states(std::span<const Span> sorted, Analysis& a) {
  const int nranks = a.nranks;
  for (const auto& span : sorted) {
    if (!is_transfer(span) || span.rank < 0 || span.rank >= nranks) continue;
    auto& w = a.wait_states[static_cast<std::size_t>(span.rank)];
    w.contention += std::max(0.0, span.stall);
    w.registration += std::max(0.0, span.reg_stall);
    if (span.posted_at < 0.0 || span.avail_at < 0.0) continue;
    if (span.name == "rndv") {
      // Span begin is the RTS time; posted-vs-RTS order decides which side
      // waited through the handshake.
      if (span.avail_at > span.posted_at + kEps)
        w.late_sender += span.avail_at - span.posted_at;
      else if (span.posted_at > span.avail_at + kEps && span.peer >= 0 &&
               span.peer < nranks)
        a.wait_states[static_cast<std::size_t>(span.peer)].late_receiver +=
            span.posted_at - span.avail_at;
    } else {
      // Eager: the receiver only waited on the sender when availability was
      // the binding term of begin = max(posted, avail, busy).
      if (span.begin <= span.avail_at + kEps &&
          span.avail_at > span.posted_at + kEps)
        w.late_sender += span.avail_at - span.posted_at;
    }
  }

  // Collective imbalance: the i-th Coll span named X on each rank belongs to
  // the same logical collective call; the slowest rank sets the pace and
  // every other rank's (max - own) is imbalance wait.
  std::map<std::pair<std::string, int>, int> occurrence;  // (name, rank) -> i
  std::map<std::pair<std::string, int>,
           std::vector<std::pair<int, Micros>>>
      groups;  // (name, i) -> [(rank, duration)]
  for (const auto& span : sorted) {
    if (span.cat != SpanCat::Coll || span.rank < 0 || span.rank >= nranks)
      continue;
    const int i = occurrence[{span.name, span.rank}]++;
    groups[{span.name, i}].emplace_back(span.rank, span.duration());
  }
  std::map<std::string, CollGroupStat> by_name;
  for (const auto& [key, members] : groups) {
    Micros max_dur = 0.0, sum = 0.0;
    for (const auto& [rank, dur] : members) {
      max_dur = std::max(max_dur, dur);
      sum += dur;
    }
    const Micros avg = sum / static_cast<double>(members.size());
    for (const auto& [rank, dur] : members)
      a.wait_states[static_cast<std::size_t>(rank)].coll_imbalance +=
          max_dur - dur;
    auto& stat = by_name[key.first];
    stat.name = key.first;
    stat.calls += 1;
    stat.imbalance += max_dur - avg;
  }
  for (auto& [name, stat] : by_name) a.coll_groups.push_back(std::move(stat));
}

/// Backward critical-path walk. Starts at the last rank to finish and steps
/// to strictly earlier virtual times, hopping send->recv edges; the emitted
/// segments (reversed at the end) tile [0, critical_path] exactly, so the
/// blame totals sum to the path length.
class Walker {
 public:
  Walker(const Indexes& ix, Analysis& a) : ix_(ix), a_(&a) {}

  void run(int start_rank, Micros end_time) {
    int rank = start_rank;
    Micros t = end_time;
    // Every step emits a nonzero segment ending at t and lowers t to its
    // begin, so this is a pure safety net against float pathologies.
    const std::size_t guard = 16 + 4 * total_spans();
    for (std::size_t step = 0; t > kEps && step < guard; ++step)
      std::tie(rank, t) = advance(rank, t);
    if (t > kEps) emit(rank, 0.0, t, Blame::Idle, "idle");
    std::reverse(rev_.begin(), rev_.end());
    a_->segments = std::move(rev_);
  }

 private:
  std::size_t total_spans() const {
    std::size_t n = 0;
    for (const auto& v : ix_.tracks) n += v.size();
    for (const auto& v : ix_.recvs) n += v.size();
    return n;
  }

  void add_blame(Blame b, Micros amount) {
    if (amount > 0.0) a_->blame[static_cast<std::size_t>(b)] += amount;
  }

  /// Records [lo, t] and charges the whole interval to one category.
  void emit(int rank, Micros lo, Micros hi, Blame b, std::string name) {
    lo = std::max(lo, 0.0);
    if (hi - lo <= 0.0) return;
    add_blame(b, hi - lo);
    rev_.push_back({rank, lo, hi, b, std::move(name)});
  }

  /// Records a transfer interval, carving contention and unhidden
  /// registration out of the protocol's blame.
  void emit_transfer(int rank, Micros lo, Micros hi, const Span& p) {
    lo = std::max(lo, 0.0);
    const Micros len = hi - lo;
    if (len <= 0.0) return;
    const Micros cont = std::min(std::max(p.stall, 0.0), len);
    const Micros reg = std::min(std::max(p.reg_stall, 0.0), len - cont);
    add_blame(Blame::Contention, cont);
    add_blame(Blame::Registration, reg);
    const Blame proto = p.name == "rndv" ? Blame::Rndv : Blame::Eager;
    add_blame(proto, len - cont - reg);
    std::string name = p.name;
    if (!p.note.empty()) name += " " + p.note;
    rev_.push_back({rank, lo, hi, proto, std::move(name)});
  }

  /// Records an MPI-call interval with no transfer evidence, carving nested
  /// retry backoff out of the call's blame.
  void emit_mpi(int rank, Micros lo, Micros hi, const Span& s) {
    lo = std::max(lo, 0.0);
    const Micros len = hi - lo;
    if (len <= 0.0) return;
    Micros retry = 0.0;
    for (const Span* f : ix_.retries[static_cast<std::size_t>(rank)])
      retry += overlap(*f, lo, hi);
    retry = std::min(retry, len);
    add_blame(Blame::Retry, retry);
    add_blame(Blame::MpiOther, len - retry);
    rev_.push_back({rank, lo, hi, Blame::MpiOther, s.name});
  }

  /// Last track span on `rank` beginning strictly before `t`.
  const Span* covering(int rank, Micros t) const {
    const auto& track = ix_.tracks[static_cast<std::size_t>(rank)];
    auto it = std::upper_bound(track.begin(), track.end(), t - kEps,
                               [](Micros v, const Span* s) {
                                 return v < s->begin;
                               });
    return it == track.begin() ? nullptr : *(it - 1);
  }

  /// Latest transfer received by `rank` that completed in (floor, t].
  const Span* best_recv(int rank, Micros t, Micros floor) const {
    const auto& recvs = ix_.recvs[static_cast<std::size_t>(rank)];
    auto it = std::upper_bound(recvs.begin(), recvs.end(), t + kEps,
                               [](Micros v, const Span* s) {
                                 return v < s->end;
                               });
    while (it != recvs.begin()) {
      const Span* p = *(--it);
      if (p->end <= floor + kEps) return nullptr;
      if (p->begin < t) return p;
    }
    return nullptr;
  }

  /// Latest rendezvous sent by `rank` whose RTS was posted in [floor, t) and
  /// whose handshake was still in flight at t (the sender blocked through t).
  const Span* best_rndv_send(int rank, Micros t, Micros floor) const {
    const auto& sends = ix_.rndv_sends[static_cast<std::size_t>(rank)];
    for (auto it = sends.rbegin(); it != sends.rend(); ++it) {
      const Span* q = *it;
      if (q->sent_at >= t) continue;
      if (q->sent_at < floor - kEps) break;
      if (q->end >= t - kEps) return q;
    }
    return nullptr;
  }

  /// One backward step from (rank, t): emits exactly one segment ending at t
  /// and returns the predecessor point in virtual time.
  std::pair<int, Micros> advance(int rank, Micros t) {
    const Span* s = covering(rank, t);
    if (s == nullptr || s->end < t - kEps) {
      // Nothing on this rank's timeline covers t: idle gap back to the
      // previous span's end (or to time zero).
      const Micros lo = s == nullptr ? 0.0 : s->end;
      emit(rank, lo, t, Blame::Idle, "idle");
      return {rank, std::max(lo, 0.0)};
    }
    switch (s->cat) {
      case SpanCat::Compute:
        emit(rank, s->begin, t, Blame::Compute, s->name);
        return {rank, std::max(s->begin, 0.0)};
      case SpanCat::Fault: {
        const Blame b =
            s->name == "hca-retry" ? Blame::Retry : Blame::Recovery;
        emit(rank, s->begin, t, b, s->name);
        return {rank, std::max(s->begin, 0.0)};
      }
      default:
        break;  // Mpi: transfer evidence decides below
    }

    const Span* r = best_recv(rank, t, s->begin);
    const Span* q = best_rndv_send(rank, t, s->begin);
    // Prefer whichever dependency resolved later: a blocked sender resolves
    // at t itself, a received transfer at r->end <= t.
    if (q != nullptr && (r == nullptr || t >= r->end - kEps)) {
      // Sender side of a rendezvous: blocked from its RTS until the
      // receiver finished the pull; resume the walk on the receiver at the
      // moment it posted the matching recv.
      Micros jump = std::max(q->sent_at, s->begin);
      if (q->posted_at >= 0.0) jump = std::min(jump, q->posted_at);
      std::string name = "rndv-wait";
      if (!q->note.empty()) name += " " + q->note;
      emit(rank, jump, t, Blame::Rndv, std::move(name));
      return {q->rank, std::max(jump, 0.0)};
    }
    if (r != nullptr) {
      const Micros lo = std::max(r->begin, s->begin);
      const bool sender_late =
          r->posted_at >= 0.0 && r->avail_at > r->posted_at + kEps &&
          (r->name == "rndv" || r->begin <= r->avail_at + kEps);
      if (sender_late && r->peer >= 0 && r->peer < a_->nranks &&
          r->peer != rank && r->sent_at >= 0.0) {
        // The sender was the bottleneck: extend the transfer segment down
        // to its hand-off time and continue on the sender's timeline.
        const Micros jump = std::min(r->sent_at, lo);
        emit_transfer(rank, jump, t, *r);
        return {r->peer, std::max(jump, 0.0)};
      }
      // Local constraint (posted late or receiver busy): keep walking this
      // rank's own timeline.
      emit_transfer(rank, lo, t, *r);
      return {rank, std::max(lo, 0.0)};
    }
    emit_mpi(rank, s->begin, t, *s);
    return {rank, std::max(s->begin, 0.0)};
  }

  const Indexes& ix_;
  Analysis* a_;
  std::vector<PathSegment> rev_;
};

}  // namespace

const char* to_string(Blame blame) {
  switch (blame) {
    case Blame::Compute: return "compute";
    case Blame::Eager: return "eager";
    case Blame::Rndv: return "rndv";
    case Blame::Registration: return "registration";
    case Blame::Contention: return "contention";
    case Blame::Retry: return "retry";
    case Blame::Recovery: return "recovery";
    case Blame::MpiOther: return "mpi-other";
    case Blame::Idle: return "idle";
  }
  return "?";
}

std::vector<PathSegment> Analysis::top_segments(std::size_t k) const {
  auto sorted = segments;
  std::sort(sorted.begin(), sorted.end(),
            [](const PathSegment& a, const PathSegment& b) {
              if (a.duration() != b.duration())
                return a.duration() > b.duration();
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.rank < b.rank;
            });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

Analysis analyze(std::span<const Span> spans, int nranks,
                 std::span<const Micros> rank_times,
                 const AnalyzeOptions& options) {
  (void)options;
  Analysis a;
  a.nranks = std::max(nranks, 0);
  a.wait_states.resize(static_cast<std::size_t>(a.nranks));
  if (a.nranks == 0) return a;

  std::vector<Span> storage;
  const std::span<const Span> sorted = canonical_spans(spans, storage);

  // The walk starts where the job ended: the last rank to finish (ties go
  // to the lowest rank for determinism).
  std::vector<Micros> ends(static_cast<std::size_t>(a.nranks), 0.0);
  if (!rank_times.empty()) {
    for (std::size_t r = 0; r < ends.size() && r < rank_times.size(); ++r)
      ends[r] = rank_times[r];
  } else {
    for (const auto& span : sorted)
      if (span.rank >= 0 && span.rank < a.nranks)
        ends[static_cast<std::size_t>(span.rank)] =
            std::max(ends[static_cast<std::size_t>(span.rank)], span.end);
  }
  std::size_t end_rank = 0;
  for (std::size_t r = 1; r < ends.size(); ++r)
    if (ends[r] > ends[end_rank]) end_rank = r;
  a.end_rank = static_cast<int>(end_rank);
  a.critical_path = ends[end_rank];

  classify_wait_states(sorted, a);

  const Indexes ix = build_indexes(sorted, a.nranks);
  Walker walker(ix, a);
  walker.run(a.end_rank, a.critical_path);
  return a;
}

void write_analysis(JsonWriter& w, const Analysis& a, std::size_t top_k) {
  w.begin_object();
  w.field("critical_path_us", a.critical_path);
  w.field("end_rank", a.end_rank);
  w.field("segments", static_cast<std::uint64_t>(a.segments.size()));
  w.key("blame").begin_array();
  for (std::size_t i = 0; i < kBlames; ++i) {
    const auto b = static_cast<Blame>(i);
    w.begin_object();
    w.field("category", to_string(b));
    w.field("time_us", a.blame[i]);
    w.field("fraction", a.blame_fraction(b));
    w.end_object();
  }
  w.end_array();
  w.key("top_segments").begin_array();
  for (const auto& seg : a.top_segments(top_k)) {
    w.begin_object();
    w.field("rank", seg.rank);
    w.field("category", to_string(seg.blame));
    w.field("name", seg.name);
    w.field("begin_us", seg.begin);
    w.field("end_us", seg.end);
    w.field("time_us", seg.duration());
    w.end_object();
  }
  w.end_array();
  w.key("wait_states").begin_array();
  for (std::size_t r = 0; r < a.wait_states.size(); ++r) {
    const auto& ws = a.wait_states[r];
    w.begin_object();
    w.field("rank", static_cast<std::int64_t>(r));
    w.field("late_sender_us", ws.late_sender);
    w.field("late_receiver_us", ws.late_receiver);
    w.field("coll_imbalance_us", ws.coll_imbalance);
    w.field("contention_us", ws.contention);
    w.field("registration_us", ws.registration);
    w.end_object();
  }
  w.end_array();
  w.key("coll_groups").begin_array();
  for (const auto& g : a.coll_groups) {
    w.begin_object();
    w.field("name", g.name);
    w.field("calls", g.calls);
    w.field("imbalance_us", g.imbalance);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string analysis_summary(const Analysis& a, std::size_t top_k) {
  std::ostringstream os;
  os << "critical path: " << format_double(a.critical_path)
     << " us, ending on rank " << a.end_rank << " ("
     << a.segments.size() << " segments)\n";

  Table blame({"category", "time (us)", "fraction"});
  for (std::size_t i = 0; i < kBlames; ++i) {
    const auto b = static_cast<Blame>(i);
    if (a.blame[i] <= 0.0) continue;
    blame.add_row({to_string(b), Table::num(a.blame[i], 2),
                   Table::num(a.blame_fraction(b), 3)});
  }
  blame.print(os);

  const auto top = a.top_segments(top_k);
  if (!top.empty()) {
    os << "top " << top.size() << " critical-path segments:\n";
    Table segs({"rank", "category", "name", "begin", "end", "us"});
    for (const auto& seg : top)
      segs.add_row({std::to_string(seg.rank), to_string(seg.blame), seg.name,
                    Table::num(seg.begin, 2), Table::num(seg.end, 2),
                    Table::num(seg.duration(), 2)});
    segs.print(os);
  }

  bool any_wait = false;
  for (const auto& ws : a.wait_states) any_wait = any_wait || ws.total() > 0.0;
  if (any_wait) {
    os << "wait states (us, whole run):\n";
    Table waits({"rank", "late-sender", "late-recv", "coll-imb", "contention",
                 "registration"});
    for (std::size_t r = 0; r < a.wait_states.size(); ++r) {
      const auto& ws = a.wait_states[r];
      waits.add_row({std::to_string(r), Table::num(ws.late_sender, 2),
                     Table::num(ws.late_receiver, 2),
                     Table::num(ws.coll_imbalance, 2),
                     Table::num(ws.contention, 2),
                     Table::num(ws.registration, 2)});
    }
    waits.print(os);
  }
  return os.str();
}

}  // namespace cbmpi::obs::analysis
