#include "mpi/coll/tuning_table.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace cbmpi::coll {

namespace {

// Parses "*", "N", "A-B", "A-" or "-B" into inclusive [lo, hi]. `parse_one`
// converts a single bound token; returns false on any malformed token.
template <typename T, typename ParseOne>
bool parse_range(const std::string& token, T full_lo, T full_hi, T& lo, T& hi,
                 ParseOne parse_one) {
  lo = full_lo;
  hi = full_hi;
  if (token == "*") return true;
  const auto dash = token.find('-');
  if (dash == std::string::npos) {
    if (!parse_one(token, lo)) return false;
    hi = lo;
    return true;
  }
  const std::string left = token.substr(0, dash);
  const std::string right = token.substr(dash + 1);
  if (left.empty() && right.empty()) return false;
  if (!left.empty() && !parse_one(left, lo)) return false;
  if (!right.empty() && !parse_one(right, hi)) return false;
  return lo <= hi;
}

bool parse_int(const std::string& token, int& out) {
  if (token.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > 1'000'000'000) return false;
  }
  out = static_cast<int>(value);
  return true;
}

bool parse_size(const std::string& token, Bytes& out) {
  if (token.empty()) return false;
  Bytes multiplier = 1;
  std::string digits = token;
  switch (token.back()) {
    case 'K': case 'k': multiplier = 1024; break;
    case 'M': case 'm': multiplier = 1024 * 1024; break;
    case 'G': case 'g': multiplier = 1024 * 1024 * 1024; break;
    default: break;
  }
  if (multiplier != 1) digits.pop_back();
  if (digits.empty()) return false;
  Bytes value = 0;
  for (const char c : digits) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    value = value * 10 + static_cast<Bytes>(c - '0');
    if (value > (Bytes{1} << 50)) return false;
  }
  out = value * multiplier;
  return true;
}

[[noreturn]] void fail(const std::string& origin, int line,
                       const std::string& what) {
  std::ostringstream os;
  os << origin << ":" << line << ": " << what;
  throw Error(os.str());
}

std::string format_bound(Bytes n) {
  // Reuses the bench formatter ("8K", "1M", plain "600") — the parser above
  // accepts all of its outputs, so serialize() round-trips.
  return format_size(n);
}

}  // namespace

TuningTable TuningTable::container_defaults() {
  // Defaults for container deployments, validated by the
  // `ablation_collectives` engine sweep (section (d) / --autotune) across
  // {1, 2, 4} containers per host:
  //
  //   * The leader-based hierarchy wins where a root concentrates traffic —
  //     barrier, bcast below the large-message regime, and reduce — because
  //     the local phase stays on the recovered SHM/CMA channels.
  //   * The symmetric bandwidth algorithms win everywhere else: with
  //     block-contiguous placement their low-order exchange rounds are
  //     already intra-host, so the extra leader hop only adds latency
  //     (ring allgather, recursive-doubling / Rabenseifner allreduce split
  //     at kAllreduceLargeThreshold, van de Geijn bcast past
  //     kBcastLargeThreshold).
  //   * Alltoall has no hierarchical variant; the fully concurrent spread
  //     beats Bruck and pairwise at both probed size classes.
  //
  // When the locality detector finds no co-located ranks the engine demotes
  // the two_level rows to the flat Auto heuristic, which reproduces the
  // pre-engine behaviour.
  TuningTable t;
  const auto all = [](Coll c, Algo a) {
    TuningEntry e;
    e.coll = c;
    e.algo = a;
    return e;
  };
  t.add(all(Coll::Barrier, Algo::TwoLevel));
  t.add(all(Coll::Reduce, Algo::TwoLevel));
  t.add(all(Coll::Allgather, Algo::Ring));
  t.add(all(Coll::Alltoall, Algo::Spread));
  {
    TuningEntry small = all(Coll::Bcast, Algo::TwoLevel);
    small.max_size = kBcastLargeThreshold - 1;
    t.add(small);
    TuningEntry large = all(Coll::Bcast, Algo::VanDeGeijn);
    large.min_size = kBcastLargeThreshold;
    t.add(large);
  }
  {
    TuningEntry small = all(Coll::Allreduce, Algo::RecursiveDoubling);
    small.max_size = kAllreduceLargeThreshold - 1;
    t.add(small);
    TuningEntry large = all(Coll::Allreduce, Algo::Rabenseifner);
    large.min_size = kAllreduceLargeThreshold;
    t.add(large);
  }
  return t;
}

TuningTable TuningTable::parse(const std::string& text,
                               const std::string& origin) {
  TuningTable table;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string coll_tok, ranks_tok, cph_tok, size_tok, algo_tok, extra;
    if (!(fields >> coll_tok)) continue;  // blank / comment-only line
    if (!(fields >> ranks_tok >> cph_tok >> size_tok >> algo_tok)) {
      fail(origin, lineno,
           "expected 5 fields: <collective> <ranks> <containers/host> "
           "<msg-size> <algorithm>");
    }
    if (fields >> extra) {
      fail(origin, lineno, "trailing token '" + extra + "'");
    }
    TuningEntry entry;
    const auto coll = parse_coll(coll_tok);
    if (!coll) fail(origin, lineno, "unknown collective '" + coll_tok + "'");
    entry.coll = *coll;
    if (!parse_range(ranks_tok, 0, std::numeric_limits<int>::max(),
                     entry.min_ranks, entry.max_ranks, parse_int)) {
      fail(origin, lineno, "bad ranks range '" + ranks_tok + "'");
    }
    if (!parse_range(cph_tok, 0, std::numeric_limits<int>::max(),
                     entry.min_cph, entry.max_cph, parse_int)) {
      fail(origin, lineno, "bad containers/host range '" + cph_tok + "'");
    }
    if (!parse_range(size_tok, Bytes{0}, std::numeric_limits<Bytes>::max(),
                     entry.min_size, entry.max_size, parse_size)) {
      fail(origin, lineno, "bad msg-size range '" + size_tok + "'");
    }
    const auto algo = parse_algo(algo_tok);
    if (!algo) fail(origin, lineno, "unknown algorithm '" + algo_tok + "'");
    if (!valid_for(entry.coll, *algo)) {
      fail(origin, lineno, std::string("algorithm '") + to_string(*algo) +
                               "' is not valid for collective '" +
                               to_string(entry.coll) + "'");
    }
    entry.algo = *algo;
    table.add(entry);
  }
  return table;
}

TuningTable TuningTable::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open tuning file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str(), path);
}

void TuningTable::add(TuningEntry entry) {
  CBMPI_REQUIRE(valid_for(entry.coll, entry.algo), "algorithm ",
                to_string(entry.algo), " is not valid for collective ",
                to_string(entry.coll));
  entries_.push_back(entry);
}

void TuningTable::merge(const TuningTable& other) {
  entries_.insert(entries_.end(), other.entries_.begin(), other.entries_.end());
}

Algo TuningTable::select(Coll coll, Bytes size, int ranks, int cph) const {
  Algo chosen = Algo::Auto;
  for (const TuningEntry& e : entries_) {
    if (e.matches(coll, size, ranks, cph)) chosen = e.algo;  // last match wins
  }
  return chosen;
}

std::string TuningTable::serialize() const {
  std::ostringstream os;
  os << "# collective  ranks  containers/host  msg-size  algorithm\n";
  const auto int_range = [](int lo, int hi) -> std::string {
    const int max = std::numeric_limits<int>::max();
    if (lo <= 0 && hi == max) return "*";
    if (lo == hi) return std::to_string(lo);
    std::string out;
    if (lo > 0) out += std::to_string(lo);
    out += '-';
    if (hi != max) out += std::to_string(hi);
    return out;
  };
  const auto size_range = [](Bytes lo, Bytes hi) -> std::string {
    const Bytes max = std::numeric_limits<Bytes>::max();
    if (lo == 0 && hi == max) return "*";
    if (lo == hi) return format_bound(lo);
    std::string out;
    if (lo != 0) out += format_bound(lo);
    out += '-';
    if (hi != max) out += format_bound(hi);
    return out;
  };
  for (const TuningEntry& e : entries_) {
    os << to_string(e.coll) << "  " << int_range(e.min_ranks, e.max_ranks)
       << "  " << int_range(e.min_cph, e.max_cph) << "  "
       << size_range(e.min_size, e.max_size) << "  " << to_string(e.algo)
       << "\n";
  }
  return os.str();
}

}  // namespace cbmpi::coll
