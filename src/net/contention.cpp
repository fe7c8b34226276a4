#include "net/contention.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <span>

#include "common/error.hpp"

namespace cbmpi::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Relative tolerance for "this constraint is exhausted" during filling.
constexpr double kEps = 1e-12;

/// Max-min fair allocation with per-flow rate caps (progressive filling):
/// all unfrozen flows grow together; a flow freezes when it reaches its own
/// cap or when a link on its path saturates.
///
/// The fill runs over *path classes* — flows with the same route and rate
/// cap — instead of over flows. Every unfrozen flow has the same rate (the
/// running `level`), and a class's freeze test reads only that level, its
/// cap and its links, so all members freeze in the same round at the same
/// rate. Each link still receives one addition of each round's delta per
/// unfrozen flow crossing it, so allocations match a per-flow fill bit for
/// bit (DESIGN.md §14).
class PathFill {
 public:
  explicit PathFill(const std::vector<double>& caps)
      : caps_(caps), alloc_(caps.size(), 0.0), work_(caps.size(), 0) {}

  /// Registers a class with `f`'s route and rate cap; returns its id.
  std::size_t add_class(const Flow& f) {
    links_.insert(links_.end(), f.path.begin(), f.path.end());
    begin_.push_back(links_.size());
    cap_.push_back(f.rate_cap);
    active_.push_back(0);
    rate_.push_back(0.0);
    return cap_.size() - 1;
  }

  void admit(std::size_t c) {
    if (active_[c]++ == 0) live_.push_back(c);
  }
  void retire(std::size_t c, std::size_t n) {
    if ((active_[c] -= n) == 0) std::erase(live_, c);
  }

  /// Classes with active flows.
  const std::vector<std::size_t>& live() const { return live_; }

  /// Per-flow rate of class `c` as of the last fill().
  double rate(std::size_t c) const { return rate_[c]; }
  /// Links carrying an active flow, and their allocation, as of the last fill().
  const std::vector<int>& touched() const { return touched_; }
  double alloc(int l) const { return alloc_[static_cast<std::size_t>(l)]; }

  /// Recomputes every active class's rate.
  void fill() {
    touched_.clear();
    std::size_t widest = 0;
    for (const std::size_t c : live_)
      for (const int l : path(c)) {
        const auto lu = static_cast<std::size_t>(l);
        if (work_[lu] == 0) {
          touched_.push_back(l);
          alloc_[lu] = 0.0;
        }
        work_[lu] += active_[c];
        widest = std::max(widest, work_[lu]);
      }

    unfrozen_ = live_;
    double level = 0.0;
    bool first_round = true;
    while (!unfrozen_.empty()) {
      double delta = kInf;
      for (const std::size_t c : unfrozen_) delta = std::min(delta, cap_[c] - level);
      for (const int l : touched_) {
        const auto lu = static_cast<std::size_t>(l);
        if (work_[lu] > 0)
          delta = std::min(delta, (caps_[lu] - alloc_[lu]) /
                                      static_cast<double>(work_[lu]));
      }
      delta = std::max(delta, 0.0);
      level += delta;

      // Link l gains delta once per unfrozen flow crossing it. In the first
      // round every link starts from 0.0, so one chain of sums serves all.
      if (first_round) {
        chain_.assign(widest + 1, 0.0);
        for (std::size_t n = 1; n <= widest; ++n) chain_[n] = chain_[n - 1] + delta;
        for (const int l : touched_) {
          const auto lu = static_cast<std::size_t>(l);
          alloc_[lu] = chain_[work_[lu]];
        }
        first_round = false;
      } else {
        for (const int l : touched_) {
          const auto lu = static_cast<std::size_t>(l);
          for (std::size_t n = work_[lu]; n > 0; --n) alloc_[lu] += delta;
        }
      }

      // Freeze cap-limited classes, then every class on a saturated link.
      // The constraint that produced `delta` freezes at least one class, so
      // the loop terminates.
      std::size_t kept = 0;
      for (const std::size_t c : unfrozen_) {
        const auto links = path(c);
        const bool freeze =
            level >= cap_[c] * (1.0 - kEps) ||
            std::any_of(links.begin(), links.end(), [&](int l) {
              const auto lu = static_cast<std::size_t>(l);
              return caps_[lu] - alloc_[lu] <= caps_[lu] * kEps;
            });
        if (!freeze) {
          unfrozen_[kept++] = c;
          continue;
        }
        rate_[c] = level;
        for (const int l : links) work_[static_cast<std::size_t>(l)] -= active_[c];
      }
      unfrozen_.resize(kept);
    }
  }

 private:
  std::span<const int> path(std::size_t c) const {
    return {links_.data() + begin_[c], begin_[c + 1] - begin_[c]};
  }

  const std::vector<double>& caps_;
  // Class c's route is links_[begin_[c], begin_[c + 1]).
  std::vector<int> links_;
  std::vector<std::size_t> begin_{0};
  std::vector<double> cap_;
  std::vector<std::size_t> active_;    ///< active flows per class
  std::vector<double> rate_;
  std::vector<std::size_t> live_;      ///< classes with active flows
  std::vector<std::size_t> unfrozen_;  ///< reused by fill()
  std::vector<double> chain_;          ///< reused by fill()
  std::vector<double> alloc_;          ///< per link
  std::vector<std::size_t> work_;      ///< per link: unfrozen flow crossings
  std::vector<int> touched_;
};

}  // namespace

SettleResult settle(std::vector<Flow> flows, const std::vector<double>& link_caps) {
  SettleResult out;
  out.links.assign(link_caps.size(), {});
  if (flows.empty()) return out;

  for (const auto& f : flows) {
    CBMPI_REQUIRE(f.rate_cap > 0.0, "flow rate cap must be positive");
    for (const int l : f.path)
      CBMPI_REQUIRE(l >= 0 && static_cast<std::size_t>(l) < link_caps.size(),
                    "flow path references unknown link ", l);
  }

  // Canonical order: the engine's answers must not depend on the (wall-clock
  // racy) order flows were recorded in.
  std::sort(flows.begin(), flows.end(), [](const Flow& a, const Flow& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.key < b.key;
  });

  // One class's active flows, sorted by bytes left, so the next to finish
  // form a prefix (DESIGN.md §14).
  struct ClassFlows {
    std::vector<double> left;
    std::vector<std::size_t> flow;  ///< index into flows
  };

  PathFill fill(link_caps);
  std::vector<std::size_t> class_of(flows.size());
  std::vector<ClassFlows> active;  // per class
  {
    const auto same_class_less = [&](std::size_t a, std::size_t b) {
      if (flows[a].rate_cap != flows[b].rate_cap)
        return flows[a].rate_cap < flows[b].rate_cap;
      return flows[a].path < flows[b].path;
    };
    std::map<std::size_t, std::size_t, decltype(same_class_less)> first_of_class(
        same_class_less);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto [it, fresh] = first_of_class.try_emplace(i, 0);
      if (fresh) {
        it->second = fill.add_class(flows[i]);
        active.emplace_back();
      }
      class_of[i] = it->second;
    }
  }

  out.busy_begin = flows.front().start;
  out.busy_end = flows.front().start;
  out.flows.reserve(flows.size());

  std::vector<double> mean_accum(link_caps.size(), 0.0);

  auto record_outcome = [&](const Flow& f, Micros finish) {
    FlowOutcome o;
    o.key = f.key;
    o.finish = finish;
    o.hops = static_cast<int>(f.path.size());
    const double uncontended = f.bytes / f.rate_cap;
    o.factor = uncontended > 0.0 ? (finish - f.start) / uncontended : 1.0;
    // A lone flow's factor is analytically 1; snap float residue to exactly
    // 1.0 so the apply pass reproduces uncontended costs bit-identically.
    if (o.factor <= 1.0 + 1e-9) o.factor = 1.0;
    out.busy_end = std::max(out.busy_end, finish);
    out.flows.push_back(o);
  };

  std::size_t next = 0;
  Micros t = flows.front().start;
  while (next < flows.size() || !fill.live().empty()) {
    // Admit every flow starting now, then rebalance.
    bool admitted = false;
    while (next < flows.size() && flows[next].start <= t) {
      const Flow& f = flows[next];
      if (f.bytes <= 0.0 || f.path.empty()) {
        // Nothing to drain (control-sized or host-local): finishes instantly
        // and never contends.
        record_outcome(f, f.start);
      } else {
        const std::size_t c = class_of[next];
        fill.admit(c);
        auto& set = active[c];
        const auto at = std::upper_bound(set.left.begin(), set.left.end(), f.bytes) -
                        set.left.begin();
        set.left.insert(set.left.begin() + at, f.bytes);
        set.flow.insert(set.flow.begin() + at, next);
        admitted = true;
      }
      ++next;
    }
    if (fill.live().empty()) {
      if (next < flows.size()) t = flows[next].start;
      continue;
    }
    if (admitted) fill.fill();

    // Next event: the earliest finish or the next start. A class's earliest
    // finish is its head's, since t + left / rate is monotone in left.
    Micros finish_at = kInf;
    for (const std::size_t c : fill.live())
      finish_at = std::min(finish_at, t + active[c].left.front() / fill.rate(c));
    const Micros start_at = next < flows.size() ? flows[next].start : kInf;
    const Micros te = std::min(finish_at, start_at);

    // Utilization bookkeeping over [t, te): rates are constant here.
    for (const int l : fill.touched()) {
      const auto lu = static_cast<std::size_t>(l);
      const double util = fill.alloc(l) / link_caps[lu];
      out.links[lu].peak = std::max(out.links[lu].peak, util);
      mean_accum[lu] += util * (te - t);
    }

    // Per class: pop the finishing prefix, then drain the rest by one common
    // amount, which keeps them sorted. Walk backwards: retire() may erase
    // the current class from live().
    bool finished = false;
    for (std::size_t i = fill.live().size(); i-- > 0;) {
      const std::size_t c = fill.live()[i];
      auto& set = active[c];
      const double rate = fill.rate(c);
      const std::size_t n = set.left.size();
      std::size_t done = 0;
      while (done < n && t + set.left[done] / rate <= te)
        record_outcome(flows[set.flow[done++]], te);
      const double drained = rate * (te - t);
      for (std::size_t j = done; j < n; ++j) set.left[j - done] = set.left[j] - drained;
      if (done == 0) continue;
      set.left.resize(n - done);
      set.flow.erase(set.flow.begin(),
                     set.flow.begin() + static_cast<std::ptrdiff_t>(done));
      fill.retire(c, done);
      finished = true;
    }
    t = te;
    if (finished && !fill.live().empty()) fill.fill();
  }

  const Micros span = out.busy_end - out.busy_begin;
  if (span > 0.0)
    for (std::size_t l = 0; l < out.links.size(); ++l)
      out.links[l].mean = mean_accum[l] / span;

  std::sort(out.flows.begin(), out.flows.end(),
            [](const FlowOutcome& a, const FlowOutcome& b) { return a.key < b.key; });
  const auto dup = std::adjacent_find(
      out.flows.begin(), out.flows.end(),
      [](const FlowOutcome& a, const FlowOutcome& b) { return a.key == b.key; });
  CBMPI_REQUIRE(dup == out.flows.end(), "two flows share the key (rank ",
                dup->key.src_rank, ", seq ", dup->key.seq, ")");
  return out;
}

}  // namespace cbmpi::net
