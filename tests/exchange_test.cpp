// The exchange in host memory: the spread alltoall publishes its blocks and
// envelopes once per call, and peers complete their receives from them in
// virtual arrival order; the ring and pairwise collectives publish one block
// per step. Peers copy each block straight out of its owner's send buffer.
//
// The golden tables pin a fingerprint of every observable output of a
// matrix of jobs: the bit patterns of the rank clocks, the spans, trace
// events, profile channel counts and call times, the fabric model's report
// (what the recorded flows settled to), the pin-down cache counters, the
// fault report and the metrics. The values were recorded when every block
// was still one message, so the exchange must reproduce the message path bit
// for bit. A mismatch prints the whole table, ready to paste, for a
// deliberate model change. Trace and span kinds enter by enum value, so
// removing an enumerator re-records the tables too: prove such a change
// neutral by hashing the old values first.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mpi/runtime.hpp"

namespace cbmpi {
namespace {

using container::DeploymentSpec;
using fabric::ChannelKind;
using fabric::LocalityPolicy;
using mpi::JobConfig;
using mpi::run_job;

/// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void word(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void integer(std::int64_t value) { word(static_cast<std::uint64_t>(value)); }
  void real(double value) { word(std::bit_cast<std::uint64_t>(value)); }
  void text(const std::string& value) {
    word(value.size());
    for (const char c : value) word(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void add_result(Fingerprint& f, const mpi::JobResult& result) {
  f.real(result.job_time);
  for (const Micros t : result.rank_times) f.real(t);
  f.word(result.hca_queue_pairs);
  for (const auto& e : result.trace) {
    f.integer(static_cast<int>(e.kind));
    f.integer(e.src);
    f.integer(e.dst);
    f.word(e.size);
    f.real(e.at);
    f.text(e.note);
  }
  for (const auto& s : result.spans) {
    f.text(s.name);
    f.integer(static_cast<int>(s.cat));
    f.integer(s.rank);
    f.integer(s.peer);
    f.integer(s.channel);
    f.word(s.bytes);
    f.real(s.begin);
    f.real(s.end);
    f.text(s.note);
    f.integer(s.xfer);
    f.real(s.posted_at);
    f.real(s.sent_at);
    f.real(s.avail_at);
    f.real(s.stall);
    f.real(s.reg_stall);
  }
  const auto& total = result.profile.total;
  for (const auto channel : {ChannelKind::Shm, ChannelKind::Cma, ChannelKind::Hca}) {
    f.word(total.channel_ops(channel));
    f.word(total.channel_bytes(channel));
  }
  f.real(total.comm_time());
  f.real(total.compute_time());
  f.real(total.recovery_time());
  const auto& net = result.net;
  f.word(net.transfers);
  f.word(net.congested_transfers);
  f.real(net.max_factor);
  f.real(net.max_peak_util);
  f.real(net.mean_util);
  for (const auto& link : net.link_utils) {
    f.integer(link.link);
    f.real(link.peak);
    f.real(link.mean);
  }
  for (const auto hops : net.hop_histogram) f.word(hops);
  const auto& reg = result.reg_cache;
  for (const std::uint64_t v : {reg.hits, reg.misses, reg.evictions, reg.pinned_bytes,
                                reg.peak_pinned_bytes, reg.registered_bytes})
    f.word(v);
  const auto& faults = result.fault_report;
  for (const auto& e : faults.injected) {
    f.integer(static_cast<int>(e.kind));
    f.integer(e.rank_a);
    f.integer(e.rank_b);
    f.real(e.at);
    f.text(e.detail);
  }
  f.word(faults.hca_retries);
  f.real(faults.time_lost);
  for (const auto& [name, value] : result.metrics.counters) {
    f.text(name);
    f.word(value);
  }
  for (const auto& [name, value] : result.metrics.gauges) {
    f.text(name);
    f.real(value);
  }
  for (const auto& [name, histogram] : result.metrics.histograms) {
    f.text(name);
    f.word(histogram.count);
    f.word(histogram.sum);
    for (const auto& bucket : histogram.buckets) {
      f.word(bucket.upper);
      f.word(bucket.count);
    }
  }
}

/// Block sizes and the channels they take on two hosts: 1 KiB is SHM eager
/// inside a host and HCA eager across; 12 KiB is CMA rendezvous inside and
/// HCA eager across; 64 KiB is CMA (or, without a shared PID namespace, SHM)
/// rendezvous inside and HCA rendezvous across, priced with the pin-down
/// cache under reg_model.
enum class Variant { Eager1K, Mixed12K, Rndv64K, ShmRndv64K, RegRndv64K };

const char* to_string(Variant v) {
  switch (v) {
    case Variant::Eager1K: return "Eager1K";
    case Variant::Mixed12K: return "Mixed12K";
    case Variant::Rndv64K: return "Rndv64K";
    case Variant::ShmRndv64K: return "ShmRndv64K";
    case Variant::RegRndv64K: return "RegRndv64K";
  }
  return "?";
}

std::size_t block_of(Variant v) {
  switch (v) {
    case Variant::Eager1K: return 1024;
    case Variant::Mixed12K: return 12 * 1024;
    default: return 64 * 1024;
  }
}

std::size_t idx(int i) { return static_cast<std::size_t>(i); }

/// The byte every byte of the block from `from` to `to` holds in `round`.
std::uint8_t pattern(int from, int to, int round) {
  return static_cast<std::uint8_t>(from * 31 + to * 7 + round);
}

/// Three spread alltoalls on the world communicator, or on the half of an
/// even/odd split with its ranks in reverse order. Each rank computes for a
/// rank-dependent time first, so the blocks arrive in a different virtual
/// order every round.
void exchange_body(mpi::Process& p, std::size_t block, bool split) {
  const auto run = [&](mpi::Communicator& comm) {
    const int n = comm.size();
    const int r = comm.rank();
    std::vector<std::uint8_t> out(block * idx(n));
    std::vector<std::uint8_t> in(out.size());
    std::vector<std::uint8_t> expected(out.size());
    for (int round = 0; round < 3; ++round) {
      p.compute(400.0 * ((r * 7 + round * 3) % 5));
      for (int peer = 0; peer < n; ++peer) {
        const auto at = static_cast<std::ptrdiff_t>(block * idx(peer));
        std::fill_n(out.begin() + at, block, pattern(r, peer, round));
        std::fill_n(expected.begin() + at, block, pattern(peer, r, round));
      }
      comm.alltoall(std::span<const std::uint8_t>(out), std::span<std::uint8_t>(in));
      EXPECT_TRUE(in == expected) << "rank " << p.rank() << " round " << round;
    }
  };
  if (!split) {
    run(p.world());
    return;
  }
  auto half = p.world().split(p.rank() % 2, -p.rank());
  run(*half);
}

/// One row folds sixteen jobs: the container-aware and the hostname-based
/// locality policy (under which cross-container pairs take the HCA
/// loopback), observe and trace off and on, a clean and an HCA-transient
/// fault plan, the world and a split communicator.
std::uint64_t row_fingerprint(Variant variant, int cph, const char* fabric) {
  Fingerprint f;
  const std::size_t block = block_of(variant);
  for (int job = 0; job < 16; ++job) {
    const bool split = (job & 1) != 0;
    JobConfig cfg;
    cfg.deployment = DeploymentSpec::containers(2, cph, 4);
    cfg.deployment.share_host_pid = variant != Variant::ShmRndv64K;
    cfg.policy = (job & 8) != 0 ? LocalityPolicy::HostnameBased
                                : LocalityPolicy::ContainerAware;
    cfg.tuning.reg_model = variant == Variant::RegRndv64K;
    cfg.fabric = net::FabricConfig::parse(fabric);
    cfg.observe = (job & 4) != 0;
    cfg.record_trace = cfg.observe;
    if ((job & 2) != 0) cfg.faults.hca_transient_prob = 0.3;
    cfg.coll_tuning.add({.coll = coll::Coll::Alltoall, .algo = coll::Algo::Spread});
    add_result(f, run_job(cfg, [block, split](mpi::Process& p) {
                 exchange_body(p, block, split);
               }));
  }
  return f.value();
}

struct GoldenRow {
  Variant variant;
  int cph;
  const char* fabric;
  std::uint64_t fingerprint;
};

// Recorded with one message per block (receives completed in virtual arrival
// order); the exchange must not move any of them.
const GoldenRow kGolden[] = {
    {Variant::Eager1K, 1, "ideal", 0xc5e2dac84b227249ULL},
    {Variant::Eager1K, 1, "fattree:4", 0x7b3f19a88bd8be5bULL},
    {Variant::Eager1K, 2, "ideal", 0x50c8d5b9184e7bcdULL},
    {Variant::Eager1K, 2, "fattree:4", 0xfbd65679e1f0495aULL},
    {Variant::Eager1K, 4, "ideal", 0x4ec90cff1a414405ULL},
    {Variant::Eager1K, 4, "fattree:4", 0xd14b411ce540d04eULL},
    {Variant::Mixed12K, 1, "ideal", 0x276c87f9124ff54aULL},
    {Variant::Mixed12K, 1, "fattree:4", 0x737aa3d9e3be746dULL},
    {Variant::Mixed12K, 2, "ideal", 0x230dba0d1cc395c5ULL},
    {Variant::Mixed12K, 2, "fattree:4", 0x0afaccbe2656c6ccULL},
    {Variant::Mixed12K, 4, "ideal", 0xd901a9ea4b408aebULL},
    {Variant::Mixed12K, 4, "fattree:4", 0xd9c2e0b73aa0bb85ULL},
    {Variant::Rndv64K, 1, "ideal", 0x359b1e217c4caea0ULL},
    {Variant::Rndv64K, 1, "fattree:4", 0x2e98ddde0f21ed2dULL},
    {Variant::Rndv64K, 2, "ideal", 0x9d6ece58124d02dfULL},
    {Variant::Rndv64K, 2, "fattree:4", 0xd9f93c780a3a0748ULL},
    {Variant::Rndv64K, 4, "ideal", 0x3f0ad2f49bb29188ULL},
    {Variant::Rndv64K, 4, "fattree:4", 0x62c276b152ae7674ULL},
    {Variant::ShmRndv64K, 1, "ideal", 0x359b1e217c4caea0ULL},
    {Variant::ShmRndv64K, 1, "fattree:4", 0x2e98ddde0f21ed2dULL},
    {Variant::ShmRndv64K, 2, "ideal", 0x8194808e5adc7e8bULL},
    {Variant::ShmRndv64K, 2, "fattree:4", 0x151a12dc47e194a9ULL},
    {Variant::ShmRndv64K, 4, "ideal", 0xe2e06b8e98055265ULL},
    {Variant::ShmRndv64K, 4, "fattree:4", 0x1eab73d13c40fe15ULL},
    {Variant::RegRndv64K, 1, "ideal", 0xe027d353ab743ab5ULL},
    {Variant::RegRndv64K, 1, "fattree:4", 0xef5cd8c2f540182aULL},
    {Variant::RegRndv64K, 2, "ideal", 0xcc97af76241c97f6ULL},
    {Variant::RegRndv64K, 2, "fattree:4", 0xc0433dc7024bc5a0ULL},
    {Variant::RegRndv64K, 4, "ideal", 0x1f37c9baa6844edaULL},
    {Variant::RegRndv64K, 4, "fattree:4", 0xc61fada41e72f86fULL},
};

TEST(AlltoallExchange, ReproducesTheMessagePathFingerprints) {
  std::string regenerated;
  std::size_t row = 0;
  for (const auto variant : {Variant::Eager1K, Variant::Mixed12K, Variant::Rndv64K,
                             Variant::ShmRndv64K, Variant::RegRndv64K})
    for (const int cph : {1, 2, 4})
      for (const char* fabric : {"ideal", "fattree:4"}) {
        const std::uint64_t measured = row_fingerprint(variant, cph, fabric);
        const bool pinned = row < std::size(kGolden) &&
                            kGolden[row].variant == variant && kGolden[row].cph == cph &&
                            std::string(kGolden[row].fabric) == fabric;
        EXPECT_TRUE(pinned && kGolden[row].fingerprint == measured)
            << to_string(variant) << " at " << cph << " containers per host, " << fabric;
        char line[128];
        std::snprintf(line, sizeof line, "    {Variant::%s, %d, \"%s\", 0x%016llxULL},\n",
                      to_string(variant), cph, fabric,
                      static_cast<unsigned long long>(measured));
        regenerated += line;
        ++row;
      }
  if (HasFailure()) ADD_FAILURE() << "measured fingerprints:\n" << regenerated;
}

// ---- step exchanges: the ring and pairwise collectives -------------------

/// The collectives whose ring or pairwise phase runs as a step exchange,
/// each with its algorithm pinned.
enum class StepColl {
  AllgatherRing,
  Allgatherv,
  BcastVanDeGeijn,
  AllreduceRabenseifner,
  Alltoallv,
  AlltoallPairwise
};

const char* to_string(StepColl c) {
  switch (c) {
    case StepColl::AllgatherRing: return "AllgatherRing";
    case StepColl::Allgatherv: return "Allgatherv";
    case StepColl::BcastVanDeGeijn: return "BcastVanDeGeijn";
    case StepColl::AllreduceRabenseifner: return "AllreduceRabenseifner";
    case StepColl::Alltoallv: return "Alltoallv";
    case StepColl::AlltoallPairwise: return "AlltoallPairwise";
  }
  return "?";
}

/// Packed displacements of `counts`, last rank first.
std::vector<int> reversed_displs(const std::vector<int>& counts) {
  std::vector<int> displs(counts.size());
  int at = 0;
  for (std::size_t p = counts.size(); p-- > 0;) {
    displs[p] = at;
    at += counts[p];
  }
  return displs;
}

/// One call of `coll` on `comm`, moving `block`-byte blocks (per rank, or
/// per ring step for bcast and allreduce), after a rank-dependent compute,
/// so the blocks arrive in a different virtual order every round.
void step_round(mpi::Process& p, mpi::Communicator& comm, StepColl coll,
                std::size_t block, int round) {
  const int n = comm.size();
  const int r = comm.rank();
  const std::size_t un = idx(n);
  p.compute(400.0 * ((r * 7 + round * 3) % 5));
  std::vector<std::uint8_t> out(block * un);
  std::vector<std::uint8_t> in(out.size());
  std::vector<std::uint8_t> expected(out.size());
  const auto fill = [](std::vector<std::uint8_t>& v, std::size_t at, std::size_t bytes,
                       std::uint8_t value) {
    std::fill_n(v.begin() + static_cast<std::ptrdiff_t>(at), bytes, value);
  };
  switch (coll) {
    case StepColl::AllgatherRing: {
      for (int q = 0; q < n; ++q) fill(expected, block * idx(q), block, pattern(q, 0, round));
      const auto mine = std::span<const std::uint8_t>(expected).subspan(block * idx(r), block);
      comm.allgather(mine, std::span<std::uint8_t>(in));
      break;
    }
    case StepColl::Allgatherv: {
      std::vector<int> counts(un);
      for (int q = 0; q < n; ++q) counts[idx(q)] = static_cast<int>(block) - 16 * q;
      const auto displs = reversed_displs(counts);
      for (int q = 0; q < n; ++q)
        fill(expected, idx(displs[idx(q)]), idx(counts[idx(q)]), pattern(q, 0, round));
      const auto mine = std::span<const std::uint8_t>(expected).subspan(
          idx(displs[idx(r)]), idx(counts[idx(r)]));
      comm.allgatherv(mine, std::span<std::uint8_t>(in), std::span<const int>(counts),
                      std::span<const int>(displs));
      break;
    }
    case StepColl::BcastVanDeGeijn: {
      const int root = round % n;
      for (int q = 0; q < n; ++q) fill(expected, block * idx(q), block, pattern(root, q, round));
      if (r == root) in = expected;
      comm.bcast(std::span<std::uint8_t>(in), root);
      break;
    }
    case StepColl::AllreduceRabenseifner: {
      const std::size_t elems = out.size() / sizeof(std::int64_t);
      const std::vector<std::int64_t> mine(elems, r + 1 + round);
      const std::vector<std::int64_t> want(elems, n * (n + 1) / 2 + n * round);
      std::vector<std::int64_t> sum(elems);
      comm.allreduce(std::span<const std::int64_t>(mine), std::span<std::int64_t>(sum),
                     mpi::ReduceOp::Sum);
      EXPECT_TRUE(sum == want) << "rank " << p.rank() << " round " << round;
      return;
    }
    case StepColl::Alltoallv: {
      // Rank a sends rank b count(a, b) bytes, and count is symmetric.
      std::vector<int> counts(un);
      for (int q = 0; q < n; ++q)
        counts[idx(q)] = static_cast<int>(block) - 8 * ((r + q) % 4);
      const auto displs = reversed_displs(counts);
      for (int q = 0; q < n; ++q) {
        fill(out, idx(displs[idx(q)]), idx(counts[idx(q)]), pattern(r, q, round));
        fill(expected, idx(displs[idx(q)]), idx(counts[idx(q)]), pattern(q, r, round));
      }
      comm.alltoallv(std::span<const std::uint8_t>(out), std::span<const int>(counts),
                     std::span<const int>(displs), std::span<std::uint8_t>(in),
                     std::span<const int>(counts), std::span<const int>(displs));
      break;
    }
    case StepColl::AlltoallPairwise:
      for (int q = 0; q < n; ++q) {
        fill(out, block * idx(q), block, pattern(r, q, round));
        fill(expected, block * idx(q), block, pattern(q, r, round));
      }
      comm.alltoall(std::span<const std::uint8_t>(out), std::span<std::uint8_t>(in));
      break;
  }
  EXPECT_TRUE(in == expected) << "rank " << p.rank() << " round " << round;
}

/// Pins `coll`'s algorithm for every size, so the ring or pairwise phase
/// runs flat on every communicator.
void pin_algorithm(JobConfig& cfg, StepColl coll) {
  switch (coll) {
    case StepColl::AllgatherRing:
      cfg.coll_tuning.add({.coll = coll::Coll::Allgather, .algo = coll::Algo::Ring});
      break;
    case StepColl::BcastVanDeGeijn:
      cfg.coll_tuning.add({.coll = coll::Coll::Bcast, .algo = coll::Algo::VanDeGeijn});
      break;
    case StepColl::AllreduceRabenseifner:
      cfg.coll_tuning.add({.coll = coll::Coll::Allreduce, .algo = coll::Algo::Rabenseifner});
      break;
    case StepColl::AlltoallPairwise:
      cfg.coll_tuning.add({.coll = coll::Coll::Alltoall, .algo = coll::Algo::Pairwise});
      break;
    case StepColl::Allgatherv:
    case StepColl::Alltoallv:
      break;  // not tunable: always the ring, always pairwise
  }
}

/// One row folds four jobs: observe and trace off and on, and a clean and
/// an HCA-transient fault plan. Each job runs three rounds on the world
/// communicator (8 ranks, a power of two), then three on a split into
/// groups of 3, 3 and 2 ranks in reverse order (so pairwise shifts instead
/// of XOR, and Rabenseifner downgrades on 3).
std::uint64_t step_row_fingerprint(StepColl coll, Variant variant, int cph,
                                   const char* fabric) {
  Fingerprint f;
  const std::size_t block = block_of(variant);
  for (int job = 0; job < 4; ++job) {
    JobConfig cfg;
    cfg.deployment = DeploymentSpec::containers(2, cph, 4);
    cfg.fabric = net::FabricConfig::parse(fabric);
    cfg.observe = (job & 2) != 0;
    cfg.record_trace = cfg.observe;
    if ((job & 1) != 0) cfg.faults.hca_transient_prob = 0.3;
    pin_algorithm(cfg, coll);
    add_result(f, run_job(cfg, [coll, block](mpi::Process& p) {
                 for (int round = 0; round < 3; ++round)
                   step_round(p, p.world(), coll, block, round);
                 auto part = p.world().split(p.rank() % 3, -p.rank());
                 for (int round = 0; round < 3; ++round)
                   step_round(p, *part, coll, block, round);
               }));
  }
  return f.value();
}

struct StepGoldenRow {
  StepColl coll;
  Variant variant;
  int cph;
  const char* fabric;
  std::uint64_t fingerprint;
};

// Recorded when every ring and pairwise step was a sendrecv of two
// messages; the step exchange must not move any of them.
const StepGoldenRow kStepGolden[] = {
    {StepColl::AllgatherRing, Variant::Eager1K, 1, "ideal", 0x3fd7d4307ce70353ULL},
    {StepColl::AllgatherRing, Variant::Eager1K, 1, "fattree:4", 0xe9f2c18800dc22c3ULL},
    {StepColl::AllgatherRing, Variant::Eager1K, 2, "ideal", 0x9e444c91df9aa0a3ULL},
    {StepColl::AllgatherRing, Variant::Eager1K, 2, "fattree:4", 0x45a4c33c5d812313ULL},
    {StepColl::AllgatherRing, Variant::Eager1K, 4, "ideal", 0xcc6c283831b69165ULL},
    {StepColl::AllgatherRing, Variant::Eager1K, 4, "fattree:4", 0x48108d1502c2f836ULL},
    {StepColl::AllgatherRing, Variant::Mixed12K, 1, "ideal", 0x76b30de52e9f1ea3ULL},
    {StepColl::AllgatherRing, Variant::Mixed12K, 1, "fattree:4", 0x232a3bf38b9863c6ULL},
    {StepColl::AllgatherRing, Variant::Mixed12K, 2, "ideal", 0xf715f0b2347be05fULL},
    {StepColl::AllgatherRing, Variant::Mixed12K, 2, "fattree:4", 0x0133f38f5f40752bULL},
    {StepColl::AllgatherRing, Variant::Mixed12K, 4, "ideal", 0x97ad6893d81f0872ULL},
    {StepColl::AllgatherRing, Variant::Mixed12K, 4, "fattree:4", 0xe21693034d49fca1ULL},
    {StepColl::AllgatherRing, Variant::Rndv64K, 1, "ideal", 0x1f0bedb6ee39cfb6ULL},
    {StepColl::AllgatherRing, Variant::Rndv64K, 1, "fattree:4", 0xb22c8ce7e3d19427ULL},
    {StepColl::AllgatherRing, Variant::Rndv64K, 2, "ideal", 0xe4cc39102c87eb79ULL},
    {StepColl::AllgatherRing, Variant::Rndv64K, 2, "fattree:4", 0xe850f9ba7c0a7e7cULL},
    {StepColl::AllgatherRing, Variant::Rndv64K, 4, "ideal", 0x957aa3d6de9f12d8ULL},
    {StepColl::AllgatherRing, Variant::Rndv64K, 4, "fattree:4", 0x3484293d077c12c2ULL},
    {StepColl::Allgatherv, Variant::Eager1K, 1, "ideal", 0xb8b4fefd25fda6f3ULL},
    {StepColl::Allgatherv, Variant::Eager1K, 1, "fattree:4", 0xf36801c91897da3cULL},
    {StepColl::Allgatherv, Variant::Eager1K, 2, "ideal", 0x2edc3278acfcc945ULL},
    {StepColl::Allgatherv, Variant::Eager1K, 2, "fattree:4", 0x29c9c933e5886d9fULL},
    {StepColl::Allgatherv, Variant::Eager1K, 4, "ideal", 0x5842a2cf32c62d60ULL},
    {StepColl::Allgatherv, Variant::Eager1K, 4, "fattree:4", 0x6847b1e3064b7392ULL},
    {StepColl::Allgatherv, Variant::Mixed12K, 1, "ideal", 0x7d143e6c02796032ULL},
    {StepColl::Allgatherv, Variant::Mixed12K, 1, "fattree:4", 0x0cb5487b7f356cc2ULL},
    {StepColl::Allgatherv, Variant::Mixed12K, 2, "ideal", 0x8ecf38251da8db1fULL},
    {StepColl::Allgatherv, Variant::Mixed12K, 2, "fattree:4", 0x132309c39f616710ULL},
    {StepColl::Allgatherv, Variant::Mixed12K, 4, "ideal", 0xfdf1a1520d1c7b01ULL},
    {StepColl::Allgatherv, Variant::Mixed12K, 4, "fattree:4", 0xc3cac10e60268bddULL},
    {StepColl::Allgatherv, Variant::Rndv64K, 1, "ideal", 0x626bb06252ff4d34ULL},
    {StepColl::Allgatherv, Variant::Rndv64K, 1, "fattree:4", 0x8ce713024dab6073ULL},
    {StepColl::Allgatherv, Variant::Rndv64K, 2, "ideal", 0xa6588413f8518f0cULL},
    {StepColl::Allgatherv, Variant::Rndv64K, 2, "fattree:4", 0x3b84b6da6da8805eULL},
    {StepColl::Allgatherv, Variant::Rndv64K, 4, "ideal", 0xc283075a4f577802ULL},
    {StepColl::Allgatherv, Variant::Rndv64K, 4, "fattree:4", 0x1ac5d0b4592b61c7ULL},
    {StepColl::BcastVanDeGeijn, Variant::Eager1K, 1, "ideal", 0x70567e0d003613d4ULL},
    {StepColl::BcastVanDeGeijn, Variant::Eager1K, 1, "fattree:4", 0xfd50c36d5ec068a8ULL},
    {StepColl::BcastVanDeGeijn, Variant::Eager1K, 2, "ideal", 0xb108932f0f81566fULL},
    {StepColl::BcastVanDeGeijn, Variant::Eager1K, 2, "fattree:4", 0xd1d2b53b45a97f37ULL},
    {StepColl::BcastVanDeGeijn, Variant::Eager1K, 4, "ideal", 0x502904ff34e665d4ULL},
    {StepColl::BcastVanDeGeijn, Variant::Eager1K, 4, "fattree:4", 0x48722522771b0ac1ULL},
    {StepColl::BcastVanDeGeijn, Variant::Mixed12K, 1, "ideal", 0x668d7a8c55bfb93aULL},
    {StepColl::BcastVanDeGeijn, Variant::Mixed12K, 1, "fattree:4", 0xed3ca39afd4cff19ULL},
    {StepColl::BcastVanDeGeijn, Variant::Mixed12K, 2, "ideal", 0x8b5105b66c477a58ULL},
    {StepColl::BcastVanDeGeijn, Variant::Mixed12K, 2, "fattree:4", 0xf47e2b8951ff7be2ULL},
    {StepColl::BcastVanDeGeijn, Variant::Mixed12K, 4, "ideal", 0xefad650ceb7b2a09ULL},
    {StepColl::BcastVanDeGeijn, Variant::Mixed12K, 4, "fattree:4", 0xb11ed4e76058ca97ULL},
    {StepColl::BcastVanDeGeijn, Variant::Rndv64K, 1, "ideal", 0xe5f7872d86d1cde8ULL},
    {StepColl::BcastVanDeGeijn, Variant::Rndv64K, 1, "fattree:4", 0xd225f305730946a4ULL},
    {StepColl::BcastVanDeGeijn, Variant::Rndv64K, 2, "ideal", 0xa043140be71a3e68ULL},
    {StepColl::BcastVanDeGeijn, Variant::Rndv64K, 2, "fattree:4", 0x8933c0fbce0b4ceeULL},
    {StepColl::BcastVanDeGeijn, Variant::Rndv64K, 4, "ideal", 0xa944534ea7a47e7fULL},
    {StepColl::BcastVanDeGeijn, Variant::Rndv64K, 4, "fattree:4", 0x9af7a11049fcb032ULL},
    {StepColl::AllreduceRabenseifner, Variant::Eager1K, 1, "ideal", 0x920e27a06217c314ULL},
    {StepColl::AllreduceRabenseifner, Variant::Eager1K, 1, "fattree:4", 0x839a0d8583e932baULL},
    {StepColl::AllreduceRabenseifner, Variant::Eager1K, 2, "ideal", 0xb038e15d30a500deULL},
    {StepColl::AllreduceRabenseifner, Variant::Eager1K, 2, "fattree:4", 0xe93f0e7308a3eaeaULL},
    {StepColl::AllreduceRabenseifner, Variant::Eager1K, 4, "ideal", 0xcd7eb6594cf01312ULL},
    {StepColl::AllreduceRabenseifner, Variant::Eager1K, 4, "fattree:4", 0xb8de391e603fc2e3ULL},
    {StepColl::AllreduceRabenseifner, Variant::Mixed12K, 1, "ideal", 0xf47af147e6c97640ULL},
    {StepColl::AllreduceRabenseifner, Variant::Mixed12K, 1, "fattree:4", 0x386a61dc9b2e2a50ULL},
    {StepColl::AllreduceRabenseifner, Variant::Mixed12K, 2, "ideal", 0x2ca79eed9554372bULL},
    {StepColl::AllreduceRabenseifner, Variant::Mixed12K, 2, "fattree:4", 0xcf2bd183d897c97cULL},
    {StepColl::AllreduceRabenseifner, Variant::Mixed12K, 4, "ideal", 0x10fa2970955eb501ULL},
    {StepColl::AllreduceRabenseifner, Variant::Mixed12K, 4, "fattree:4", 0x2c1b377fab051e3aULL},
    {StepColl::AllreduceRabenseifner, Variant::Rndv64K, 1, "ideal", 0x13ca8952401535c4ULL},
    {StepColl::AllreduceRabenseifner, Variant::Rndv64K, 1, "fattree:4", 0x9d07afb84b0f995dULL},
    {StepColl::AllreduceRabenseifner, Variant::Rndv64K, 2, "ideal", 0xaf3af99546f62fc0ULL},
    {StepColl::AllreduceRabenseifner, Variant::Rndv64K, 2, "fattree:4", 0xd1c1a756bfa89491ULL},
    {StepColl::AllreduceRabenseifner, Variant::Rndv64K, 4, "ideal", 0x1d7e1e485987faa9ULL},
    {StepColl::AllreduceRabenseifner, Variant::Rndv64K, 4, "fattree:4", 0x93ef47a57f4fe696ULL},
    {StepColl::Alltoallv, Variant::Eager1K, 1, "ideal", 0x4ae01881d2939f14ULL},
    {StepColl::Alltoallv, Variant::Eager1K, 1, "fattree:4", 0x1b4d7e349ba44810ULL},
    {StepColl::Alltoallv, Variant::Eager1K, 2, "ideal", 0xa351286278b404a4ULL},
    {StepColl::Alltoallv, Variant::Eager1K, 2, "fattree:4", 0xb9774d4c3e26f069ULL},
    {StepColl::Alltoallv, Variant::Eager1K, 4, "ideal", 0x35a9bb62f3970f4eULL},
    {StepColl::Alltoallv, Variant::Eager1K, 4, "fattree:4", 0x8236604549ac969aULL},
    {StepColl::Alltoallv, Variant::Mixed12K, 1, "ideal", 0xb4bd33a7d8cbd669ULL},
    {StepColl::Alltoallv, Variant::Mixed12K, 1, "fattree:4", 0x3636048ca3a52293ULL},
    {StepColl::Alltoallv, Variant::Mixed12K, 2, "ideal", 0xd9c164d87765084eULL},
    {StepColl::Alltoallv, Variant::Mixed12K, 2, "fattree:4", 0xb799b577762f8274ULL},
    {StepColl::Alltoallv, Variant::Mixed12K, 4, "ideal", 0xd5520722c62d7a85ULL},
    {StepColl::Alltoallv, Variant::Mixed12K, 4, "fattree:4", 0x18d6f044ff54e37bULL},
    {StepColl::Alltoallv, Variant::Rndv64K, 1, "ideal", 0xf7ee672bd1d88938ULL},
    {StepColl::Alltoallv, Variant::Rndv64K, 1, "fattree:4", 0x409f6b0eddd89b57ULL},
    {StepColl::Alltoallv, Variant::Rndv64K, 2, "ideal", 0xf84376d18c1b28a3ULL},
    {StepColl::Alltoallv, Variant::Rndv64K, 2, "fattree:4", 0x77cc091007f0ecf6ULL},
    {StepColl::Alltoallv, Variant::Rndv64K, 4, "ideal", 0x46203b1087661eb5ULL},
    {StepColl::Alltoallv, Variant::Rndv64K, 4, "fattree:4", 0xd961034eb2d566e6ULL},
    {StepColl::AlltoallPairwise, Variant::Eager1K, 1, "ideal", 0x90e207d4f2b29e0bULL},
    {StepColl::AlltoallPairwise, Variant::Eager1K, 1, "fattree:4", 0xa43569e8a0e202aeULL},
    {StepColl::AlltoallPairwise, Variant::Eager1K, 2, "ideal", 0x628a302670ab28faULL},
    {StepColl::AlltoallPairwise, Variant::Eager1K, 2, "fattree:4", 0x6ab7b4bfbba69d28ULL},
    {StepColl::AlltoallPairwise, Variant::Eager1K, 4, "ideal", 0xec165986460165fcULL},
    {StepColl::AlltoallPairwise, Variant::Eager1K, 4, "fattree:4", 0xb9482d4a43152de3ULL},
    {StepColl::AlltoallPairwise, Variant::Mixed12K, 1, "ideal", 0xaec50fcd45806b35ULL},
    {StepColl::AlltoallPairwise, Variant::Mixed12K, 1, "fattree:4", 0xe7f16c186f456474ULL},
    {StepColl::AlltoallPairwise, Variant::Mixed12K, 2, "ideal", 0xb9dba9baf885ef07ULL},
    {StepColl::AlltoallPairwise, Variant::Mixed12K, 2, "fattree:4", 0x5c92762c9c335d94ULL},
    {StepColl::AlltoallPairwise, Variant::Mixed12K, 4, "ideal", 0xb04c09784ca14a09ULL},
    {StepColl::AlltoallPairwise, Variant::Mixed12K, 4, "fattree:4", 0xbabf97dc6278c0ebULL},
    {StepColl::AlltoallPairwise, Variant::Rndv64K, 1, "ideal", 0x61918fcb99566dcdULL},
    {StepColl::AlltoallPairwise, Variant::Rndv64K, 1, "fattree:4", 0x8af49ae2b2ca0be1ULL},
    {StepColl::AlltoallPairwise, Variant::Rndv64K, 2, "ideal", 0x898c226c0cbdf49dULL},
    {StepColl::AlltoallPairwise, Variant::Rndv64K, 2, "fattree:4", 0x6620afa8fbc7b299ULL},
    {StepColl::AlltoallPairwise, Variant::Rndv64K, 4, "ideal", 0x453eb981cce5b9c9ULL},
    {StepColl::AlltoallPairwise, Variant::Rndv64K, 4, "fattree:4", 0x5f98eb248565d4d4ULL},
};

TEST(StepExchange, ReproducesTheMessagePathFingerprints) {
  std::string regenerated;
  std::size_t row = 0;
  for (const auto coll : {StepColl::AllgatherRing, StepColl::Allgatherv,
                          StepColl::BcastVanDeGeijn, StepColl::AllreduceRabenseifner,
                          StepColl::Alltoallv, StepColl::AlltoallPairwise})
    for (const auto variant : {Variant::Eager1K, Variant::Mixed12K, Variant::Rndv64K})
      for (const int cph : {1, 2, 4})
        for (const char* fabric : {"ideal", "fattree:4"}) {
          const std::uint64_t measured = step_row_fingerprint(coll, variant, cph, fabric);
          const bool pinned = row < std::size(kStepGolden) &&
                              kStepGolden[row].coll == coll &&
                              kStepGolden[row].variant == variant &&
                              kStepGolden[row].cph == cph &&
                              std::string(kStepGolden[row].fabric) == fabric;
          EXPECT_TRUE(pinned && kStepGolden[row].fingerprint == measured)
              << to_string(coll) << " " << to_string(variant) << " at " << cph
              << " containers per host, " << fabric;
          char line[160];
          std::snprintf(line, sizeof line,
                        "    {StepColl::%s, Variant::%s, %d, \"%s\", 0x%016llxULL},\n",
                        to_string(coll), to_string(variant), cph, fabric,
                        static_cast<unsigned long long>(measured));
          regenerated += line;
          ++row;
        }
  if (HasFailure()) ADD_FAILURE() << "measured fingerprints:\n" << regenerated;
}

// One rank passes blocks twice as large as everyone else's, so each of its
// blocks overflows its receiver's block: the receive fails with the message
// path's truncation error, eager (SHM and HCA) and rendezvous (CMA and HCA)
// alike, and the job ends cleanly.
TEST(AlltoallExchange, LargerIncomingBlockRaisesTruncation) {
  for (const std::size_t block : {std::size_t{64}, std::size_t{64} * 1024}) {
    JobConfig cfg;
    cfg.deployment = DeploymentSpec::native_hosts(2, 2);
    cfg.coll_tuning.add({.coll = coll::Coll::Alltoall, .algo = coll::Algo::Spread});
    try {
      run_job(cfg, [block](mpi::Process& p) {
        const std::size_t mine = p.rank() == 1 ? 2 * block : block;
        const std::vector<std::byte> out(mine * 4, std::byte{7});
        std::vector<std::byte> in(out.size());
        p.world().alltoall(std::span<const std::byte>(out), std::span<std::byte>(in));
      });
      ADD_FAILURE() << "expected a truncation error for " << block << "-byte blocks";
    } catch (const TruncationError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("message truncation: rank "), std::string::npos) << what;
      EXPECT_NE(what.find(" recv(source=1, tag="), std::string::npos) << what;
      EXPECT_NE(what.find(", comm=0 (collective)) got " + std::to_string(2 * block) +
                          " bytes into a " + std::to_string(block) + "-byte buffer"),
                std::string::npos)
          << what;
    } catch (const Error& e) {
      ADD_FAILURE() << e.what();
    }
  }
}

// The same for alltoallv's step exchange: rank 1 sends every peer twice the
// bytes its receive count allows. The reader fails before it copies, and
// rank 1 withdraws nothing a peer still reads (ASan and TSan check it).
TEST(StepExchange, AlltoallvLargerIncomingBlockRaisesTruncation) {
  for (const std::size_t block : {std::size_t{64}, std::size_t{64} * 1024}) {
    JobConfig cfg;
    cfg.deployment = DeploymentSpec::native_hosts(2, 2);
    try {
      run_job(cfg, [block](mpi::Process& p) {
        const int n = p.size();
        const std::size_t mine = p.rank() == 1 ? 2 * block : block;
        std::vector<int> send_counts(idx(n), static_cast<int>(mine));
        std::vector<int> send_displs(idx(n));
        std::vector<int> recv_counts(idx(n), static_cast<int>(block));
        std::vector<int> recv_displs(idx(n));
        recv_counts[idx(p.rank())] = static_cast<int>(mine);
        for (int q = 0; q < n; ++q) {
          send_displs[idx(q)] = static_cast<int>(mine) * q;
          recv_displs[idx(q)] = static_cast<int>(2 * block) * q;
        }
        const std::vector<std::byte> out(mine * idx(n), std::byte{7});
        std::vector<std::byte> in(2 * block * idx(n));
        p.world().alltoallv(std::span<const std::byte>(out),
                            std::span<const int>(send_counts),
                            std::span<const int>(send_displs), std::span<std::byte>(in),
                            std::span<const int>(recv_counts),
                            std::span<const int>(recv_displs));
      });
      ADD_FAILURE() << "expected a truncation error for " << block << "-byte blocks";
    } catch (const TruncationError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("message truncation: rank "), std::string::npos) << what;
      EXPECT_NE(what.find(" recv(source=1, tag="), std::string::npos) << what;
      EXPECT_NE(what.find(", comm=0 (collective)) got " + std::to_string(2 * block) +
                          " bytes into a " + std::to_string(block) + "-byte buffer"),
                std::string::npos)
          << what;
    } catch (const Error& e) {
      ADD_FAILURE() << e.what();
    }
  }
}

/// Runs `job` under a watchdog, so a lost wake-up fails instead of hanging.
template <typename Job>
void within_10s(const char* what, Job job) {
  auto done = std::async(std::launch::async, std::move(job));
  if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    std::fprintf(stderr, "%s\n", what);
    std::_Exit(1);
  }
  done.get();
}

/// Four ranks on one host run `coll` on the world communicator, except rank
/// 2, which waits for a message rank 0 never sends; expects a DeadlockError
/// holding every line of `waits`.
template <typename Coll>
void expect_deadlock(const JobConfig& cfg, Coll coll, const std::vector<std::string>& waits) {
  within_10s("a rank missing from a step exchange hung, no DeadlockError", [&] {
    try {
      run_job(cfg, [&coll](mpi::Process& p) {
        if (p.rank() == 2) {
          (void)p.world().recv_value<int>(0, 4);
          return;
        }
        coll(p.world());
      });
      ADD_FAILURE() << "expected a DeadlockError";
    } catch (const DeadlockError& e) {
      const std::string what = e.what();
      for (const auto& wait : waits) EXPECT_NE(what.find(wait), std::string::npos) << what;
      EXPECT_NE(what.find("rank 2 waits in recv(source=0, tag=4, comm=0)"),
                std::string::npos)
          << what;
    }
  });
}

// The ring: rank 3 waits for rank 2's first step, rank 0 for rank 3's second
// and rank 1 for rank 0's third.
TEST(StepExchange, DeadlockNamesTheRingStepAndPeer) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 4);
  cfg.coll_tuning.add({.coll = coll::Coll::Allgather, .algo = coll::Algo::Ring});
  expect_deadlock(
      cfg,
      [](mpi::Communicator& world) {
        const std::array<int, 1> mine{world.rank()};
        std::array<int, 4> all{};
        world.allgather(std::span<const int>(mine), std::span<int>(all));
      },
      {"rank 3 waits in allgather #1 step 1/3 (comm 0): rank 2 has not published it",
       "rank 0 waits in allgather #1 step 2/3 (comm 0): rank 3 has not published it",
       "rank 1 waits in allgather #1 step 3/3 (comm 0): rank 0 has not published it"});
}

// Pairwise on four ranks pairs rank r with r ^ s in step s: rank 3 waits for
// rank 2 in step 1, rank 0 for rank 2 in step 2, and rank 1 for rank 3,
// which is stuck in step 1, in step 2.
TEST(StepExchange, DeadlockNamesThePairwiseStepAndPeer) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 4);
  expect_deadlock(
      cfg,
      [](mpi::Communicator& world) {
        const std::array<int, 4> counts{1, 1, 1, 1};
        const std::array<int, 4> displs{0, 1, 2, 3};
        const std::array<int, 4> out{};
        std::array<int, 4> in{};
        world.alltoallv(std::span<const int>(out), std::span<const int>(counts),
                        std::span<const int>(displs), std::span<int>(in),
                        std::span<const int>(counts), std::span<const int>(displs));
      },
      {"rank 3 waits in alltoallv #1 step 1/3 (comm 0): rank 2 has not published it",
       "rank 0 waits in alltoallv #1 step 2/3 (comm 0): rank 2 has not published it",
       "rank 1 waits in alltoallv #1 step 2/3 (comm 0): rank 3 has not published it"});
}

}  // namespace
}  // namespace cbmpi
