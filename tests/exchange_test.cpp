// The exchange in host memory: the spread alltoall publishes its blocks and
// envelopes once per call, and peers complete their receives from them in
// virtual arrival order; every other collective publishes one block per step
// that sends. Peers copy each block straight out of its owner's send buffer,
// or out of the copy its owner made of a range it rewrites.
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
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
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

// ---- every other collective algorithm ------------------------------------

/// The algorithms that moved their blocks as point-to-point messages, each
/// pinned, the two-level ones with their hand-offs.
enum class MsgColl {
  BarrierDissemination,
  BarrierFlatTree,
  BarrierTwoLevel,
  BcastBinomial,
  BcastFlatTree,
  BcastVanDeGeijn,
  BcastTwoLevel,
  ReduceBinomial,
  ReduceFlatTree,
  ReduceTwoLevel,
  AllreduceRecursiveDoubling,
  AllreduceReduceBcast,
  AllreduceTwoLevel,
  ReduceScatterBlock,
  AllgatherGatherBcast,
  AllgatherTwoLevel,
  Gather,
  Gatherv,
  Scatter,
  Scatterv,
  AlltoallBruck,
  Scan,
  Exscan,
};

constexpr MsgColl kMsgColls[] = {
    MsgColl::BarrierDissemination, MsgColl::BarrierFlatTree,
    MsgColl::BarrierTwoLevel,      MsgColl::BcastBinomial,
    MsgColl::BcastFlatTree,        MsgColl::BcastVanDeGeijn,
    MsgColl::BcastTwoLevel,        MsgColl::ReduceBinomial,
    MsgColl::ReduceFlatTree,       MsgColl::ReduceTwoLevel,
    MsgColl::AllreduceRecursiveDoubling, MsgColl::AllreduceReduceBcast,
    MsgColl::AllreduceTwoLevel,    MsgColl::ReduceScatterBlock,
    MsgColl::AllgatherGatherBcast, MsgColl::AllgatherTwoLevel,
    MsgColl::Gather,               MsgColl::Gatherv,
    MsgColl::Scatter,              MsgColl::Scatterv,
    MsgColl::AlltoallBruck,        MsgColl::Scan,
    MsgColl::Exscan,
};

const char* to_string(MsgColl c) {
  switch (c) {
    case MsgColl::BarrierDissemination: return "BarrierDissemination";
    case MsgColl::BarrierFlatTree: return "BarrierFlatTree";
    case MsgColl::BarrierTwoLevel: return "BarrierTwoLevel";
    case MsgColl::BcastBinomial: return "BcastBinomial";
    case MsgColl::BcastFlatTree: return "BcastFlatTree";
    case MsgColl::BcastVanDeGeijn: return "BcastVanDeGeijn";
    case MsgColl::BcastTwoLevel: return "BcastTwoLevel";
    case MsgColl::ReduceBinomial: return "ReduceBinomial";
    case MsgColl::ReduceFlatTree: return "ReduceFlatTree";
    case MsgColl::ReduceTwoLevel: return "ReduceTwoLevel";
    case MsgColl::AllreduceRecursiveDoubling: return "AllreduceRecursiveDoubling";
    case MsgColl::AllreduceReduceBcast: return "AllreduceReduceBcast";
    case MsgColl::AllreduceTwoLevel: return "AllreduceTwoLevel";
    case MsgColl::ReduceScatterBlock: return "ReduceScatterBlock";
    case MsgColl::AllgatherGatherBcast: return "AllgatherGatherBcast";
    case MsgColl::AllgatherTwoLevel: return "AllgatherTwoLevel";
    case MsgColl::Gather: return "Gather";
    case MsgColl::Gatherv: return "Gatherv";
    case MsgColl::Scatter: return "Scatter";
    case MsgColl::Scatterv: return "Scatterv";
    case MsgColl::AlltoallBruck: return "AlltoallBruck";
    case MsgColl::Scan: return "Scan";
    case MsgColl::Exscan: return "Exscan";
  }
  return "?";
}

void PrintTo(MsgColl c, std::ostream* os) { *os << to_string(c); }

bool two_level(MsgColl c) {
  return c == MsgColl::BarrierTwoLevel || c == MsgColl::BcastTwoLevel ||
         c == MsgColl::ReduceTwoLevel || c == MsgColl::AllreduceTwoLevel ||
         c == MsgColl::AllgatherTwoLevel;
}

/// Whether `c` sends or receives rendezvous blocks from scratch it allocates
/// per call (an accumulator, a pack). Under the pin-down cache model, which
/// numbers buffers by address, such a row is not reproducible with messages
/// either: the ranks that share a worker share its heap, so the scratch lands
/// at addresses that depend on how they interleave. The table leaves out
/// those rows' RegRndv64K variant.
bool registers_scratch(MsgColl c) {
  switch (c) {
    case MsgColl::ReduceBinomial:
    case MsgColl::ReduceFlatTree:
    case MsgColl::ReduceTwoLevel:
    case MsgColl::AllreduceRecursiveDoubling:
    case MsgColl::AllreduceReduceBcast:
    case MsgColl::AllreduceTwoLevel:
    case MsgColl::ReduceScatterBlock:
    case MsgColl::AllgatherTwoLevel:
    case MsgColl::AlltoallBruck:
    case MsgColl::Scan:
    case MsgColl::Exscan:
      return true;
    default:
      return false;
  }
}

/// Pins `c`'s algorithm for every size; the phases of a two-level one take
/// theirs from the default rows.
void pin_algorithm(JobConfig& cfg, MsgColl c) {
  const auto pin = [&cfg](coll::Coll coll, coll::Algo algo) {
    cfg.coll_tuning.add({.coll = coll, .algo = algo});
  };
  switch (c) {
    case MsgColl::BarrierDissemination: return pin(coll::Coll::Barrier, coll::Algo::Dissemination);
    case MsgColl::BarrierFlatTree: return pin(coll::Coll::Barrier, coll::Algo::FlatTree);
    case MsgColl::BarrierTwoLevel: return pin(coll::Coll::Barrier, coll::Algo::TwoLevel);
    case MsgColl::BcastBinomial: return pin(coll::Coll::Bcast, coll::Algo::Binomial);
    case MsgColl::BcastFlatTree: return pin(coll::Coll::Bcast, coll::Algo::FlatTree);
    case MsgColl::BcastVanDeGeijn: return pin(coll::Coll::Bcast, coll::Algo::VanDeGeijn);
    case MsgColl::BcastTwoLevel: return pin(coll::Coll::Bcast, coll::Algo::TwoLevel);
    case MsgColl::ReduceBinomial: return pin(coll::Coll::Reduce, coll::Algo::Binomial);
    case MsgColl::ReduceFlatTree: return pin(coll::Coll::Reduce, coll::Algo::FlatTree);
    case MsgColl::ReduceTwoLevel: return pin(coll::Coll::Reduce, coll::Algo::TwoLevel);
    case MsgColl::AllreduceRecursiveDoubling:
      return pin(coll::Coll::Allreduce, coll::Algo::RecursiveDoubling);
    case MsgColl::AllreduceReduceBcast: return pin(coll::Coll::Allreduce, coll::Algo::ReduceBcast);
    case MsgColl::AllreduceTwoLevel: return pin(coll::Coll::Allreduce, coll::Algo::TwoLevel);
    case MsgColl::AllgatherGatherBcast: return pin(coll::Coll::Allgather, coll::Algo::GatherBcast);
    case MsgColl::AllgatherTwoLevel: return pin(coll::Coll::Allgather, coll::Algo::TwoLevel);
    case MsgColl::AlltoallBruck: return pin(coll::Coll::Alltoall, coll::Algo::Bruck);
    case MsgColl::ReduceScatterBlock:
    case MsgColl::Gather:
    case MsgColl::Gatherv:
    case MsgColl::Scatter:
    case MsgColl::Scatterv:
    case MsgColl::Scan:
    case MsgColl::Exscan:
      return;  // not tunable
  }
}

/// The highest comm rank that is not its group's leader under the
/// container-aware policy (ranks are numbered host by host, four per host),
/// or 0 when every group has one rank.
int non_leader_root(mpi::Communicator& comm) {
  int root = 0;
  for (int c = 0; c < comm.size(); ++c)
    for (int d = 0; d < c; ++d)
      if (comm.to_world(c) / 4 == comm.to_world(d) / 4) root = c;
  return root;
}

/// A rank's buffers for every round of a job, allocated once: the pin-down
/// cache numbers buffers by address, so a buffer allocated per round would
/// take whatever address the worker's heap hands out, which depends on how
/// the ranks sharing that worker interleave.
struct MsgBuffers {
  explicit MsgBuffers(std::size_t block)
      : out(block * kMaxRanks), in(out.size()), expected(out.size()), mine(out.size()),
        sums(block / sizeof(std::int64_t)), result(sums.size()) {}
  static constexpr std::size_t kMaxRanks = 8;
  std::vector<std::uint8_t> out, in, expected, mine;
  std::vector<std::int64_t> sums, result;
};

/// One call of `coll` on `comm`, moving `block`-byte blocks, while the rank
/// holds a user receive. Each rank sends its right neighbour an eager message
/// before a barrier and posts the matching receive after it, so the message
/// already waits in the inbox when the call first progresses posted
/// receives; the receive is waited for after the call. A rank-dependent
/// compute makes the blocks arrive in a different virtual order every round.
void msg_round(mpi::Process& p, mpi::Communicator& comm, MsgColl coll, std::size_t block,
               int round, MsgBuffers& b) {
  using I64 = std::int64_t;
  const int n = comm.size();
  const int r = comm.rank();
  const std::size_t un = idx(n);
  const int right = (r + 1) % n;
  const int left = (r + n - 1) % n;
  int got = -1;
  mpi::Request user;
  if (n > 1) comm.send_value<int>(100 * r + round, right, 5);
  comm.barrier();
  if (n > 1) user = comm.irecv(std::span<int>(&got, 1), left, 5);
  p.compute(400.0 * ((r * 7 + round * 3) % 5));

  const int root = two_level(coll) ? non_leader_root(comm) : round % n;
  const std::size_t elems = block / sizeof(I64);
  const I64 base = I64{n} * (n + 1) / 2;  // the sum of r + 1 over all ranks
  const auto value = [&](int rank, std::size_t i) {
    return static_cast<I64>(rank + 1 + round) + static_cast<I64>(i % 3);
  };
  const auto sum_at = [&](std::size_t i) {
    return base + I64{n} * (round + static_cast<I64>(i % 3));
  };
  const std::span<std::uint8_t> out = std::span(b.out).first(block * un);
  const std::span<std::uint8_t> in = std::span(b.in).first(out.size());
  const std::span<std::uint8_t> expected = std::span(b.expected).first(out.size());
  const std::span<I64> sums = b.sums;
  const std::span<I64> result = b.result;
  std::ranges::fill(in, 0);
  std::ranges::fill(expected, 0);
  std::ranges::fill(result, -1);
  const auto fill = [](std::span<std::uint8_t> v, std::size_t at, std::size_t bytes,
                       std::uint8_t byte) { std::ranges::fill(v.subspan(at, bytes), byte); };
  const auto ragged = [&] {
    std::vector<int> counts(un);
    for (int q = 0; q < n; ++q) counts[idx(q)] = static_cast<int>(block) - 16 * q;
    return counts;
  };
  const auto expect_bytes = [&](std::span<const std::uint8_t> got_bytes,
                                std::span<const std::uint8_t> want) {
    EXPECT_TRUE(std::ranges::equal(got_bytes, want))
        << to_string(coll) << " rank " << p.rank() << " round " << round;
  };

  switch (coll) {
    case MsgColl::BarrierDissemination:
    case MsgColl::BarrierFlatTree:
    case MsgColl::BarrierTwoLevel:
      comm.barrier();
      break;
    case MsgColl::BcastBinomial:
    case MsgColl::BcastFlatTree:
    case MsgColl::BcastVanDeGeijn:
    case MsgColl::BcastTwoLevel: {
      const auto data = in.first(block);
      const auto want = expected.first(block);
      for (std::size_t i = 0; i < block; ++i)
        want[i] = pattern(root, static_cast<int>(i % 13), round);
      if (r == root) std::ranges::copy(want, data.begin());
      comm.bcast(data, root);
      expect_bytes(data, want);
      break;
    }
    case MsgColl::ReduceBinomial:
    case MsgColl::ReduceFlatTree:
    case MsgColl::ReduceTwoLevel:
    case MsgColl::AllreduceRecursiveDoubling:
    case MsgColl::AllreduceReduceBcast:
    case MsgColl::AllreduceTwoLevel: {
      for (std::size_t i = 0; i < elems; ++i) sums[i] = value(r, i);
      const bool all = coll == MsgColl::AllreduceRecursiveDoubling ||
                       coll == MsgColl::AllreduceReduceBcast ||
                       coll == MsgColl::AllreduceTwoLevel;
      if (all)
        comm.allreduce(std::span<const I64>(sums), result, mpi::ReduceOp::Sum);
      else
        comm.reduce(std::span<const I64>(sums), result, mpi::ReduceOp::Sum, root);
      if (all || r == root) {
        for (std::size_t i = 0; i < elems; ++i)
          EXPECT_EQ(result[i], sum_at(i)) << to_string(coll) << " rank " << p.rank();
      }
      break;
    }
    case MsgColl::ReduceScatterBlock: {
      const std::size_t per = elems / un;
      for (std::size_t i = 0; i < per * un; ++i) sums[i] = value(r, i);
      comm.reduce_scatter_block(std::span<const I64>(sums).first(per * un),
                                result.first(per), mpi::ReduceOp::Sum);
      for (std::size_t j = 0; j < per; ++j)
        EXPECT_EQ(result[j], sum_at(per * idx(r) + j)) << "rank " << p.rank();
      break;
    }
    case MsgColl::AllgatherGatherBcast:
    case MsgColl::AllgatherTwoLevel:
    case MsgColl::Gather: {
      for (int q = 0; q < n; ++q) fill(expected, block * idx(q), block, pattern(q, 0, round));
      const std::span<const std::uint8_t> mine = expected.subspan(block * idx(r), block);
      if (coll == MsgColl::Gather) {
        comm.gather(mine, in, root);
        if (r == root) expect_bytes(in, expected);
      } else {
        comm.allgather(mine, in);
        expect_bytes(in, expected);
      }
      break;
    }
    case MsgColl::Gatherv: {
      const auto counts = ragged();
      const auto displs = reversed_displs(counts);
      for (int q = 0; q < n; ++q)
        fill(expected, idx(displs[idx(q)]), idx(counts[idx(q)]), pattern(q, 0, round));
      const std::span<const std::uint8_t> mine =
          expected.subspan(idx(displs[idx(r)]), idx(counts[idx(r)]));
      comm.gatherv(mine, in, std::span<const int>(counts), std::span<const int>(displs),
                   root);
      if (r == root) expect_bytes(in, expected);
      break;
    }
    case MsgColl::Scatter:
    case MsgColl::Scatterv: {
      const bool v = coll == MsgColl::Scatterv;
      const auto counts = v ? ragged() : std::vector<int>(un, static_cast<int>(block));
      std::vector<int> displs = reversed_displs(counts);
      if (!v)
        for (int q = 0; q < n; ++q) displs[idx(q)] = static_cast<int>(block) * q;
      for (int q = 0; q < n; ++q)
        fill(out, idx(displs[idx(q)]), idx(counts[idx(q)]), pattern(root, q, round));
      const auto mine = std::span(b.mine).first(idx(counts[idx(r)]));
      std::ranges::fill(mine, 0);
      if (v)
        comm.scatterv(std::span<const std::uint8_t>(out), std::span<const int>(counts),
                      std::span<const int>(displs), mine, root);
      else
        comm.scatter(std::span<const std::uint8_t>(out), mine, root);
      fill(expected, 0, mine.size(), pattern(root, r, round));
      expect_bytes(mine, expected.first(mine.size()));
      break;
    }
    case MsgColl::AlltoallBruck:
      for (int q = 0; q < n; ++q) {
        fill(out, block * idx(q), block, pattern(r, q, round));
        fill(expected, block * idx(q), block, pattern(q, r, round));
      }
      comm.alltoall(std::span<const std::uint8_t>(out), in);
      expect_bytes(in, expected);
      break;
    case MsgColl::Scan:
    case MsgColl::Exscan: {
      std::ranges::fill(sums, r + 1 + round);
      I64 want = 0;
      if (coll == MsgColl::Scan) {
        comm.scan(std::span<const I64>(sums), result, mpi::ReduceOp::Sum);
        want = I64{r + 1} * (r + 2) / 2 + I64{r + 1} * round;
      } else {
        comm.exscan(std::span<const I64>(sums), result, mpi::ReduceOp::Sum);
        want = I64{r} * (r + 1) / 2 + I64{r} * round;
      }
      EXPECT_TRUE(std::ranges::all_of(result, [want](I64 x) { return x == want; }))
          << to_string(coll) << " rank " << p.rank() << " round " << round;
      break;
    }
  }
  if (n > 1) {
    comm.wait(user);
    EXPECT_EQ(got, 100 * left + round) << "rank " << p.rank();
  }
}

/// One row folds four jobs, as step_row_fingerprint does: observe and trace
/// off and on, a clean and an HCA-transient fault plan (rarer than there, as
/// these jobs make more HCA transfers, none of which may exhaust its
/// retries), three rounds on the
/// 8-rank world, then three on the 3/3/2 split. The two-level rows run under
/// the container-aware policy, so every container count keeps the hierarchy.
std::uint64_t msg_row_fingerprint(MsgColl coll, Variant variant, int cph,
                                  const char* fabric) {
  Fingerprint f;
  const std::size_t block = block_of(variant);
  for (int job = 0; job < 4; ++job) {
    JobConfig cfg;
    cfg.deployment = DeploymentSpec::containers(2, cph, 4);
    if (two_level(coll)) cfg.policy = LocalityPolicy::ContainerAware;
    cfg.tuning.reg_model = variant == Variant::RegRndv64K;
    cfg.fabric = net::FabricConfig::parse(fabric);
    cfg.observe = (job & 2) != 0;
    cfg.record_trace = cfg.observe;
    if ((job & 1) != 0) cfg.faults.hca_transient_prob = 0.1;
    pin_algorithm(cfg, coll);
    add_result(f, run_job(cfg, [coll, block](mpi::Process& p) {
                 MsgBuffers buffers(block);
                 for (int round = 0; round < 3; ++round)
                   msg_round(p, p.world(), coll, block, round, buffers);
                 auto part = p.world().split(p.rank() % 3, -p.rank());
                 for (int round = 0; round < 3; ++round)
                   msg_round(p, *part, coll, block, round, buffers);
               }));
  }
  return f.value();
}

struct MsgGoldenRow {
  MsgColl coll;
  Variant variant;
  int cph;
  const char* fabric;
  std::uint64_t fingerprint;
};

// Recorded when every block of these algorithms was a point-to-point
// message; the exchange must not move any of them.
const MsgGoldenRow kMsgGolden[] = {
    {MsgColl::BarrierDissemination, Variant::Eager1K, 1, "ideal", 0x23f97fb1abdc2c20ULL},
    {MsgColl::BarrierDissemination, Variant::Eager1K, 1, "fattree:4", 0xb0707316deb01d5cULL},
    {MsgColl::BarrierDissemination, Variant::Eager1K, 2, "ideal", 0xdae0da91ea861afbULL},
    {MsgColl::BarrierDissemination, Variant::Eager1K, 2, "fattree:4", 0xe4cb4a39ff676e09ULL},
    {MsgColl::BarrierDissemination, Variant::Eager1K, 4, "ideal", 0xfc0e4bbadf81224aULL},
    {MsgColl::BarrierDissemination, Variant::Eager1K, 4, "fattree:4", 0x38b323c829547c38ULL},
    {MsgColl::BarrierDissemination, Variant::Rndv64K, 1, "ideal", 0x23f97fb1abdc2c20ULL},
    {MsgColl::BarrierDissemination, Variant::Rndv64K, 1, "fattree:4", 0xb0707316deb01d5cULL},
    {MsgColl::BarrierDissemination, Variant::Rndv64K, 2, "ideal", 0xdae0da91ea861afbULL},
    {MsgColl::BarrierDissemination, Variant::Rndv64K, 2, "fattree:4", 0xe4cb4a39ff676e09ULL},
    {MsgColl::BarrierDissemination, Variant::Rndv64K, 4, "ideal", 0xfc0e4bbadf81224aULL},
    {MsgColl::BarrierDissemination, Variant::Rndv64K, 4, "fattree:4", 0x38b323c829547c38ULL},
    {MsgColl::BarrierDissemination, Variant::RegRndv64K, 1, "ideal", 0xbf40541e598e232cULL},
    {MsgColl::BarrierDissemination, Variant::RegRndv64K, 1, "fattree:4", 0x4b880319c9cf8420ULL},
    {MsgColl::BarrierDissemination, Variant::RegRndv64K, 2, "ideal", 0x581188b693f3173bULL},
    {MsgColl::BarrierDissemination, Variant::RegRndv64K, 2, "fattree:4", 0x5faae22eeb850881ULL},
    {MsgColl::BarrierDissemination, Variant::RegRndv64K, 4, "ideal", 0x982b17c7060e73a2ULL},
    {MsgColl::BarrierDissemination, Variant::RegRndv64K, 4, "fattree:4", 0x01fb9ef4acb68d48ULL},
    {MsgColl::BarrierFlatTree, Variant::Eager1K, 1, "ideal", 0x83f314664234073fULL},
    {MsgColl::BarrierFlatTree, Variant::Eager1K, 1, "fattree:4", 0x3fda4bf7475cb5d1ULL},
    {MsgColl::BarrierFlatTree, Variant::Eager1K, 2, "ideal", 0xb37869301fa1ef08ULL},
    {MsgColl::BarrierFlatTree, Variant::Eager1K, 2, "fattree:4", 0xa75ad24923dfa9bcULL},
    {MsgColl::BarrierFlatTree, Variant::Eager1K, 4, "ideal", 0x5868c1a262a22a1eULL},
    {MsgColl::BarrierFlatTree, Variant::Eager1K, 4, "fattree:4", 0x3920f3912c077a66ULL},
    {MsgColl::BarrierFlatTree, Variant::Rndv64K, 1, "ideal", 0x83f314664234073fULL},
    {MsgColl::BarrierFlatTree, Variant::Rndv64K, 1, "fattree:4", 0x3fda4bf7475cb5d1ULL},
    {MsgColl::BarrierFlatTree, Variant::Rndv64K, 2, "ideal", 0xb37869301fa1ef08ULL},
    {MsgColl::BarrierFlatTree, Variant::Rndv64K, 2, "fattree:4", 0xa75ad24923dfa9bcULL},
    {MsgColl::BarrierFlatTree, Variant::Rndv64K, 4, "ideal", 0x5868c1a262a22a1eULL},
    {MsgColl::BarrierFlatTree, Variant::Rndv64K, 4, "fattree:4", 0x3920f3912c077a66ULL},
    {MsgColl::BarrierFlatTree, Variant::RegRndv64K, 1, "ideal", 0x6ad44ed927a8246bULL},
    {MsgColl::BarrierFlatTree, Variant::RegRndv64K, 1, "fattree:4", 0x18099d357e0aa20dULL},
    {MsgColl::BarrierFlatTree, Variant::RegRndv64K, 2, "ideal", 0xd6e24e012f414b80ULL},
    {MsgColl::BarrierFlatTree, Variant::RegRndv64K, 2, "fattree:4", 0x27b773d73138eda8ULL},
    {MsgColl::BarrierFlatTree, Variant::RegRndv64K, 4, "ideal", 0x51c37d83d9c9b346ULL},
    {MsgColl::BarrierFlatTree, Variant::RegRndv64K, 4, "fattree:4", 0x47e050dd37b31bc6ULL},
    {MsgColl::BarrierTwoLevel, Variant::Eager1K, 1, "ideal", 0x60d866c68608379eULL},
    {MsgColl::BarrierTwoLevel, Variant::Eager1K, 1, "fattree:4", 0xfbf670bd588ed54aULL},
    {MsgColl::BarrierTwoLevel, Variant::Eager1K, 2, "ideal", 0x60d866c68608379eULL},
    {MsgColl::BarrierTwoLevel, Variant::Eager1K, 2, "fattree:4", 0xfbf670bd588ed54aULL},
    {MsgColl::BarrierTwoLevel, Variant::Eager1K, 4, "ideal", 0x60d866c68608379eULL},
    {MsgColl::BarrierTwoLevel, Variant::Eager1K, 4, "fattree:4", 0xfbf670bd588ed54aULL},
    {MsgColl::BarrierTwoLevel, Variant::Rndv64K, 1, "ideal", 0x60d866c68608379eULL},
    {MsgColl::BarrierTwoLevel, Variant::Rndv64K, 1, "fattree:4", 0xfbf670bd588ed54aULL},
    {MsgColl::BarrierTwoLevel, Variant::Rndv64K, 2, "ideal", 0x60d866c68608379eULL},
    {MsgColl::BarrierTwoLevel, Variant::Rndv64K, 2, "fattree:4", 0xfbf670bd588ed54aULL},
    {MsgColl::BarrierTwoLevel, Variant::Rndv64K, 4, "ideal", 0x60d866c68608379eULL},
    {MsgColl::BarrierTwoLevel, Variant::Rndv64K, 4, "fattree:4", 0xfbf670bd588ed54aULL},
    {MsgColl::BarrierTwoLevel, Variant::RegRndv64K, 1, "ideal", 0x2c15818098633672ULL},
    {MsgColl::BarrierTwoLevel, Variant::RegRndv64K, 1, "fattree:4", 0x4d729252b4b4cd9aULL},
    {MsgColl::BarrierTwoLevel, Variant::RegRndv64K, 2, "ideal", 0x2c15818098633672ULL},
    {MsgColl::BarrierTwoLevel, Variant::RegRndv64K, 2, "fattree:4", 0x4d729252b4b4cd9aULL},
    {MsgColl::BarrierTwoLevel, Variant::RegRndv64K, 4, "ideal", 0x2c15818098633672ULL},
    {MsgColl::BarrierTwoLevel, Variant::RegRndv64K, 4, "fattree:4", 0x4d729252b4b4cd9aULL},
    {MsgColl::BcastBinomial, Variant::Eager1K, 1, "ideal", 0x039c1f65eef70e80ULL},
    {MsgColl::BcastBinomial, Variant::Eager1K, 1, "fattree:4", 0xe5257d9c0df1bbc1ULL},
    {MsgColl::BcastBinomial, Variant::Eager1K, 2, "ideal", 0x20dc41ca88c7556dULL},
    {MsgColl::BcastBinomial, Variant::Eager1K, 2, "fattree:4", 0x1322a5ed61a229deULL},
    {MsgColl::BcastBinomial, Variant::Eager1K, 4, "ideal", 0xd63ca01f86d65713ULL},
    {MsgColl::BcastBinomial, Variant::Eager1K, 4, "fattree:4", 0x313b1bdcb4e3db10ULL},
    {MsgColl::BcastBinomial, Variant::Rndv64K, 1, "ideal", 0x3edb108012aad51bULL},
    {MsgColl::BcastBinomial, Variant::Rndv64K, 1, "fattree:4", 0xb0657145dc8c6f44ULL},
    {MsgColl::BcastBinomial, Variant::Rndv64K, 2, "ideal", 0xd88372e9745616d0ULL},
    {MsgColl::BcastBinomial, Variant::Rndv64K, 2, "fattree:4", 0x1fbe7c0a715ec116ULL},
    {MsgColl::BcastBinomial, Variant::Rndv64K, 4, "ideal", 0x0d69f96bc3625f27ULL},
    {MsgColl::BcastBinomial, Variant::Rndv64K, 4, "fattree:4", 0x9e039cd9ae6d0f81ULL},
    {MsgColl::BcastBinomial, Variant::RegRndv64K, 1, "ideal", 0x0e7090c205483baeULL},
    {MsgColl::BcastBinomial, Variant::RegRndv64K, 1, "fattree:4", 0x6af1223a93eaa24bULL},
    {MsgColl::BcastBinomial, Variant::RegRndv64K, 2, "ideal", 0xfa781ff4df2e60a0ULL},
    {MsgColl::BcastBinomial, Variant::RegRndv64K, 2, "fattree:4", 0x72674da76a97756eULL},
    {MsgColl::BcastBinomial, Variant::RegRndv64K, 4, "ideal", 0x9c3e363d00c5922aULL},
    {MsgColl::BcastBinomial, Variant::RegRndv64K, 4, "fattree:4", 0x9728f0ba9c818fc9ULL},
    {MsgColl::BcastFlatTree, Variant::Eager1K, 1, "ideal", 0xa681ccbb8f8ba2edULL},
    {MsgColl::BcastFlatTree, Variant::Eager1K, 1, "fattree:4", 0xb7560c0492dd92e3ULL},
    {MsgColl::BcastFlatTree, Variant::Eager1K, 2, "ideal", 0x438f5123156f88b4ULL},
    {MsgColl::BcastFlatTree, Variant::Eager1K, 2, "fattree:4", 0x0cb91a5d8da5a9acULL},
    {MsgColl::BcastFlatTree, Variant::Eager1K, 4, "ideal", 0x15b34eb1c3c3c384ULL},
    {MsgColl::BcastFlatTree, Variant::Eager1K, 4, "fattree:4", 0xc314e872a182fcb1ULL},
    {MsgColl::BcastFlatTree, Variant::Rndv64K, 1, "ideal", 0x0757f126a3a71adeULL},
    {MsgColl::BcastFlatTree, Variant::Rndv64K, 1, "fattree:4", 0xbfda0295dd357c52ULL},
    {MsgColl::BcastFlatTree, Variant::Rndv64K, 2, "ideal", 0xb4570cbe5f79c428ULL},
    {MsgColl::BcastFlatTree, Variant::Rndv64K, 2, "fattree:4", 0x49d919d8b9120ed6ULL},
    {MsgColl::BcastFlatTree, Variant::Rndv64K, 4, "ideal", 0x1f079ba24c72e9caULL},
    {MsgColl::BcastFlatTree, Variant::Rndv64K, 4, "fattree:4", 0x98a9b0af1468cce6ULL},
    {MsgColl::BcastFlatTree, Variant::RegRndv64K, 1, "ideal", 0x3cbfadeede65db37ULL},
    {MsgColl::BcastFlatTree, Variant::RegRndv64K, 1, "fattree:4", 0x59538a0dd9e9ed2aULL},
    {MsgColl::BcastFlatTree, Variant::RegRndv64K, 2, "ideal", 0xce8d9abaf64f0a3aULL},
    {MsgColl::BcastFlatTree, Variant::RegRndv64K, 2, "fattree:4", 0xddd9d682fdaab8aeULL},
    {MsgColl::BcastFlatTree, Variant::RegRndv64K, 4, "ideal", 0xc14f597bd1ad4bdfULL},
    {MsgColl::BcastFlatTree, Variant::RegRndv64K, 4, "fattree:4", 0x6af166c7b29325cbULL},
    {MsgColl::BcastVanDeGeijn, Variant::Eager1K, 1, "ideal", 0x8629b369289a5237ULL},
    {MsgColl::BcastVanDeGeijn, Variant::Eager1K, 1, "fattree:4", 0xf372f1bbe75244ceULL},
    {MsgColl::BcastVanDeGeijn, Variant::Eager1K, 2, "ideal", 0xf59a045d2339ae5cULL},
    {MsgColl::BcastVanDeGeijn, Variant::Eager1K, 2, "fattree:4", 0x84c46e4267dfa977ULL},
    {MsgColl::BcastVanDeGeijn, Variant::Eager1K, 4, "ideal", 0x61376e01963a431cULL},
    {MsgColl::BcastVanDeGeijn, Variant::Eager1K, 4, "fattree:4", 0xf6bb667170265eaeULL},
    {MsgColl::BcastVanDeGeijn, Variant::Rndv64K, 1, "ideal", 0x196770038b031a01ULL},
    {MsgColl::BcastVanDeGeijn, Variant::Rndv64K, 1, "fattree:4", 0x83a298136e9e276dULL},
    {MsgColl::BcastVanDeGeijn, Variant::Rndv64K, 2, "ideal", 0x8dcf07fed6819411ULL},
    {MsgColl::BcastVanDeGeijn, Variant::Rndv64K, 2, "fattree:4", 0x94bf75e489c69c22ULL},
    {MsgColl::BcastVanDeGeijn, Variant::Rndv64K, 4, "ideal", 0x8dea31d727f97296ULL},
    {MsgColl::BcastVanDeGeijn, Variant::Rndv64K, 4, "fattree:4", 0x02f1cb1113629f87ULL},
    {MsgColl::BcastVanDeGeijn, Variant::RegRndv64K, 1, "ideal", 0xc848a7bf9d10580bULL},
    {MsgColl::BcastVanDeGeijn, Variant::RegRndv64K, 1, "fattree:4", 0x6fa0da0a1ec3d2e3ULL},
    {MsgColl::BcastVanDeGeijn, Variant::RegRndv64K, 2, "ideal", 0xa4b3146bdc4d5b64ULL},
    {MsgColl::BcastVanDeGeijn, Variant::RegRndv64K, 2, "fattree:4", 0x8afc749af7500425ULL},
    {MsgColl::BcastVanDeGeijn, Variant::RegRndv64K, 4, "ideal", 0x82cfc5cc4f800edaULL},
    {MsgColl::BcastVanDeGeijn, Variant::RegRndv64K, 4, "fattree:4", 0x2eb1032738df43f1ULL},
    {MsgColl::BcastTwoLevel, Variant::Eager1K, 1, "ideal", 0x81f4b6929e3d79cbULL},
    {MsgColl::BcastTwoLevel, Variant::Eager1K, 1, "fattree:4", 0x0e204d3d8d942a4bULL},
    {MsgColl::BcastTwoLevel, Variant::Eager1K, 2, "ideal", 0x81f4b6929e3d79cbULL},
    {MsgColl::BcastTwoLevel, Variant::Eager1K, 2, "fattree:4", 0x0e204d3d8d942a4bULL},
    {MsgColl::BcastTwoLevel, Variant::Eager1K, 4, "ideal", 0x81f4b6929e3d79cbULL},
    {MsgColl::BcastTwoLevel, Variant::Eager1K, 4, "fattree:4", 0x0e204d3d8d942a4bULL},
    {MsgColl::BcastTwoLevel, Variant::Rndv64K, 1, "ideal", 0xab2e8e32ccd0079eULL},
    {MsgColl::BcastTwoLevel, Variant::Rndv64K, 1, "fattree:4", 0xb8de79c9a99e34adULL},
    {MsgColl::BcastTwoLevel, Variant::Rndv64K, 2, "ideal", 0xab2e8e32ccd0079eULL},
    {MsgColl::BcastTwoLevel, Variant::Rndv64K, 2, "fattree:4", 0xb8de79c9a99e34adULL},
    {MsgColl::BcastTwoLevel, Variant::Rndv64K, 4, "ideal", 0xab2e8e32ccd0079eULL},
    {MsgColl::BcastTwoLevel, Variant::Rndv64K, 4, "fattree:4", 0xb8de79c9a99e34adULL},
    {MsgColl::BcastTwoLevel, Variant::RegRndv64K, 1, "ideal", 0xeeb5b1901984ee49ULL},
    {MsgColl::BcastTwoLevel, Variant::RegRndv64K, 1, "fattree:4", 0xdb433e01813114aeULL},
    {MsgColl::BcastTwoLevel, Variant::RegRndv64K, 2, "ideal", 0xeeb5b1901984ee49ULL},
    {MsgColl::BcastTwoLevel, Variant::RegRndv64K, 2, "fattree:4", 0xdb433e01813114aeULL},
    {MsgColl::BcastTwoLevel, Variant::RegRndv64K, 4, "ideal", 0xeeb5b1901984ee49ULL},
    {MsgColl::BcastTwoLevel, Variant::RegRndv64K, 4, "fattree:4", 0xdb433e01813114aeULL},
    {MsgColl::ReduceBinomial, Variant::Eager1K, 1, "ideal", 0xf92c0035bc06ad02ULL},
    {MsgColl::ReduceBinomial, Variant::Eager1K, 1, "fattree:4", 0xef650b8db9c0aa4aULL},
    {MsgColl::ReduceBinomial, Variant::Eager1K, 2, "ideal", 0xa65f5494640c716bULL},
    {MsgColl::ReduceBinomial, Variant::Eager1K, 2, "fattree:4", 0xdc6d4966b3b6bf88ULL},
    {MsgColl::ReduceBinomial, Variant::Eager1K, 4, "ideal", 0xb746b3d0ac280079ULL},
    {MsgColl::ReduceBinomial, Variant::Eager1K, 4, "fattree:4", 0x323c810dbeca90a7ULL},
    {MsgColl::ReduceBinomial, Variant::Rndv64K, 1, "ideal", 0x06db1bb615cb55aaULL},
    {MsgColl::ReduceBinomial, Variant::Rndv64K, 1, "fattree:4", 0x95873743e5763599ULL},
    {MsgColl::ReduceBinomial, Variant::Rndv64K, 2, "ideal", 0x5113375083fab26cULL},
    {MsgColl::ReduceBinomial, Variant::Rndv64K, 2, "fattree:4", 0xf082ad23a875c826ULL},
    {MsgColl::ReduceBinomial, Variant::Rndv64K, 4, "ideal", 0x571cebd0fae5b5f1ULL},
    {MsgColl::ReduceBinomial, Variant::Rndv64K, 4, "fattree:4", 0x5e56222bcc1413aeULL},
    {MsgColl::ReduceFlatTree, Variant::Eager1K, 1, "ideal", 0xc4356296655af98dULL},
    {MsgColl::ReduceFlatTree, Variant::Eager1K, 1, "fattree:4", 0x47d0182e3171da6dULL},
    {MsgColl::ReduceFlatTree, Variant::Eager1K, 2, "ideal", 0xbf14eec80a37441bULL},
    {MsgColl::ReduceFlatTree, Variant::Eager1K, 2, "fattree:4", 0xf959e04eb469f74bULL},
    {MsgColl::ReduceFlatTree, Variant::Eager1K, 4, "ideal", 0x2cd86124cd2b4351ULL},
    {MsgColl::ReduceFlatTree, Variant::Eager1K, 4, "fattree:4", 0x6b75a93cd869f130ULL},
    {MsgColl::ReduceFlatTree, Variant::Rndv64K, 1, "ideal", 0x64140657f305b52aULL},
    {MsgColl::ReduceFlatTree, Variant::Rndv64K, 1, "fattree:4", 0xf95e5c40afce7c54ULL},
    {MsgColl::ReduceFlatTree, Variant::Rndv64K, 2, "ideal", 0xcbe5a86a5373b5c1ULL},
    {MsgColl::ReduceFlatTree, Variant::Rndv64K, 2, "fattree:4", 0x9257cef278c1864eULL},
    {MsgColl::ReduceFlatTree, Variant::Rndv64K, 4, "ideal", 0xa48980c891c1707cULL},
    {MsgColl::ReduceFlatTree, Variant::Rndv64K, 4, "fattree:4", 0x216057144d7ab675ULL},
    {MsgColl::ReduceTwoLevel, Variant::Eager1K, 1, "ideal", 0x34601352b9505717ULL},
    {MsgColl::ReduceTwoLevel, Variant::Eager1K, 1, "fattree:4", 0x690b1094a8444f18ULL},
    {MsgColl::ReduceTwoLevel, Variant::Eager1K, 2, "ideal", 0x34601352b9505717ULL},
    {MsgColl::ReduceTwoLevel, Variant::Eager1K, 2, "fattree:4", 0x690b1094a8444f18ULL},
    {MsgColl::ReduceTwoLevel, Variant::Eager1K, 4, "ideal", 0x34601352b9505717ULL},
    {MsgColl::ReduceTwoLevel, Variant::Eager1K, 4, "fattree:4", 0x690b1094a8444f18ULL},
    {MsgColl::ReduceTwoLevel, Variant::Rndv64K, 1, "ideal", 0x02099870dfa8e061ULL},
    {MsgColl::ReduceTwoLevel, Variant::Rndv64K, 1, "fattree:4", 0x4feede52bc6b8abaULL},
    {MsgColl::ReduceTwoLevel, Variant::Rndv64K, 2, "ideal", 0x02099870dfa8e061ULL},
    {MsgColl::ReduceTwoLevel, Variant::Rndv64K, 2, "fattree:4", 0x4feede52bc6b8abaULL},
    {MsgColl::ReduceTwoLevel, Variant::Rndv64K, 4, "ideal", 0x02099870dfa8e061ULL},
    {MsgColl::ReduceTwoLevel, Variant::Rndv64K, 4, "fattree:4", 0x4feede52bc6b8abaULL},
    {MsgColl::AllreduceRecursiveDoubling, Variant::Eager1K, 1, "ideal", 0xae16b63921802815ULL},
    {MsgColl::AllreduceRecursiveDoubling, Variant::Eager1K, 1, "fattree:4", 0x6429ca409ebeb05dULL},
    {MsgColl::AllreduceRecursiveDoubling, Variant::Eager1K, 2, "ideal", 0xe13c703ab62b6905ULL},
    {MsgColl::AllreduceRecursiveDoubling, Variant::Eager1K, 2, "fattree:4", 0xe09a47a83a9b0717ULL},
    {MsgColl::AllreduceRecursiveDoubling, Variant::Eager1K, 4, "ideal", 0xfa4cbfe586793010ULL},
    {MsgColl::AllreduceRecursiveDoubling, Variant::Eager1K, 4, "fattree:4", 0x8da5d06e68266f3eULL},
    {MsgColl::AllreduceRecursiveDoubling, Variant::Rndv64K, 1, "ideal", 0x19e9855b25c8f5d5ULL},
    {MsgColl::AllreduceRecursiveDoubling, Variant::Rndv64K, 1, "fattree:4", 0x7e8ad77cea6fdae2ULL},
    {MsgColl::AllreduceRecursiveDoubling, Variant::Rndv64K, 2, "ideal", 0x1fbf286c5cfecfd9ULL},
    {MsgColl::AllreduceRecursiveDoubling, Variant::Rndv64K, 2, "fattree:4", 0x6ac8b636777b3e0aULL},
    {MsgColl::AllreduceRecursiveDoubling, Variant::Rndv64K, 4, "ideal", 0x5b72715b394251b9ULL},
    {MsgColl::AllreduceRecursiveDoubling, Variant::Rndv64K, 4, "fattree:4", 0xa6044fa48a17d90aULL},
    {MsgColl::AllreduceReduceBcast, Variant::Eager1K, 1, "ideal", 0x7e8215d3768e52b6ULL},
    {MsgColl::AllreduceReduceBcast, Variant::Eager1K, 1, "fattree:4", 0x625defa3dc801893ULL},
    {MsgColl::AllreduceReduceBcast, Variant::Eager1K, 2, "ideal", 0x35b477c45cb0d5e4ULL},
    {MsgColl::AllreduceReduceBcast, Variant::Eager1K, 2, "fattree:4", 0x0245d827de7aa234ULL},
    {MsgColl::AllreduceReduceBcast, Variant::Eager1K, 4, "ideal", 0xc3f0f60434d5767fULL},
    {MsgColl::AllreduceReduceBcast, Variant::Eager1K, 4, "fattree:4", 0x00f26ec72a1987c8ULL},
    {MsgColl::AllreduceReduceBcast, Variant::Rndv64K, 1, "ideal", 0x00ddf9f076350e6dULL},
    {MsgColl::AllreduceReduceBcast, Variant::Rndv64K, 1, "fattree:4", 0x59ae37fc309de6f7ULL},
    {MsgColl::AllreduceReduceBcast, Variant::Rndv64K, 2, "ideal", 0x4d44afdd6d07aaecULL},
    {MsgColl::AllreduceReduceBcast, Variant::Rndv64K, 2, "fattree:4", 0x9a964c454fc9ec46ULL},
    {MsgColl::AllreduceReduceBcast, Variant::Rndv64K, 4, "ideal", 0x45a3af8fe2dd0ba5ULL},
    {MsgColl::AllreduceReduceBcast, Variant::Rndv64K, 4, "fattree:4", 0x029e5fe3b625ad6aULL},
    {MsgColl::AllreduceTwoLevel, Variant::Eager1K, 1, "ideal", 0xf2f5bd5e2365c5faULL},
    {MsgColl::AllreduceTwoLevel, Variant::Eager1K, 1, "fattree:4", 0xdaae918ebc397221ULL},
    {MsgColl::AllreduceTwoLevel, Variant::Eager1K, 2, "ideal", 0xf2f5bd5e2365c5faULL},
    {MsgColl::AllreduceTwoLevel, Variant::Eager1K, 2, "fattree:4", 0xdaae918ebc397221ULL},
    {MsgColl::AllreduceTwoLevel, Variant::Eager1K, 4, "ideal", 0xf2f5bd5e2365c5faULL},
    {MsgColl::AllreduceTwoLevel, Variant::Eager1K, 4, "fattree:4", 0xdaae918ebc397221ULL},
    {MsgColl::AllreduceTwoLevel, Variant::Rndv64K, 1, "ideal", 0x9babbde328827424ULL},
    {MsgColl::AllreduceTwoLevel, Variant::Rndv64K, 1, "fattree:4", 0x9fa707db4e3dea38ULL},
    {MsgColl::AllreduceTwoLevel, Variant::Rndv64K, 2, "ideal", 0x9babbde328827424ULL},
    {MsgColl::AllreduceTwoLevel, Variant::Rndv64K, 2, "fattree:4", 0x9fa707db4e3dea38ULL},
    {MsgColl::AllreduceTwoLevel, Variant::Rndv64K, 4, "ideal", 0x9babbde328827424ULL},
    {MsgColl::AllreduceTwoLevel, Variant::Rndv64K, 4, "fattree:4", 0x9fa707db4e3dea38ULL},
    {MsgColl::ReduceScatterBlock, Variant::Eager1K, 1, "ideal", 0x2ee6f2d2ba3ec063ULL},
    {MsgColl::ReduceScatterBlock, Variant::Eager1K, 1, "fattree:4", 0x250a609dc6e2afb5ULL},
    {MsgColl::ReduceScatterBlock, Variant::Eager1K, 2, "ideal", 0x06169c5f506c7052ULL},
    {MsgColl::ReduceScatterBlock, Variant::Eager1K, 2, "fattree:4", 0x215c906d54fe7d7aULL},
    {MsgColl::ReduceScatterBlock, Variant::Eager1K, 4, "ideal", 0xf9cef60a1121de28ULL},
    {MsgColl::ReduceScatterBlock, Variant::Eager1K, 4, "fattree:4", 0xfb20e61fe4d74b08ULL},
    {MsgColl::ReduceScatterBlock, Variant::Rndv64K, 1, "ideal", 0x76b415fe87ce79d0ULL},
    {MsgColl::ReduceScatterBlock, Variant::Rndv64K, 1, "fattree:4", 0x6653d8c184404629ULL},
    {MsgColl::ReduceScatterBlock, Variant::Rndv64K, 2, "ideal", 0x2c596e2125ff4712ULL},
    {MsgColl::ReduceScatterBlock, Variant::Rndv64K, 2, "fattree:4", 0xe92ef423c990c31fULL},
    {MsgColl::ReduceScatterBlock, Variant::Rndv64K, 4, "ideal", 0x7caeb46b5c56311bULL},
    {MsgColl::ReduceScatterBlock, Variant::Rndv64K, 4, "fattree:4", 0x93b209ede838b3edULL},
    {MsgColl::AllgatherGatherBcast, Variant::Eager1K, 1, "ideal", 0x6f41fdfb1620cc65ULL},
    {MsgColl::AllgatherGatherBcast, Variant::Eager1K, 1, "fattree:4", 0x9927a827cdeaaa75ULL},
    {MsgColl::AllgatherGatherBcast, Variant::Eager1K, 2, "ideal", 0x82a785fd57625c1eULL},
    {MsgColl::AllgatherGatherBcast, Variant::Eager1K, 2, "fattree:4", 0x83508ab09e158b47ULL},
    {MsgColl::AllgatherGatherBcast, Variant::Eager1K, 4, "ideal", 0x622734e7ff915c1bULL},
    {MsgColl::AllgatherGatherBcast, Variant::Eager1K, 4, "fattree:4", 0x52be1ba646646965ULL},
    {MsgColl::AllgatherGatherBcast, Variant::Rndv64K, 1, "ideal", 0x97088b734f885958ULL},
    {MsgColl::AllgatherGatherBcast, Variant::Rndv64K, 1, "fattree:4", 0x311a983fc56eebd1ULL},
    {MsgColl::AllgatherGatherBcast, Variant::Rndv64K, 2, "ideal", 0x932d3bb22c7ae7c4ULL},
    {MsgColl::AllgatherGatherBcast, Variant::Rndv64K, 2, "fattree:4", 0x6e3f54e18c17b135ULL},
    {MsgColl::AllgatherGatherBcast, Variant::Rndv64K, 4, "ideal", 0x7ed148f9f8ebd364ULL},
    {MsgColl::AllgatherGatherBcast, Variant::Rndv64K, 4, "fattree:4", 0x88f472d2dafcb3a3ULL},
    {MsgColl::AllgatherGatherBcast, Variant::RegRndv64K, 1, "ideal", 0xa00a58110a4310f5ULL},
    {MsgColl::AllgatherGatherBcast, Variant::RegRndv64K, 1, "fattree:4", 0x677699c7e4403084ULL},
    {MsgColl::AllgatherGatherBcast, Variant::RegRndv64K, 2, "ideal", 0x93a22394f620fc6eULL},
    {MsgColl::AllgatherGatherBcast, Variant::RegRndv64K, 2, "fattree:4", 0x2d6a0d4056b1ee0fULL},
    {MsgColl::AllgatherGatherBcast, Variant::RegRndv64K, 4, "ideal", 0x2e13d37b3f490da3ULL},
    {MsgColl::AllgatherGatherBcast, Variant::RegRndv64K, 4, "fattree:4", 0xbd80bd508bbed399ULL},
    {MsgColl::AllgatherTwoLevel, Variant::Eager1K, 1, "ideal", 0x29945dc1f6a0b880ULL},
    {MsgColl::AllgatherTwoLevel, Variant::Eager1K, 1, "fattree:4", 0x6bb6ec8fe0ee22a3ULL},
    {MsgColl::AllgatherTwoLevel, Variant::Eager1K, 2, "ideal", 0x29945dc1f6a0b880ULL},
    {MsgColl::AllgatherTwoLevel, Variant::Eager1K, 2, "fattree:4", 0x6bb6ec8fe0ee22a3ULL},
    {MsgColl::AllgatherTwoLevel, Variant::Eager1K, 4, "ideal", 0x29945dc1f6a0b880ULL},
    {MsgColl::AllgatherTwoLevel, Variant::Eager1K, 4, "fattree:4", 0x6bb6ec8fe0ee22a3ULL},
    {MsgColl::AllgatherTwoLevel, Variant::Rndv64K, 1, "ideal", 0xc814f7b3de29d1c0ULL},
    {MsgColl::AllgatherTwoLevel, Variant::Rndv64K, 1, "fattree:4", 0x44dac41deeb87a1dULL},
    {MsgColl::AllgatherTwoLevel, Variant::Rndv64K, 2, "ideal", 0xc814f7b3de29d1c0ULL},
    {MsgColl::AllgatherTwoLevel, Variant::Rndv64K, 2, "fattree:4", 0x44dac41deeb87a1dULL},
    {MsgColl::AllgatherTwoLevel, Variant::Rndv64K, 4, "ideal", 0xc814f7b3de29d1c0ULL},
    {MsgColl::AllgatherTwoLevel, Variant::Rndv64K, 4, "fattree:4", 0x44dac41deeb87a1dULL},
    {MsgColl::Gather, Variant::Eager1K, 1, "ideal", 0x3a8126217e434f59ULL},
    {MsgColl::Gather, Variant::Eager1K, 1, "fattree:4", 0x5d1a6c49ae149fa2ULL},
    {MsgColl::Gather, Variant::Eager1K, 2, "ideal", 0x1bda58634d5a7135ULL},
    {MsgColl::Gather, Variant::Eager1K, 2, "fattree:4", 0x0a93aabba81450acULL},
    {MsgColl::Gather, Variant::Eager1K, 4, "ideal", 0x1eb9075338ea19cfULL},
    {MsgColl::Gather, Variant::Eager1K, 4, "fattree:4", 0x208be420f87d4cfbULL},
    {MsgColl::Gather, Variant::Rndv64K, 1, "ideal", 0x0507d6ca513b8619ULL},
    {MsgColl::Gather, Variant::Rndv64K, 1, "fattree:4", 0x21b7a86814c39f2bULL},
    {MsgColl::Gather, Variant::Rndv64K, 2, "ideal", 0xadb9b9b0f358adacULL},
    {MsgColl::Gather, Variant::Rndv64K, 2, "fattree:4", 0xacee59aadfaff037ULL},
    {MsgColl::Gather, Variant::Rndv64K, 4, "ideal", 0x5a09d58314f31f6aULL},
    {MsgColl::Gather, Variant::Rndv64K, 4, "fattree:4", 0x1d258f52fcaf70b2ULL},
    {MsgColl::Gather, Variant::RegRndv64K, 1, "ideal", 0x1319b235ad765803ULL},
    {MsgColl::Gather, Variant::RegRndv64K, 1, "fattree:4", 0xb45aaa2aaea6b126ULL},
    {MsgColl::Gather, Variant::RegRndv64K, 2, "ideal", 0x34ec4daa096b4a35ULL},
    {MsgColl::Gather, Variant::RegRndv64K, 2, "fattree:4", 0x92cc28dbf4641ad9ULL},
    {MsgColl::Gather, Variant::RegRndv64K, 4, "ideal", 0x5a76a7841940f642ULL},
    {MsgColl::Gather, Variant::RegRndv64K, 4, "fattree:4", 0x25eadd35dfe36423ULL},
    {MsgColl::Gatherv, Variant::Eager1K, 1, "ideal", 0xc688dc50ff96d056ULL},
    {MsgColl::Gatherv, Variant::Eager1K, 1, "fattree:4", 0x6a46f65ab0b98bc6ULL},
    {MsgColl::Gatherv, Variant::Eager1K, 2, "ideal", 0xa3fa8104e6b72b4dULL},
    {MsgColl::Gatherv, Variant::Eager1K, 2, "fattree:4", 0x9d5b1135c79f79acULL},
    {MsgColl::Gatherv, Variant::Eager1K, 4, "ideal", 0xf55f54e1ed391c7aULL},
    {MsgColl::Gatherv, Variant::Eager1K, 4, "fattree:4", 0xab1dc346d86800f3ULL},
    {MsgColl::Gatherv, Variant::Rndv64K, 1, "ideal", 0xdec0a73236159ca9ULL},
    {MsgColl::Gatherv, Variant::Rndv64K, 1, "fattree:4", 0xa8ebcefd94973b92ULL},
    {MsgColl::Gatherv, Variant::Rndv64K, 2, "ideal", 0x99ae1fe2b1607927ULL},
    {MsgColl::Gatherv, Variant::Rndv64K, 2, "fattree:4", 0x5fd0468b1f1541c2ULL},
    {MsgColl::Gatherv, Variant::Rndv64K, 4, "ideal", 0x228cbeb58e71c32dULL},
    {MsgColl::Gatherv, Variant::Rndv64K, 4, "fattree:4", 0x985ff9a9660d7602ULL},
    {MsgColl::Gatherv, Variant::RegRndv64K, 1, "ideal", 0x4725d2a8f9e5647aULL},
    {MsgColl::Gatherv, Variant::RegRndv64K, 1, "fattree:4", 0xbd8b49cafb558328ULL},
    {MsgColl::Gatherv, Variant::RegRndv64K, 2, "ideal", 0x63cfeb535119908cULL},
    {MsgColl::Gatherv, Variant::RegRndv64K, 2, "fattree:4", 0x1c3be66dc61e87f7ULL},
    {MsgColl::Gatherv, Variant::RegRndv64K, 4, "ideal", 0x823650b6c08b2561ULL},
    {MsgColl::Gatherv, Variant::RegRndv64K, 4, "fattree:4", 0xfc88f668d6590d29ULL},
    {MsgColl::Scatter, Variant::Eager1K, 1, "ideal", 0xc282b6a91b9a3c4fULL},
    {MsgColl::Scatter, Variant::Eager1K, 1, "fattree:4", 0x28d7d157df38c986ULL},
    {MsgColl::Scatter, Variant::Eager1K, 2, "ideal", 0x1dcad3c1c40b1e29ULL},
    {MsgColl::Scatter, Variant::Eager1K, 2, "fattree:4", 0x75c7eb7017b8cf6aULL},
    {MsgColl::Scatter, Variant::Eager1K, 4, "ideal", 0xdaffd489855a2275ULL},
    {MsgColl::Scatter, Variant::Eager1K, 4, "fattree:4", 0xd32a7a5696ebe7c7ULL},
    {MsgColl::Scatter, Variant::Rndv64K, 1, "ideal", 0x15b0011ae5ef1110ULL},
    {MsgColl::Scatter, Variant::Rndv64K, 1, "fattree:4", 0x7a9a81ead4f4cd39ULL},
    {MsgColl::Scatter, Variant::Rndv64K, 2, "ideal", 0xdb9c57e14176ff32ULL},
    {MsgColl::Scatter, Variant::Rndv64K, 2, "fattree:4", 0xc7388ff79f361203ULL},
    {MsgColl::Scatter, Variant::Rndv64K, 4, "ideal", 0x89a0d678638257b9ULL},
    {MsgColl::Scatter, Variant::Rndv64K, 4, "fattree:4", 0xe2c51cdb75eb3203ULL},
    {MsgColl::Scatter, Variant::RegRndv64K, 1, "ideal", 0x899dbb935701b2a7ULL},
    {MsgColl::Scatter, Variant::RegRndv64K, 1, "fattree:4", 0x161297e77dcfdfd5ULL},
    {MsgColl::Scatter, Variant::RegRndv64K, 2, "ideal", 0x6cc61ef1a5879a17ULL},
    {MsgColl::Scatter, Variant::RegRndv64K, 2, "fattree:4", 0x76ee2edccc3fdbcaULL},
    {MsgColl::Scatter, Variant::RegRndv64K, 4, "ideal", 0x26bc2df08dc7182bULL},
    {MsgColl::Scatter, Variant::RegRndv64K, 4, "fattree:4", 0x44972944c07a05d6ULL},
    {MsgColl::Scatterv, Variant::Eager1K, 1, "ideal", 0x5cf63a3c00b13645ULL},
    {MsgColl::Scatterv, Variant::Eager1K, 1, "fattree:4", 0x79ca748f6d608844ULL},
    {MsgColl::Scatterv, Variant::Eager1K, 2, "ideal", 0x1f4d26241561df8fULL},
    {MsgColl::Scatterv, Variant::Eager1K, 2, "fattree:4", 0x06f8aa06b4e956deULL},
    {MsgColl::Scatterv, Variant::Eager1K, 4, "ideal", 0xe28c055e53a53b88ULL},
    {MsgColl::Scatterv, Variant::Eager1K, 4, "fattree:4", 0x3cb31b0f22abddbdULL},
    {MsgColl::Scatterv, Variant::Rndv64K, 1, "ideal", 0xaa979381b19d7b90ULL},
    {MsgColl::Scatterv, Variant::Rndv64K, 1, "fattree:4", 0xca93411e4cc354c5ULL},
    {MsgColl::Scatterv, Variant::Rndv64K, 2, "ideal", 0xa1b9b6dd838d241dULL},
    {MsgColl::Scatterv, Variant::Rndv64K, 2, "fattree:4", 0x4c9a8699a9bc175eULL},
    {MsgColl::Scatterv, Variant::Rndv64K, 4, "ideal", 0xb2c120886a6233f9ULL},
    {MsgColl::Scatterv, Variant::Rndv64K, 4, "fattree:4", 0x8d38807f8cea6f86ULL},
    {MsgColl::Scatterv, Variant::RegRndv64K, 1, "ideal", 0x94769855ecd0deaeULL},
    {MsgColl::Scatterv, Variant::RegRndv64K, 1, "fattree:4", 0x5a433bf5cafbfb40ULL},
    {MsgColl::Scatterv, Variant::RegRndv64K, 2, "ideal", 0xef1986b75aec155cULL},
    {MsgColl::Scatterv, Variant::RegRndv64K, 2, "fattree:4", 0x8195a40576f41f3bULL},
    {MsgColl::Scatterv, Variant::RegRndv64K, 4, "ideal", 0x10125ead4bea97cbULL},
    {MsgColl::Scatterv, Variant::RegRndv64K, 4, "fattree:4", 0x92637c69924d297cULL},
    {MsgColl::AlltoallBruck, Variant::Eager1K, 1, "ideal", 0xbd80d36e3043724aULL},
    {MsgColl::AlltoallBruck, Variant::Eager1K, 1, "fattree:4", 0xc6fb5e56f43df8a5ULL},
    {MsgColl::AlltoallBruck, Variant::Eager1K, 2, "ideal", 0x853bc9d2e63589c6ULL},
    {MsgColl::AlltoallBruck, Variant::Eager1K, 2, "fattree:4", 0xfa3003659e6719b0ULL},
    {MsgColl::AlltoallBruck, Variant::Eager1K, 4, "ideal", 0x40aceb5a85850d9bULL},
    {MsgColl::AlltoallBruck, Variant::Eager1K, 4, "fattree:4", 0x72caf704a942b286ULL},
    {MsgColl::AlltoallBruck, Variant::Rndv64K, 1, "ideal", 0x1c79cd686443057fULL},
    {MsgColl::AlltoallBruck, Variant::Rndv64K, 1, "fattree:4", 0xf8bea7091eca9d3fULL},
    {MsgColl::AlltoallBruck, Variant::Rndv64K, 2, "ideal", 0x57c22a65f6ba3e36ULL},
    {MsgColl::AlltoallBruck, Variant::Rndv64K, 2, "fattree:4", 0xee05503a0fded2eaULL},
    {MsgColl::AlltoallBruck, Variant::Rndv64K, 4, "ideal", 0xa1b3946f85cfd291ULL},
    {MsgColl::AlltoallBruck, Variant::Rndv64K, 4, "fattree:4", 0x52054f5feb467eb0ULL},
    {MsgColl::Scan, Variant::Eager1K, 1, "ideal", 0x3b2f232d4efd7174ULL},
    {MsgColl::Scan, Variant::Eager1K, 1, "fattree:4", 0xb8572f0e6487362cULL},
    {MsgColl::Scan, Variant::Eager1K, 2, "ideal", 0xc36c9792b91319deULL},
    {MsgColl::Scan, Variant::Eager1K, 2, "fattree:4", 0xc40ac207bbbc5f37ULL},
    {MsgColl::Scan, Variant::Eager1K, 4, "ideal", 0xdd8df31a9b5ce91aULL},
    {MsgColl::Scan, Variant::Eager1K, 4, "fattree:4", 0x11d3714b3a5bb643ULL},
    {MsgColl::Scan, Variant::Rndv64K, 1, "ideal", 0x6841e1b6b0837628ULL},
    {MsgColl::Scan, Variant::Rndv64K, 1, "fattree:4", 0xc562f11acf681721ULL},
    {MsgColl::Scan, Variant::Rndv64K, 2, "ideal", 0x4710db1520598a15ULL},
    {MsgColl::Scan, Variant::Rndv64K, 2, "fattree:4", 0x664390fb25d68432ULL},
    {MsgColl::Scan, Variant::Rndv64K, 4, "ideal", 0x1d703e010bf7a7e1ULL},
    {MsgColl::Scan, Variant::Rndv64K, 4, "fattree:4", 0x9f67ad767aac9338ULL},
    {MsgColl::Exscan, Variant::Eager1K, 1, "ideal", 0x50697af6bf83e358ULL},
    {MsgColl::Exscan, Variant::Eager1K, 1, "fattree:4", 0x130f0a347ca4ecf0ULL},
    {MsgColl::Exscan, Variant::Eager1K, 2, "ideal", 0x2b3212aafcdf64baULL},
    {MsgColl::Exscan, Variant::Eager1K, 2, "fattree:4", 0xf423645f39d6a5afULL},
    {MsgColl::Exscan, Variant::Eager1K, 4, "ideal", 0x158e3ad204b632eaULL},
    {MsgColl::Exscan, Variant::Eager1K, 4, "fattree:4", 0x3d85359b2009a0cbULL},
    {MsgColl::Exscan, Variant::Rndv64K, 1, "ideal", 0x6113f1434654dc24ULL},
    {MsgColl::Exscan, Variant::Rndv64K, 1, "fattree:4", 0x822317b5cf424b59ULL},
    {MsgColl::Exscan, Variant::Rndv64K, 2, "ideal", 0xcd60e032e9b4bd85ULL},
    {MsgColl::Exscan, Variant::Rndv64K, 2, "fattree:4", 0x781b5ec0cc8ef4daULL},
    {MsgColl::Exscan, Variant::Rndv64K, 4, "ideal", 0x67682cfde5d1867dULL},
    {MsgColl::Exscan, Variant::Rndv64K, 4, "fattree:4", 0x6fcb9e50c38b6dc4ULL},
};

// One test per algorithm, so each stays well inside a sanitizer build's
// per-test timeout.
class MessagePathGolden : public ::testing::TestWithParam<MsgColl> {};

TEST_P(MessagePathGolden, ReproducesTheMessagePathFingerprints) {
  const MsgColl coll = GetParam();
  std::string regenerated;
  std::ptrdiff_t rows = 0;
  for (const auto variant : {Variant::Eager1K, Variant::Rndv64K, Variant::RegRndv64K})
    for (const int cph : {1, 2, 4})
      for (const char* fabric : {"ideal", "fattree:4"}) {
        if (variant == Variant::RegRndv64K && registers_scratch(coll)) continue;
        const std::uint64_t measured = msg_row_fingerprint(coll, variant, cph, fabric);
        const auto* golden = std::ranges::find_if(kMsgGolden, [&](const MsgGoldenRow& r) {
          return r.coll == coll && r.variant == variant && r.cph == cph &&
                 std::string(r.fabric) == fabric;
        });
        EXPECT_TRUE(golden != std::end(kMsgGolden) && golden->fingerprint == measured)
            << to_string(coll) << " " << to_string(variant) << " at " << cph
            << " containers per host, " << fabric;
        char line[160];
        std::snprintf(line, sizeof line,
                      "    {MsgColl::%s, Variant::%s, %d, \"%s\", 0x%016llxULL},\n",
                      to_string(coll), to_string(variant), cph, fabric,
                      static_cast<unsigned long long>(measured));
        regenerated += line;
        ++rows;
      }
  EXPECT_EQ(std::ranges::count_if(kMsgGolden,
                                  [coll](const MsgGoldenRow& r) { return r.coll == coll; }),
            rows)
      << "rows pinned for " << to_string(coll);
  if (HasFailure()) ADD_FAILURE() << "measured fingerprints:\n" << regenerated;
}

INSTANTIATE_TEST_SUITE_P(EveryAlgorithm, MessagePathGolden, ::testing::ValuesIn(kMsgColls),
                         [](const ::testing::TestParamInfo<MsgColl>& c) {
                           return std::string(to_string(c.param));
                         });

// One rank passes blocks twice as large as everyone else's, so each of its
// blocks overflows its receiver's block: the receive fails with the message
// path's truncation error, eager (SHM and HCA) and rendezvous (CMA and HCA)
// alike, and the job ends cleanly. That rank starts later, so its own reads
// of shorter blocks fail later in virtual time than the truncations.
TEST(AlltoallExchange, LargerIncomingBlockRaisesTruncation) {
  for (const std::size_t block : {std::size_t{64}, std::size_t{64} * 1024}) {
    JobConfig cfg;
    cfg.deployment = DeploymentSpec::native_hosts(2, 2);
    cfg.coll_tuning.add({.coll = coll::Coll::Alltoall, .algo = coll::Algo::Spread});
    try {
      run_job(cfg, [block](mpi::Process& p) {
        const std::size_t mine = p.rank() == 1 ? 2 * block : block;
        if (p.rank() == 1) p.compute(1000.0);
        const std::vector<std::byte> out(mine * 4, std::byte{7});
        std::vector<std::byte> in(out.size());
        p.world().alltoall(std::span<const std::byte>(out), std::span<std::byte>(in));
      });
      ADD_FAILURE() << "expected a truncation error for " << block << "-byte blocks";
    } catch (const TruncationError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("message truncation: rank "), std::string::npos) << what;
      EXPECT_NE(what.find(" recv(source=1, tag="), std::string::npos) << what;
      EXPECT_NE(what.find(", in alltoall #1) got " + std::to_string(2 * block) +
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
      EXPECT_NE(what.find(", in alltoallv #1) got " + std::to_string(2 * block) +
                          " bytes into a " + std::to_string(block) + "-byte buffer"),
                std::string::npos)
          << what;
    } catch (const Error& e) {
      ADD_FAILURE() << e.what();
    }
  }
}

// Rank 2 sends rank 0 a block longer than rank 0's receive range, so rank 0
// fails in its first step, after it published its block for rank 1, and
// frees that block as it unwinds. Rank 1 enters the call only then: its read
// of rank 0's block must abort, not copy freed memory (ASan checks it).
TEST(StepExchange, ReaderOfAFailedOwnerAborts) {
  for (const std::size_t block : {std::size_t{64}, std::size_t{64} * 1024}) {
    JobConfig cfg;
    cfg.deployment = DeploymentSpec::native_hosts(1, 3);
    struct SetOnExit {
      std::atomic<bool>* flag;
      ~SetOnExit() {
        if (flag != nullptr) flag->store(true);
      }
    };
    std::atomic<bool> owner_gone{false};
    std::atomic<bool> reader_aborted{false};
    try {
      run_job(cfg, [&](mpi::Process& p) {
        const int me = p.rank();
        // Declared before `out`, so rank 0 sets the flag once `out` is freed.
        const SetOnExit gone{me == 0 ? &owner_gone : nullptr};
        const std::array<int, 3> displs{0, 2 * static_cast<int>(block),
                                        4 * static_cast<int>(block)};
        std::array<int, 3> send_counts{};
        send_counts.fill(static_cast<int>(block));
        if (me == 2) send_counts[0] = static_cast<int>(2 * block);
        std::array<int, 3> recv_counts{};
        recv_counts.fill(static_cast<int>(block));
        const std::vector<std::byte> out(6 * block, std::byte{7});
        std::vector<std::byte> in(6 * block);
        if (me == 1)
          while (!owner_gone.load()) (void)p.world().iprobe();
        try {
          p.world().alltoallv(std::span<const std::byte>(out),
                              std::span<const int>(send_counts), std::span<const int>(displs),
                              std::span<std::byte>(in), std::span<const int>(recv_counts),
                              std::span<const int>(displs));
        } catch (const AbortedError&) {
          if (me == 1) reader_aborted = true;
          throw;
        }
      });
      ADD_FAILURE() << "expected a truncation error for " << block << "-byte blocks";
    } catch (const TruncationError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("message truncation: rank 0 recv(source=2, tag="),
                std::string::npos)
          << what;
    }
    EXPECT_TRUE(reader_aborted.load()) << block << "-byte blocks";
  }
}

// Mismatched collective calls: rank 0 broadcasts while the others allreduce.
// The first reader of rank 0's block sees it was published by another
// collective and fails, naming both calls.
TEST(CollectiveExchange, MismatchedCollectivesNameBothCalls) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 4);
  try {
    run_job(cfg, [](mpi::Process& p) {
      auto& world = p.world();
      if (p.rank() == 0) {
        std::array<int, 4> data{1, 2, 3, 4};
        world.bcast(std::span<int>(data), 0);
      } else {
        (void)world.allreduce_value(p.rank(), mpi::ReduceOp::Sum);
      }
    });
    ADD_FAILURE() << "expected an error for mismatched collectives";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" called allreduce #1 but rank 0 called bcast #1 (comm 0)"),
              std::string::npos)
        << what;
  }
}

// Rank 3 gathers to itself and waits for rank 0's block, while ranks 0-2
// run binomial bcasts rooted at rank 0, in which rank 0 addresses only ranks
// 1 and 2 and rank 2 forwards to rank 3. Rank 3 scans rank 0's entries of
// the first call when rank 2's block wakes it, and rank 0 rewrites them for
// its second call after a wall-clock pause in which it neither parks nor
// wakes a rank, so only the scan's hold on the guard orders the two (TSan
// checks it). Rank 0 runs one call ahead of rank 2, which waits for rank 3
// to read its first block, so every rank parks.
TEST(CollectiveExchange, ReaderScanningAnOwnerThatMovedOnDeadlocks) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 4);
  cfg.coll_tuning.add({.coll = coll::Coll::Bcast, .algo = coll::Algo::Binomial});
  try {
    run_job(cfg, [](mpi::Process& p) {
      auto& world = p.world();
      int value = 7;
      if (p.rank() == 3) {
        std::array<int, 4> all{};
        world.gather(std::span<const int>(&value, 1), std::span<int>(all), 3);
        return;
      }
      if (p.rank() != 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      for (int call = 0; call < 8; ++call) {
        world.bcast(std::span<int>(&value, 1), 0);
        if (p.rank() == 0 && call == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
    ADD_FAILURE() << "expected a DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    for (const char* wait :
         {"rank 0 waits in bcast #4 step 1/2 (comm 0): 1 of its earlier entries not read yet",
          "rank 1 waits in bcast #4 step 1/1 (comm 0): rank 0 has not published it",
          "rank 2 waits in bcast #2 step 2/2 (comm 0): 1 of its earlier entries not read yet",
          "rank 3 waits in gather #1 step 1/3 (comm 0): rank 0 has not published it"})
      EXPECT_NE(what.find(wait), std::string::npos) << wait << "\n" << what;
  }
}

/// A collective call in which one rank's receive range is longer than the
/// block it gets, and the receive and sizes the error must name.
struct ShortBlockCase {
  const char* name;
  void (*call)(mpi::Communicator& world);
  const char* receive;  ///< "rank R recv(source=S, "
  const char* sizes;    ///< ", in KIND #1) got B bytes into a N-byte buffer"
};

void PrintTo(const ShortBlockCase& c, std::ostream* os) { *os << c.name; }

class ShortCollectiveBlock : public ::testing::TestWithParam<ShortBlockCase> {};

// Four ranks on one host. Without the check, each case would run to the end
// with a tail of its receiver's buffer that no block wrote.
TEST_P(ShortCollectiveBlock, IsAnErrorNamingTheCollectivePeerAndSizes) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 4);
  try {
    run_job(cfg, [](mpi::Process& p) { GetParam().call(p.world()); });
    ADD_FAILURE() << "expected an error for a short block";
  } catch (const TruncationError& e) {
    ADD_FAILURE() << e.what();
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::string("short collective block: ") + GetParam().receive),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(GetParam().sizes), std::string::npos) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ShortCollectiveBlock,
    ::testing::Values(
        // Rank 1 passes 1 int to a gather of 2 per rank.
        ShortBlockCase{"gather",
                       [](mpi::Communicator& world) {
                         const std::vector<int> mine(world.rank() == 1 ? 1 : 2,
                                                     10 + world.rank());
                         std::vector<int> all(8, -1);
                         world.gather(std::span<const int>(mine), std::span<int>(all));
                       },
                       "rank 0 recv(source=1, ", ", in gather #1) got 4 bytes into a 8-byte buffer"},
        // Rank 2 passes 1 int where the counts say 2.
        ShortBlockCase{"gatherv",
                       [](mpi::Communicator& world) {
                         const std::array<int, 4> counts{2, 2, 2, 2};
                         const std::array<int, 4> displs{0, 2, 4, 6};
                         const std::vector<int> mine(world.rank() == 2 ? 1 : 2,
                                                     10 + world.rank());
                         std::vector<int> all(8, -1);
                         world.gatherv(std::span<const int>(mine), std::span<int>(all),
                                       std::span<const int>(counts),
                                       std::span<const int>(displs));
                       },
                       "rank 0 recv(source=2, ", ", in gatherv #1) got 4 bytes into a 8-byte buffer"},
        // Rank 3 expects 3 ints of a scatter of 2 per rank.
        ShortBlockCase{"scatter",
                       [](mpi::Communicator& world) {
                         std::vector<int> all(8);
                         for (int i = 0; i < 8; ++i) all[idx(i)] = i;
                         std::vector<int> mine(world.rank() == 3 ? 3 : 2, -1);
                         world.scatter(std::span<const int>(all), std::span<int>(mine));
                       },
                       "rank 3 recv(source=0, ",
                       ", in scatter #1) got 8 bytes into a 12-byte buffer"},
        // Rank 3 passes 4 ints to a bcast of 2.
        ShortBlockCase{"bcast",
                       [](mpi::Communicator& world) {
                         std::vector<int> data(world.rank() == 3 ? 4 : 2,
                                               world.rank() == 0 ? 7 : -1);
                         world.bcast(std::span<int>(data), 0);
                       },
                       "rank 3 recv(source=2, ", ", in bcast #1) got 8 bytes into a 16-byte buffer"}),
    [](const ::testing::TestParamInfo<ShortBlockCase>& c) { return c.param.name; });

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
