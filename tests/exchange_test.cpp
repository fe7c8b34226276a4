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
// deliberate model change.
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
    {Variant::Eager1K, 1, "ideal", 0xbf8147d1b28cdeb1ULL},
    {Variant::Eager1K, 1, "fattree:4", 0x17696fb76eb11c3fULL},
    {Variant::Eager1K, 2, "ideal", 0x17e2c1f56a9df9b3ULL},
    {Variant::Eager1K, 2, "fattree:4", 0xa5b4ba04d1550031ULL},
    {Variant::Eager1K, 4, "ideal", 0x5312a09b60475411ULL},
    {Variant::Eager1K, 4, "fattree:4", 0x74a99e2fb3b3ee4eULL},
    {Variant::Mixed12K, 1, "ideal", 0x64754ab9ebcd898aULL},
    {Variant::Mixed12K, 1, "fattree:4", 0x20a5d1b98da83f15ULL},
    {Variant::Mixed12K, 2, "ideal", 0xdd071aec34617993ULL},
    {Variant::Mixed12K, 2, "fattree:4", 0xdf5734a40ea1149bULL},
    {Variant::Mixed12K, 4, "ideal", 0x6e9cd3ddb1424a77ULL},
    {Variant::Mixed12K, 4, "fattree:4", 0xfb7698003d93aaecULL},
    {Variant::Rndv64K, 1, "ideal", 0xd3ac63d5bc074a24ULL},
    {Variant::Rndv64K, 1, "fattree:4", 0xbb64ee712ac1cc61ULL},
    {Variant::Rndv64K, 2, "ideal", 0x03d78753406ed465ULL},
    {Variant::Rndv64K, 2, "fattree:4", 0xe164613ffb50c2afULL},
    {Variant::Rndv64K, 4, "ideal", 0x6edc1d33cc97cc10ULL},
    {Variant::Rndv64K, 4, "fattree:4", 0xc22656f7dafea500ULL},
    {Variant::ShmRndv64K, 1, "ideal", 0xd3ac63d5bc074a24ULL},
    {Variant::ShmRndv64K, 1, "fattree:4", 0xbb64ee712ac1cc61ULL},
    {Variant::ShmRndv64K, 2, "ideal", 0x8382e82829f68be5ULL},
    {Variant::ShmRndv64K, 2, "fattree:4", 0x2b016e8e38cef262ULL},
    {Variant::ShmRndv64K, 4, "ideal", 0x4420e49b1df08749ULL},
    {Variant::ShmRndv64K, 4, "fattree:4", 0x45a28dc1b4f11e60ULL},
    {Variant::RegRndv64K, 1, "ideal", 0xb532e0f82f845a69ULL},
    {Variant::RegRndv64K, 1, "fattree:4", 0xc9e700b48cf68b86ULL},
    {Variant::RegRndv64K, 2, "ideal", 0x5329d365805d4b48ULL},
    {Variant::RegRndv64K, 2, "fattree:4", 0x8f1079214a4fc6c6ULL},
    {Variant::RegRndv64K, 4, "ideal", 0x839c9108e66855d2ULL},
    {Variant::RegRndv64K, 4, "fattree:4", 0xae3ea8285fb0c8c7ULL},
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
    {StepColl::AllgatherRing, Variant::Eager1K, 1, "ideal", 0x0e3ec91eb3ec3a89ULL},
    {StepColl::AllgatherRing, Variant::Eager1K, 1, "fattree:4", 0x2728504e9a57e248ULL},
    {StepColl::AllgatherRing, Variant::Eager1K, 2, "ideal", 0x97ade20657ff3a75ULL},
    {StepColl::AllgatherRing, Variant::Eager1K, 2, "fattree:4", 0x0116646a59cd17d8ULL},
    {StepColl::AllgatherRing, Variant::Eager1K, 4, "ideal", 0x7c5f9de46509b6f3ULL},
    {StepColl::AllgatherRing, Variant::Eager1K, 4, "fattree:4", 0xac2b47e15b2f0dd9ULL},
    {StepColl::AllgatherRing, Variant::Mixed12K, 1, "ideal", 0xb4e9223bee1e7399ULL},
    {StepColl::AllgatherRing, Variant::Mixed12K, 1, "fattree:4", 0x40cd1a3e24484bd9ULL},
    {StepColl::AllgatherRing, Variant::Mixed12K, 2, "ideal", 0xf46736d1e8bfd8d5ULL},
    {StepColl::AllgatherRing, Variant::Mixed12K, 2, "fattree:4", 0xf493951d044953adULL},
    {StepColl::AllgatherRing, Variant::Mixed12K, 4, "ideal", 0xc4a494e76a8d2c50ULL},
    {StepColl::AllgatherRing, Variant::Mixed12K, 4, "fattree:4", 0x34baef49425544c7ULL},
    {StepColl::AllgatherRing, Variant::Rndv64K, 1, "ideal", 0x8936b6befba44fd0ULL},
    {StepColl::AllgatherRing, Variant::Rndv64K, 1, "fattree:4", 0x44f6e85ef9bc6b48ULL},
    {StepColl::AllgatherRing, Variant::Rndv64K, 2, "ideal", 0x76ba27dd1c5317ebULL},
    {StepColl::AllgatherRing, Variant::Rndv64K, 2, "fattree:4", 0xd1e4fd7f374d62d3ULL},
    {StepColl::AllgatherRing, Variant::Rndv64K, 4, "ideal", 0x31813b4896edf73eULL},
    {StepColl::AllgatherRing, Variant::Rndv64K, 4, "fattree:4", 0x102488a1f94733dcULL},
    {StepColl::Allgatherv, Variant::Eager1K, 1, "ideal", 0x939394e0dfe8113dULL},
    {StepColl::Allgatherv, Variant::Eager1K, 1, "fattree:4", 0x6995a8e9e839498fULL},
    {StepColl::Allgatherv, Variant::Eager1K, 2, "ideal", 0xd8fc21bb34793ef7ULL},
    {StepColl::Allgatherv, Variant::Eager1K, 2, "fattree:4", 0x3e9353b3d9a51688ULL},
    {StepColl::Allgatherv, Variant::Eager1K, 4, "ideal", 0xe1f036ea7465bed6ULL},
    {StepColl::Allgatherv, Variant::Eager1K, 4, "fattree:4", 0x46125b11e0ef2ee1ULL},
    {StepColl::Allgatherv, Variant::Mixed12K, 1, "ideal", 0xa574aee586b80ebcULL},
    {StepColl::Allgatherv, Variant::Mixed12K, 1, "fattree:4", 0xbbc28131176df99dULL},
    {StepColl::Allgatherv, Variant::Mixed12K, 2, "ideal", 0xa209dc6cb7e3da41ULL},
    {StepColl::Allgatherv, Variant::Mixed12K, 2, "fattree:4", 0x3d20bd65335c20faULL},
    {StepColl::Allgatherv, Variant::Mixed12K, 4, "ideal", 0xac0a2f2949c5f61fULL},
    {StepColl::Allgatherv, Variant::Mixed12K, 4, "fattree:4", 0x837878d8be87fd03ULL},
    {StepColl::Allgatherv, Variant::Rndv64K, 1, "ideal", 0x440378dc4958ffc2ULL},
    {StepColl::Allgatherv, Variant::Rndv64K, 1, "fattree:4", 0x5ebef113f4e82118ULL},
    {StepColl::Allgatherv, Variant::Rndv64K, 2, "ideal", 0x7f5214fcb3ddd92eULL},
    {StepColl::Allgatherv, Variant::Rndv64K, 2, "fattree:4", 0xe67d151cd160c1bdULL},
    {StepColl::Allgatherv, Variant::Rndv64K, 4, "ideal", 0xc30b5108d2f712d4ULL},
    {StepColl::Allgatherv, Variant::Rndv64K, 4, "fattree:4", 0xac47f1bdac9a8011ULL},
    {StepColl::BcastVanDeGeijn, Variant::Eager1K, 1, "ideal", 0xeeb98f39f5cfa6b6ULL},
    {StepColl::BcastVanDeGeijn, Variant::Eager1K, 1, "fattree:4", 0x16767fb4cd65a02fULL},
    {StepColl::BcastVanDeGeijn, Variant::Eager1K, 2, "ideal", 0x8749148bdb5b3c4dULL},
    {StepColl::BcastVanDeGeijn, Variant::Eager1K, 2, "fattree:4", 0xe9f6258d89c5ebf5ULL},
    {StepColl::BcastVanDeGeijn, Variant::Eager1K, 4, "ideal", 0x13c9cdfcb895e7f8ULL},
    {StepColl::BcastVanDeGeijn, Variant::Eager1K, 4, "fattree:4", 0x6531acd9495fadb1ULL},
    {StepColl::BcastVanDeGeijn, Variant::Mixed12K, 1, "ideal", 0x6a02d0e00757abc0ULL},
    {StepColl::BcastVanDeGeijn, Variant::Mixed12K, 1, "fattree:4", 0xebd9552ec36b28c7ULL},
    {StepColl::BcastVanDeGeijn, Variant::Mixed12K, 2, "ideal", 0xd095aa2c373b44caULL},
    {StepColl::BcastVanDeGeijn, Variant::Mixed12K, 2, "fattree:4", 0xfb9bafa6459615c0ULL},
    {StepColl::BcastVanDeGeijn, Variant::Mixed12K, 4, "ideal", 0x1d57106017d098adULL},
    {StepColl::BcastVanDeGeijn, Variant::Mixed12K, 4, "fattree:4", 0xab420207b0a223cbULL},
    {StepColl::BcastVanDeGeijn, Variant::Rndv64K, 1, "ideal", 0x742f977af37a0d4aULL},
    {StepColl::BcastVanDeGeijn, Variant::Rndv64K, 1, "fattree:4", 0xc53eeb1d28c96577ULL},
    {StepColl::BcastVanDeGeijn, Variant::Rndv64K, 2, "ideal", 0x20f81012edd18096ULL},
    {StepColl::BcastVanDeGeijn, Variant::Rndv64K, 2, "fattree:4", 0xab7cdddb2439c450ULL},
    {StepColl::BcastVanDeGeijn, Variant::Rndv64K, 4, "ideal", 0x2f15e44f03e28a97ULL},
    {StepColl::BcastVanDeGeijn, Variant::Rndv64K, 4, "fattree:4", 0xbfff63305aae9a8fULL},
    {StepColl::AllreduceRabenseifner, Variant::Eager1K, 1, "ideal", 0x3ea95e836f9ac2e6ULL},
    {StepColl::AllreduceRabenseifner, Variant::Eager1K, 1, "fattree:4", 0x97f107e14fab47edULL},
    {StepColl::AllreduceRabenseifner, Variant::Eager1K, 2, "ideal", 0x6fdfaa63cf774e38ULL},
    {StepColl::AllreduceRabenseifner, Variant::Eager1K, 2, "fattree:4", 0x67ed5dd4ff370aadULL},
    {StepColl::AllreduceRabenseifner, Variant::Eager1K, 4, "ideal", 0x188e18bf830d0e8eULL},
    {StepColl::AllreduceRabenseifner, Variant::Eager1K, 4, "fattree:4", 0x0f738e909fe1aabbULL},
    {StepColl::AllreduceRabenseifner, Variant::Mixed12K, 1, "ideal", 0x96ea9f004901948eULL},
    {StepColl::AllreduceRabenseifner, Variant::Mixed12K, 1, "fattree:4", 0x75885831cc1b8756ULL},
    {StepColl::AllreduceRabenseifner, Variant::Mixed12K, 2, "ideal", 0x131da30b60e33591ULL},
    {StepColl::AllreduceRabenseifner, Variant::Mixed12K, 2, "fattree:4", 0x099fadde09893d2eULL},
    {StepColl::AllreduceRabenseifner, Variant::Mixed12K, 4, "ideal", 0xc42e3eddb381a7b9ULL},
    {StepColl::AllreduceRabenseifner, Variant::Mixed12K, 4, "fattree:4", 0x193123cb575c3723ULL},
    {StepColl::AllreduceRabenseifner, Variant::Rndv64K, 1, "ideal", 0x565e11f6d4151ea2ULL},
    {StepColl::AllreduceRabenseifner, Variant::Rndv64K, 1, "fattree:4", 0xb5d83b6dd1dd4deeULL},
    {StepColl::AllreduceRabenseifner, Variant::Rndv64K, 2, "ideal", 0xf7391d6417ceb81cULL},
    {StepColl::AllreduceRabenseifner, Variant::Rndv64K, 2, "fattree:4", 0x2e264c117db8968cULL},
    {StepColl::AllreduceRabenseifner, Variant::Rndv64K, 4, "ideal", 0xdcbd53d825f0da7fULL},
    {StepColl::AllreduceRabenseifner, Variant::Rndv64K, 4, "fattree:4", 0xd231a639146ea2d5ULL},
    {StepColl::Alltoallv, Variant::Eager1K, 1, "ideal", 0xcb36a908054fb09eULL},
    {StepColl::Alltoallv, Variant::Eager1K, 1, "fattree:4", 0x2d7dee58c7e291f3ULL},
    {StepColl::Alltoallv, Variant::Eager1K, 2, "ideal", 0x50aa4a9750c80f84ULL},
    {StepColl::Alltoallv, Variant::Eager1K, 2, "fattree:4", 0xdac5a7b85f6dd4a0ULL},
    {StepColl::Alltoallv, Variant::Eager1K, 4, "ideal", 0x55ca19a1cf8e854cULL},
    {StepColl::Alltoallv, Variant::Eager1K, 4, "fattree:4", 0x58ea6fc7dc8658e9ULL},
    {StepColl::Alltoallv, Variant::Mixed12K, 1, "ideal", 0xe34035eaf3e7024fULL},
    {StepColl::Alltoallv, Variant::Mixed12K, 1, "fattree:4", 0xeb0a5f5702e143ddULL},
    {StepColl::Alltoallv, Variant::Mixed12K, 2, "ideal", 0x1052834744290f42ULL},
    {StepColl::Alltoallv, Variant::Mixed12K, 2, "fattree:4", 0xec3507663bc9c464ULL},
    {StepColl::Alltoallv, Variant::Mixed12K, 4, "ideal", 0xf7d31b5acd56fb1fULL},
    {StepColl::Alltoallv, Variant::Mixed12K, 4, "fattree:4", 0xd3f778c5a5fadf28ULL},
    {StepColl::Alltoallv, Variant::Rndv64K, 1, "ideal", 0x94ed785ddb11989eULL},
    {StepColl::Alltoallv, Variant::Rndv64K, 1, "fattree:4", 0x8f44c16034b26055ULL},
    {StepColl::Alltoallv, Variant::Rndv64K, 2, "ideal", 0x8f758e1130781257ULL},
    {StepColl::Alltoallv, Variant::Rndv64K, 2, "fattree:4", 0x4269e54c9a8f3e02ULL},
    {StepColl::Alltoallv, Variant::Rndv64K, 4, "ideal", 0x4aa7ea72abd91593ULL},
    {StepColl::Alltoallv, Variant::Rndv64K, 4, "fattree:4", 0x330807c0c828dbe5ULL},
    {StepColl::AlltoallPairwise, Variant::Eager1K, 1, "ideal", 0x643d930bcfc41c85ULL},
    {StepColl::AlltoallPairwise, Variant::Eager1K, 1, "fattree:4", 0x4ec98140147c9365ULL},
    {StepColl::AlltoallPairwise, Variant::Eager1K, 2, "ideal", 0x15ea4a6ff184fa5eULL},
    {StepColl::AlltoallPairwise, Variant::Eager1K, 2, "fattree:4", 0x637e67b22cf11d85ULL},
    {StepColl::AlltoallPairwise, Variant::Eager1K, 4, "ideal", 0x3e9c2603b5452726ULL},
    {StepColl::AlltoallPairwise, Variant::Eager1K, 4, "fattree:4", 0xffd78d11280b0300ULL},
    {StepColl::AlltoallPairwise, Variant::Mixed12K, 1, "ideal", 0x92431b20ee5616ffULL},
    {StepColl::AlltoallPairwise, Variant::Mixed12K, 1, "fattree:4", 0xada45dd73c3e9f16ULL},
    {StepColl::AlltoallPairwise, Variant::Mixed12K, 2, "ideal", 0x1554856ef2bf2db3ULL},
    {StepColl::AlltoallPairwise, Variant::Mixed12K, 2, "fattree:4", 0x4a4c42881bb5db14ULL},
    {StepColl::AlltoallPairwise, Variant::Mixed12K, 4, "ideal", 0x6db1d3231c193d87ULL},
    {StepColl::AlltoallPairwise, Variant::Mixed12K, 4, "fattree:4", 0xa2dab0c4529baafcULL},
    {StepColl::AlltoallPairwise, Variant::Rndv64K, 1, "ideal", 0x6adbec471bcd3b7bULL},
    {StepColl::AlltoallPairwise, Variant::Rndv64K, 1, "fattree:4", 0x58e66b90c897521fULL},
    {StepColl::AlltoallPairwise, Variant::Rndv64K, 2, "ideal", 0xf8c7ab66514138a1ULL},
    {StepColl::AlltoallPairwise, Variant::Rndv64K, 2, "fattree:4", 0x3285174a8c13d655ULL},
    {StepColl::AlltoallPairwise, Variant::Rndv64K, 4, "ideal", 0xdeefa345243c90bbULL},
    {StepColl::AlltoallPairwise, Variant::Rndv64K, 4, "fattree:4", 0x98637c62736cc45fULL},
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
