// The spread alltoall's exchange: every rank publishes its staged blocks and
// envelopes once, and peers complete their receives from them in virtual
// arrival order.
//
// The golden table pins a fingerprint of every observable output of a
// matrix of spread-alltoall jobs: the bit patterns of the rank clocks, the
// spans, trace events, profile channel counts and call times, the fabric
// model's report (what the recorded flows settled to), the pin-down cache
// counters, the fault report and the metrics. The values were recorded when
// the spread alltoall still sent one message per block, so the exchange must
// reproduce the message path bit for bit. A mismatch prints the whole table,
// ready to paste, for a deliberate model change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
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

/// Three spread alltoalls on the world communicator, or on the half of an
/// even/odd split with its ranks in reverse order. Each rank computes for a
/// rank-dependent time first, so the blocks arrive in a different virtual
/// order every round.
void exchange_body(mpi::Process& p, std::size_t block, bool split) {
  const auto run = [&](mpi::Communicator& comm) {
    const int n = comm.size();
    const int r = comm.rank();
    std::vector<std::uint8_t> out(block * static_cast<std::size_t>(n));
    std::vector<std::uint8_t> in(out.size());
    std::vector<std::uint8_t> expected(out.size());
    for (int round = 0; round < 3; ++round) {
      p.compute(400.0 * ((r * 7 + round * 3) % 5));
      for (int peer = 0; peer < n; ++peer)
        for (std::size_t i = 0; i < block; ++i) {
          const std::size_t at = static_cast<std::size_t>(peer) * block + i;
          const auto value = [&](int from, int to) {
            return static_cast<std::uint8_t>(
                static_cast<std::size_t>(from * 31 + to * 7 + round) + i);
          };
          out[at] = value(r, peer);
          expected[at] = value(peer, r);
        }
      comm.alltoall(std::span<const std::uint8_t>(out), std::span<std::uint8_t>(in));
      EXPECT_EQ(in, expected) << "rank " << p.rank() << " round " << round;
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
    } catch (const DeadlockError& e) {
      ADD_FAILURE() << e.what();
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("message truncation: rank "), std::string::npos) << what;
      EXPECT_NE(what.find(" recv(source=1, tag="), std::string::npos) << what;
      EXPECT_NE(what.find(", comm=0 (collective)) got " + std::to_string(2 * block) +
                          " bytes into a " + std::to_string(block) + "-byte buffer"),
                std::string::npos)
          << what;
    }
  }
}

}  // namespace
}  // namespace cbmpi
