// Extension experiment: pin-down (memory-registration) cache and pipelined
// rendezvous in the HCA path (src/fabric/reg_cache, DESIGN.md §15).
//
// The paper's cost model treats RDMA buffers as free to use; real IB stacks
// pay a syscall-heavy, size-proportional registration on every cold buffer
// and amortize it with an LRU pin-down cache. This bench sweeps message size
// x cache capacity x reuse pattern and checks the shapes the model must
// produce:
//
//   1. reuse — a warm cache beats cold registration at every rendezvous
//      size, and turning the model off entirely is the fastest of all
//      (no registration charges anywhere);
//   2. pipelining — chunked rendezvous (register chunk k+1 while chunk k
//      flies) beats one serial full-message registration on a cold buffer;
//   3. capacity — a working set that fits hits exactly 2*(rounds-1)*buffers
//      times, one that cyclically overflows the budget thrashes to zero
//      hits and runs slower.
//
// Everything is virtual-time deterministic: the same seed writes a
// byte-identical --json document.
#include "bench_util.hpp"

using namespace cbmpi;
using namespace cbmpi::bench;

namespace {

enum class RegMode { Off, Cold, Warm };

/// `iters` rendezvous sends of `msg` bytes reusing one buffer per endpoint,
/// across one host pair. Cold = model on with a zero-byte budget (nothing
/// ever caches), warm = model on with the default budget.
mpi::JobResult reuse_run(Bytes msg, int iters, RegMode mode, Bytes chunk,
                         std::uint64_t seed) {
  mpi::JobConfig config;
  config.deployment = container::DeploymentSpec::native_hosts(2, 1);
  config.seed = seed;
  config.tuning.reg_model = mode != RegMode::Off;
  config.tuning.reg_cache_bytes = mode == RegMode::Cold ? 0 : 64_MiB;
  config.tuning.rndv_chunk = chunk;
  return mpi::run_job(config, [&](mpi::Process& p) {
    std::vector<std::uint8_t> buf(msg);
    for (int i = 0; i < iters; ++i) {
      if (p.rank() == 0)
        p.world().send(std::span<const std::uint8_t>(buf), 1);
      else
        p.world().recv(std::span<std::uint8_t>(buf), 0);
    }
  });
}

/// `rounds` cyclic passes over `buffers` distinct `size`-byte buffers under
/// a `capacity`-byte pinned budget per rank.
mpi::JobResult working_set_run(int buffers, int rounds, Bytes size,
                               Bytes capacity, std::uint64_t seed) {
  mpi::JobConfig config;
  config.deployment = container::DeploymentSpec::native_hosts(2, 1);
  config.seed = seed;
  config.tuning.reg_model = true;
  config.tuning.reg_cache_bytes = capacity;
  return mpi::run_job(config, [&](mpi::Process& p) {
    std::vector<std::vector<std::uint8_t>> bufs(
        static_cast<std::size_t>(buffers), std::vector<std::uint8_t>(size));
    for (int r = 0; r < rounds; ++r)
      for (auto& buf : bufs) {
        if (p.rank() == 0)
          p.world().send(std::span<const std::uint8_t>(buf), 1);
        else
          p.world().recv(std::span<std::uint8_t>(buf), 0);
      }
  });
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int iters = static_cast<int>(
      opts.get_int("iters", 8, "sends per (size, mode) reuse point"));
  const std::uint64_t seed = declare_seed(opts);
  Figure fig(opts, "ext_registration_cache", "msg size x cache capacity x reuse pattern",
             seed);
  if (opts.finish("Extension: pin-down cache + pipelined rendezvous "
                  "(src/fabric/reg_cache)"))
    return 0;

  fig.banner("Extension", "memory-registration cache in the HCA path",
             "RDMA buffer registration dominates cold large-message "
             "latency; the LRU pin-down cache amortizes it across reuse "
             "and chunked rendezvous hides it behind the wire");

  // --- 1. reuse: off vs cold vs warm ----------------------------------------
  std::printf("%d rendezvous sends reusing one buffer (virtual us):\n", iters);
  Table reuse_table({"size", "model off", "cold (no cache)", "warm (64M)",
                     "warm/cold"});
  bool warm_beats_cold = true, off_is_floor = true;
  for (const Bytes msg : {64_KiB, 256_KiB, 1_MiB, 4_MiB}) {
    const Micros off = reuse_run(msg, iters, RegMode::Off, 512_KiB, seed).job_time;
    const Micros cold = reuse_run(msg, iters, RegMode::Cold, 512_KiB, seed).job_time;
    const Micros warm = reuse_run(msg, iters, RegMode::Warm, 512_KiB, seed).job_time;
    warm_beats_cold = warm_beats_cold && warm < cold;
    off_is_floor = off_is_floor && off <= warm;
    reuse_table.add_row({format_size(msg), Table::num(off, 2),
                         Table::num(cold, 2), Table::num(warm, 2),
                         Table::num(warm / cold, 3)});
    const std::string prefix = format_size(msg) + " ";
    fig.row(prefix + "off", msg, off, 0.0);
    fig.row(prefix + "cold", msg, cold, 0.0);
    fig.row(prefix + "warm", msg, warm, 0.0);
  }
  reuse_table.print(std::cout);
  fig.check(warm_beats_cold, "cache hits beat cold registration at every size");
  fig.check(off_is_floor, "--reg-cache=off (no registration charges) is the floor");

  // --- 2. pipelined vs serial registration ----------------------------------
  std::printf("\none cold 4 MiB rendezvous, chunked vs serial registration:\n");
  const Micros pipelined =
      reuse_run(4_MiB, 1, RegMode::Cold, 256_KiB, seed).job_time;
  const Micros serial = reuse_run(4_MiB, 1, RegMode::Cold, 1_GiB, seed).job_time;
  Table pipe_table({"chunk", "virtual us"});
  pipe_table.add_row({"256K (pipelined)", Table::num(pipelined, 2)});
  pipe_table.add_row({">= message (serial)", Table::num(serial, 2)});
  pipe_table.print(std::cout);
  fig.row("pipelined_256K", 4_MiB, pipelined, 0.0);
  fig.row("serial", 4_MiB, serial, 0.0);
  fig.check(pipelined < serial, "chunked registration pipeline beats serial reg+send");

  // --- 3. capacity x working set --------------------------------------------
  const int rounds = 4;
  std::printf("\n%d cyclic rounds over N 128 KiB buffers, 512 KiB budget:\n",
              rounds);
  Table cap_table({"buffers", "working set", "hits", "misses", "virtual us"});
  const auto fits = working_set_run(2, rounds, 128_KiB, 512_KiB, seed);
  const auto thrash = working_set_run(8, rounds, 128_KiB, 512_KiB, seed);
  cap_table.add_row({"2", "256K (fits)",
                     std::to_string(fits.reg_cache.hits),
                     std::to_string(fits.reg_cache.misses),
                     Table::num(fits.job_time, 2)});
  cap_table.add_row({"8", "1M (thrashes)",
                     std::to_string(thrash.reg_cache.hits),
                     std::to_string(thrash.reg_cache.misses),
                     Table::num(thrash.job_time, 2)});
  cap_table.print(std::cout);
  fig.row("fits", 128_KiB, fits.job_time,
          static_cast<double>(fits.reg_cache.hits));
  fig.row("thrash", 128_KiB, thrash.job_time,
          static_cast<double>(thrash.reg_cache.hits));
  // Both endpoints miss each buffer once, then hit every later round.
  const std::uint64_t expect_fits = 2u * (rounds - 1) * 2u;
  fig.check(fits.reg_cache.hits == expect_fits &&
                thrash.reg_cache.hits == 0,
            "fitting working set hits exactly 2*(R-1)*W, cyclic "
            "overflow thrashes to zero hits");
  fig.check(fits.job_time < thrash.job_time,
            "thrashing working set pays for it in virtual time");

  // --- determinism ----------------------------------------------------------
  const auto again = reuse_run(1_MiB, iters, RegMode::Warm, 512_KiB, seed);
  const Micros warm_1m = reuse_run(1_MiB, iters, RegMode::Warm, 512_KiB, seed).job_time;
  fig.check(again.job_time == warm_1m, "cache-enabled runs bit-identical across reruns");
  // The reg knobs must be inert while the model is off.
  mpi::JobConfig plain;
  plain.deployment = container::DeploymentSpec::native_hosts(2, 1);
  plain.seed = seed;
  mpi::JobConfig inert = plain;
  inert.tuning.reg_cache_bytes = 123;
  inert.tuning.rndv_chunk = 777;
  inert.tuning.reg_cost_scale = 9.0;
  const auto body = [](mpi::Process& p) {
    std::vector<std::uint8_t> buf(1_MiB);
    if (p.rank() == 0)
      p.world().send(std::span<const std::uint8_t>(buf), 1);
    else
      p.world().recv(std::span<std::uint8_t>(buf), 0);
  };
  fig.check(
      mpi::run_job(plain, body).job_time == mpi::run_job(inert, body).job_time,
      "--reg-cache=off reproduces the no-model numbers bit-identically");

  return fig.finish();
}
