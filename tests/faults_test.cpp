// Fault-injection subsystem tests: graceful degradation of locality detection
// and channel selection, deterministic HCA retry, escalation to abort, and
// the up-front config validation / rank-error context satellites.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/error.hpp"
#include "mpi/job_registry.hpp"
#include "mpi/runtime.hpp"
#include "mpi/window.hpp"

namespace cbmpi {
namespace {

using container::DeploymentSpec;
using fabric::ChannelKind;
using fabric::LocalityPolicy;
using faults::DegradationKind;
using faults::FaultKind;
using mpi::JobConfig;
using mpi::run_job;

/// Each rank exchanges `bytes` with its cross-pair peer (rank ^ 1).
auto pairwise_exchange(std::size_t bytes) {
  return [bytes](mpi::Process& p) {
    std::vector<std::uint8_t> buf(bytes);
    const int peer = p.rank() ^ 1;
    if (peer >= p.size()) return;
    if (p.rank() < peer) {
      p.world().send(std::span<const std::uint8_t>(buf), peer);
      p.world().recv(std::span<std::uint8_t>(buf), peer);
    } else {
      p.world().recv(std::span<std::uint8_t>(buf), peer);
      p.world().send(std::span<const std::uint8_t>(buf), peer);
    }
  };
}

bool has_fault(const faults::FaultReport& report, FaultKind kind) {
  return std::any_of(report.injected.begin(), report.injected.end(),
                     [kind](const auto& e) { return e.kind == kind; });
}

bool has_degradation(const faults::FaultReport& report, DegradationKind kind) {
  return std::any_of(report.degradations.begin(), report.degradations.end(),
                     [kind](const auto& e) { return e.kind == kind; });
}

TEST(Faults, DefaultPlanProducesEmptyReportAndIdenticalTimes) {
  JobConfig config;
  config.deployment = DeploymentSpec::containers(1, 2, 4);
  config.policy = LocalityPolicy::ContainerAware;

  const auto plain = run_job(config, pairwise_exchange(4096));
  EXPECT_FALSE(plain.fault_report.any());
  EXPECT_TRUE(plain.fault_report.injected.empty());
  EXPECT_TRUE(plain.fault_report.degradations.empty());
  EXPECT_EQ(plain.fault_report.total_retries(), 0u);
  EXPECT_EQ(plain.fault_report.time_lost, 0.0);

  // A default (all-zero) plan must not perturb virtual time at all.
  JobConfig with_default_plan = config;
  with_default_plan.faults = faults::FaultPlan{};
  const auto again = run_job(with_default_plan, pairwise_exchange(4096));
  EXPECT_EQ(plain.job_time, again.job_time);
  ASSERT_EQ(plain.rank_times.size(), again.rank_times.size());
  for (std::size_t r = 0; r < plain.rank_times.size(); ++r)
    EXPECT_EQ(plain.rank_times[r], again.rank_times[r]);
}

TEST(Faults, ShmSegmentFailureFallsBackToHostnameLocality) {
  JobConfig config;
  config.deployment = DeploymentSpec::containers(1, 2, 2);  // 2 containers x 1
  config.policy = LocalityPolicy::ContainerAware;
  config.faults.shm_segment_fail_prob = 1.0;

  const auto result = run_job(config, pairwise_exchange(1024));
  // Hostname fallback: container hostnames differ, so the cross-container
  // pair loses SHM and rides the HCA loopback.
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Shm), 0u);
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Cma), 0u);
  EXPECT_GE(result.profile.total.channel_ops(ChannelKind::Hca), 2u);
  EXPECT_TRUE(has_fault(result.fault_report, FaultKind::ShmSegmentFail));
  EXPECT_TRUE(has_degradation(result.fault_report,
                              DegradationKind::HostnameLocalityFallback));
  EXPECT_GE(result.fault_report.shm_retries, 2u);
  EXPECT_GT(result.fault_report.time_lost, 0.0);
  EXPECT_GT(result.profile.total.recovery_time(), 0.0);
}

TEST(Faults, PrivateIpcInjectionIsolatesContainers) {
  JobConfig config;
  // 2 containers x 2 procs: ranks 0,1 in cont0 and 2,3 in cont1.
  config.deployment = DeploymentSpec::containers(1, 2, 4);
  config.policy = LocalityPolicy::ContainerAware;
  config.faults.private_ipc_prob = 1.0;

  const auto result = run_job(config, [](mpi::Process& p) {
    std::vector<std::uint8_t> buf(1024);
    // Cross-container pair (1 <-> 2) and within-container pair (0 <-> 1).
    auto exchange = [&](int peer) {
      if (p.rank() < peer) {
        p.world().send(std::span<const std::uint8_t>(buf), peer);
      } else {
        p.world().recv(std::span<std::uint8_t>(buf), peer);
      }
    };
    if (p.rank() == 1) exchange(2);
    if (p.rank() == 2) exchange(1);
    if (p.rank() == 0) exchange(1);
    if (p.rank() == 1) { p.world().recv(std::span<std::uint8_t>(buf), 0); }
  });
  // The detector still finds within-container peers (same private list), but
  // cross-container traffic degrades to the HCA loopback.
  EXPECT_GE(result.profile.total.channel_ops(ChannelKind::Shm), 1u);
  EXPECT_GE(result.profile.total.channel_ops(ChannelKind::Hca), 1u);
  EXPECT_TRUE(has_fault(result.fault_report, FaultKind::PrivateIpc));
  EXPECT_TRUE(
      has_degradation(result.fault_report, DegradationKind::IsolatedIpcLocality));
}

TEST(Faults, CmaEpermFallsBackToShmRendezvous) {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 2);  // shared PID ns
  config.faults.cma_eperm_prob = 1.0;

  const auto result = run_job(config, pairwise_exchange(64 * 1024));
  // 64 KiB is CMA territory; with EPERM injected it must go SHM rendezvous.
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Cma), 0u);
  EXPECT_GE(result.profile.total.channel_ops(ChannelKind::Shm), 2u);
  EXPECT_EQ(result.profile.total.channel_ops(ChannelKind::Hca), 0u);
  EXPECT_TRUE(has_fault(result.fault_report, FaultKind::CmaEperm));
  EXPECT_TRUE(
      has_degradation(result.fault_report, DegradationKind::CmaFallbackToShm));

  // Without injection the same transfer uses CMA — proves the fault did it.
  JobConfig clean = config;
  clean.faults = faults::FaultPlan{};
  const auto baseline = run_job(clean, pairwise_exchange(64 * 1024));
  EXPECT_GE(baseline.profile.total.channel_ops(ChannelKind::Cma), 2u);
}

TEST(Faults, HcaRetryIsDeterministicAcrossRuns) {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(2, 1);
  config.faults.hca_transient_prob = 0.3;
  config.seed = 1234;

  // Enough HCA transfers that a 0.3 per-attempt fault rate is certain to
  // fire many times.
  auto body = [](mpi::Process& p) {
    std::vector<std::uint8_t> buf(32 * 1024);
    for (int i = 0; i < 20; ++i) {
      if (p.rank() == 0) {
        p.world().send(std::span<const std::uint8_t>(buf), 1);
        p.world().recv(std::span<std::uint8_t>(buf), 1);
      } else {
        p.world().recv(std::span<std::uint8_t>(buf), 0);
        p.world().send(std::span<const std::uint8_t>(buf), 0);
      }
    }
  };
  const auto a = run_job(config, body);
  const auto b = run_job(config, body);

  EXPECT_GT(a.fault_report.hca_retries, 0u);
  EXPECT_EQ(a.job_time, b.job_time);
  EXPECT_EQ(a.fault_report.hca_retries, b.fault_report.hca_retries);
  EXPECT_EQ(a.fault_report.time_lost, b.fault_report.time_lost);
  EXPECT_EQ(a.fault_report.injected.size(), b.fault_report.injected.size());
  for (std::size_t i = 0; i < a.fault_report.injected.size(); ++i) {
    EXPECT_EQ(a.fault_report.injected[i].kind, b.fault_report.injected[i].kind);
    EXPECT_EQ(a.fault_report.injected[i].at, b.fault_report.injected[i].at);
  }

  // A different seed draws a different fault pattern (with prob 0.3 over
  // dozens of attempts the patterns essentially never coincide exactly).
  JobConfig other = config;
  other.seed = 99;
  const auto c = run_job(other, body);
  EXPECT_NE(a.fault_report.injected.size() + a.fault_report.hca_retries,
            c.fault_report.injected.size() + c.fault_report.hca_retries);
}

TEST(Faults, HcaRetriesSlowTheJobDownAndAreTraced) {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(2, 1);
  config.record_trace = true;

  JobConfig faulty = config;
  faulty.faults.hca_transient_prob = 0.4;

  auto body = pairwise_exchange(32 * 1024);
  const auto clean = run_job(config, body);
  const auto slow = run_job(faulty, body);

  EXPECT_GT(slow.fault_report.hca_retries, 0u);
  EXPECT_GT(slow.fault_report.time_lost, 0.0);
  EXPECT_GT(slow.job_time, clean.job_time);

  const auto count_kind = [](const auto& trace, sim::TraceKind kind) {
    return std::count_if(trace.begin(), trace.end(),
                         [kind](const auto& e) { return e.kind == kind; });
  };
  EXPECT_EQ(count_kind(clean.trace, sim::TraceKind::Retry), 0);
  EXPECT_EQ(count_kind(clean.trace, sim::TraceKind::FaultInject), 0);
  EXPECT_GT(count_kind(slow.trace, sim::TraceKind::Retry), 0);
  EXPECT_GT(count_kind(slow.trace, sim::TraceKind::FaultInject), 0);
}

TEST(Faults, LinkFlapRetriesThroughDownWindows) {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(2, 1);
  config.faults.hca_link_flap_period = 200.0;
  config.faults.hca_link_flap_duration = 30.0;

  const auto result = run_job(config, pairwise_exchange(16 * 1024));
  // Attempts that land in a down window retry until the link is back.
  EXPECT_TRUE(has_fault(result.fault_report, FaultKind::HcaLinkFlap) ||
              result.fault_report.hca_retries == 0);
  EXPECT_GT(result.job_time, 0.0);
}

TEST(Faults, PersistentHcaFailureEscalatesToAbortWithRankId) {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(2, 1);
  config.faults.hca_transient_prob = 1.0;  // every attempt fails

  try {
    run_job(config, pairwise_exchange(4096));
    FAIL() << "expected escalation to abort";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("abandoned"), std::string::npos) << what;
    // The first attempt plus the six retries of the fixed budget.
    EXPECT_NE(what.find("7 attempts"), std::string::npos) << what;
  }
}

TEST(Faults, RankBodyErrorsCarryRankAndTimestamp) {
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 2);
  try {
    run_job(config, [](mpi::Process& p) {
      if (p.rank() == 1) throw std::runtime_error("boom");
      p.world().barrier();
    });
    FAIL() << "expected rank failure to propagate";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
    EXPECT_NE(what.find("failed at t="), std::string::npos) << what;
    // The bystander's "job aborted" echo must not mask the root cause.
    EXPECT_EQ(what.find("job aborted"), std::string::npos) << what;
  }
}

TEST(Faults, AbortWakesRanksBlockedInSendWaitAnyAndProbe) {
  // Ranks 0-2 park in three different blocking calls on rank 3, which never
  // receives and throws instead. The abort must wake all three bystanders
  // and run_job must surface rank 3's error, not a bystander's echo.
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 4);
  std::chrono::steady_clock::time_point thrown_at;  // read after the joins
  try {
    run_job(config, [&](mpi::Process& p) {
      std::vector<std::uint8_t> buf(256_KiB);  // rendezvous
      auto& world = p.world();
      switch (p.rank()) {
        case 0:
          world.send(std::span<const std::uint8_t>(buf), 3);
          break;
        case 1: {
          const std::vector<mpi::Request> reqs{
              world.isend(std::span<const std::uint8_t>(buf), 3)};
          world.wait_any(reqs);
          break;
        }
        case 2:
          world.probe(3);
          break;
        default:
          // Both rendezvous RTSs have arrived, so ranks 0 and 1 are in (or
          // about to enter) their waits; give all three time to park.
          world.probe(0);
          world.probe(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          thrown_at = std::chrono::steady_clock::now();
          throw std::runtime_error("boom");
      }
    });
    FAIL() << "expected rank 3's failure to propagate";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 3"), std::string::npos) << what;
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
  }
  // Waking is event-driven: the job ends right after the throw.
  EXPECT_LT(std::chrono::steady_clock::now() - thrown_at, std::chrono::seconds(2));
}

TEST(Faults, AbortedSenderWithdrawsItsRendezvousSend) {
  // Rank 0 posts a rendezvous send to rank 1, then aborts when rank 2 throws
  // and frees the send buffer as it unwinds. Rank 1 receives only after
  // that: it must abort too, not read the freed buffer.
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 3);
  struct SetOnExit {
    std::atomic<bool>* flag;
    ~SetOnExit() { flag->store(true); }
  };
  std::atomic<bool> sender_gone{false};
  std::atomic<bool> receiver_aborted{false};
  EXPECT_THROW(
      run_job(config,
              [&](mpi::Process& p) {
                auto& world = p.world();
                if (p.rank() == 0) {
                  const SetOnExit gone{&sender_gone};  // runs after `out` is freed
                  std::vector<std::uint8_t> out(256_KiB, 7);
                  auto request = world.isend(std::span<const std::uint8_t>(out), 1);
                  (void)world.recv_value<int>(2);
                  world.wait(request);
                } else if (p.rank() == 1) {
                  while (!sender_gone.load()) (void)world.iprobe(2);
                  std::vector<std::uint8_t> in(256_KiB);
                  try {
                    world.recv(std::span<std::uint8_t>(in), 0);
                  } catch (const AbortedError&) {
                    receiver_aborted = true;
                    throw;
                  }
                } else {
                  throw std::runtime_error("boom");
                }
              }),
      Error);
  EXPECT_TRUE(receiver_aborted.load());
}

TEST(Faults, AbortWakesRanksBlockedInWinLockAndSyncTime) {
  // Rank 0 holds an exclusive epoch on target 1 and throws; rank 2 waits for
  // that epoch and ranks 1 and 3 wait at the phase alignment rank 0 never
  // reaches. The abort must wake all three bystanders.
  JobConfig config;
  config.deployment = DeploymentSpec::native_hosts(1, 4);
  std::chrono::steady_clock::time_point thrown_at;  // read after the joins
  // A lost wake-up hangs run_job; fail fast instead of stalling the suite.
  auto job = std::async(std::launch::async, [&] {
    run_job(config, [&](mpi::Process& p) {
      std::vector<int> memory(4);
      mpi::Window<int> window(p.world(), std::span<int>(memory));
      switch (p.rank()) {
        case 0:
          window.lock(mpi::LockKind::Exclusive, 1);
          p.world().send_value<int>(1, 2);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          thrown_at = std::chrono::steady_clock::now();
          throw std::runtime_error("boom");
        case 2:
          (void)p.world().recv_value<int>(0);
          window.lock(mpi::LockKind::Exclusive, 1);
          break;
        default:
          p.sync_time();
      }
    });
  });
  if (job.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    std::fprintf(stderr, "run_job hung: a rank blocked in Win_lock or "
                         "sync_time was never woken by the abort\n");
    std::_Exit(1);
  }
  try {
    job.get();
    FAIL() << "expected rank 0's failure to propagate";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
    EXPECT_EQ(what.find("job aborted"), std::string::npos) << what;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - thrown_at, std::chrono::seconds(2));
}

TEST(Faults, ConfigValidationRejectsBadConfigs) {
  const auto noop = [](mpi::Process&) {};

  JobConfig small_cluster;
  small_cluster.deployment = DeploymentSpec::native_hosts(2, 1);
  small_cluster.cluster_hosts = 1;
  EXPECT_THROW(run_job(small_cluster, noop), Error);

  JobConfig zero_threshold;
  zero_threshold.deployment = DeploymentSpec::native_hosts(1, 1);
  zero_threshold.tuning.smp_eager_size = 0;
  EXPECT_THROW(run_job(zero_threshold, noop), Error);

  JobConfig uneven;
  uneven.deployment = DeploymentSpec::containers(1, 2, 3);  // 3 % 2 != 0
  EXPECT_THROW(run_job(uneven, noop), Error);
}

TEST(Faults, PlanValidationRejectsBadProbabilities) {
  faults::FaultPlan negative;
  negative.cma_eperm_prob = -0.1;
  EXPECT_THROW(faults::FaultInjector(negative, 1), Error);

  faults::FaultPlan too_big;
  too_big.hca_transient_prob = 1.5;
  EXPECT_THROW(faults::FaultInjector(too_big, 1), Error);

  faults::FaultPlan bad_flap;
  bad_flap.hca_link_flap_period = 10.0;
  bad_flap.hca_link_flap_duration = 20.0;  // down longer than the period
  EXPECT_THROW(faults::FaultInjector(bad_flap, 1), Error);
}

TEST(Faults, InjectorDecisionsArePureFunctionsOfSeedAndSite) {
  faults::FaultPlan plan;
  plan.shm_segment_fail_prob = 0.5;
  plan.cma_eperm_prob = 0.5;
  plan.hca_transient_prob = 0.5;
  const faults::FaultInjector x(plan, 7);
  const faults::FaultInjector y(plan, 7);
  for (int r = 0; r < 64; ++r)
    EXPECT_EQ(x.shm_segment_fails(r), y.shm_segment_fails(r));
  // Pair decisions are symmetric: EPERM hits the pair, not a direction.
  for (int a = 0; a < 16; ++a)
    for (int b = 0; b < 16; ++b)
      EXPECT_EQ(x.cma_permission_denied(a, b), x.cma_permission_denied(b, a));
  for (int attempt = 0; attempt < 8; ++attempt)
    EXPECT_EQ(x.hca_attempt(0, 1, 5, attempt, 100.0),
              y.hca_attempt(0, 1, 5, attempt, 100.0));

  // Backoff grows geometrically; jitter stays within [1, 1.25).
  const Micros d0 = x.backoff_delay(0, 1, 5, 0, 4.0, 2.0);
  const Micros d1 = x.backoff_delay(0, 1, 5, 1, 4.0, 2.0);
  EXPECT_GE(d0, 4.0);
  EXPECT_LT(d0, 5.0);
  EXPECT_GE(d1, 8.0);
  EXPECT_LT(d1, 10.0);
}

TEST(Faults, ReportSummaryCountsEveryKind) {
  JobConfig config;
  config.deployment = DeploymentSpec::containers(1, 2, 2);
  config.policy = LocalityPolicy::ContainerAware;
  config.faults.shm_segment_fail_prob = 1.0;

  const auto result = run_job(config, pairwise_exchange(1024));
  const std::string summary = result.fault_report.summary();
  EXPECT_NE(summary.find("shm-segment-fail"), std::string::npos) << summary;
  EXPECT_NE(summary.find("hostname-locality-fallback"), std::string::npos)
      << summary;
}

// ---- crash faults + coordinated checkpoint/restart -------------------------

/// Recoverable test body: per-rank accumulator evolved deterministically
/// each round, checkpointed as 8 bytes, final value published to `final_out`
/// so tests can compare resumed runs against uninterrupted ones.
mpi::JobBody accumulator_body(int rounds, std::vector<double>* final_out) {
  return [rounds, final_out](mpi::Process& p) {
    double acc = static_cast<double>(p.rank() + 1);
    const auto saved = p.restored_state();
    if (saved.size() == sizeof(double))
      std::memcpy(&acc, saved.data(), sizeof acc);
    for (int round = p.start_round(); round < rounds; ++round) {
      p.compute(50.0);
      double sum = 0.0;
      p.world().allreduce(std::span<const double>(&acc, 1),
                          std::span<double>(&sum, 1), mpi::ReduceOp::Sum);
      acc = acc * 0.5 + sum / p.size();
      std::array<std::uint8_t, sizeof(double)> state;
      std::memcpy(state.data(), &acc, sizeof acc);
      p.checkpoint(round + 1, std::span<const std::uint8_t>(state));
    }
    if (final_out) (*final_out)[static_cast<std::size_t>(p.rank())] = acc;
  };
}

JobConfig crash_config(double rank_crash_prob, Micros horizon) {
  JobConfig config;
  config.deployment = DeploymentSpec::containers(2, 2, 4);
  config.policy = LocalityPolicy::ContainerAware;
  config.faults.rank_crash_prob = rank_crash_prob;
  config.faults.crash_horizon = horizon;
  return config;
}

TEST(Faults, CrashFaultThrowsJobCrashedErrorWithRootCause) {
  auto config = crash_config(1.0, 100.0);  // every rank dies inside 100 us
  try {
    run_job(config, accumulator_body(64, nullptr));
    FAIL() << "expected a crash";
  } catch (const mpi::JobCrashedError& e) {
    EXPECT_TRUE(faults::is_crash(e.info().kind));
    EXPECT_GE(e.info().rank, 0);
    EXPECT_LT(e.info().rank, 8);
    EXPECT_GT(e.info().at, 0.0);
    EXPECT_GE(e.info().host, 0);
    EXPECT_EQ(e.checkpoint(), nullptr);  // checkpointing was off
    const std::string what = e.what();
    EXPECT_NE(what.find("rank "), std::string::npos) << what;
    EXPECT_NE(what.find("t="), std::string::npos) << what;
  }
  // The crash type slots into the existing abort hierarchy.
  EXPECT_THROW(run_job(config, accumulator_body(64, nullptr)), AbortedError);
}

TEST(Faults, CrashRootCauseIsDeterministicAcrossReruns) {
  auto config = crash_config(0.8, 150.0);
  config.seed = 99;
  faults::CrashInfo first{};
  std::string first_what;
  for (int run = 0; run < 3; ++run) {
    try {
      run_job(config, accumulator_body(64, nullptr));
      FAIL() << "expected a crash";
    } catch (const mpi::JobCrashedError& e) {
      if (run == 0) {
        first = e.info();
        first_what = e.what();
        continue;
      }
      EXPECT_EQ(e.info().rank, first.rank);
      EXPECT_EQ(e.info().at, first.at);
      EXPECT_EQ(e.info().kind, first.kind);
      EXPECT_EQ(e.info().host, first.host);
      EXPECT_EQ(std::string(e.what()), first_what);
    }
  }
}

TEST(Faults, CheckpointsCommitMonotonicallyAndCostNothingWhenOff) {
  auto config = crash_config(0.0, 100.0);
  std::vector<double> finals(8, 0.0);

  // interval 0: the body's checkpoint() calls are free no-ops.
  const auto off = run_job(config, accumulator_body(32, &finals));
  EXPECT_TRUE(off.checkpoints.empty());
  EXPECT_FALSE(off.restored);

  JobConfig on = config;
  on.checkpoint_interval = 10.0;  // the 32-round job runs ~65 virtual us
  const auto taken = run_job(on, accumulator_body(32, &finals));
  ASSERT_FALSE(taken.checkpoints.empty());
  for (std::size_t i = 1; i < taken.checkpoints.size(); ++i) {
    EXPECT_GT(taken.checkpoints[i].round, taken.checkpoints[i - 1].round);
    EXPECT_GT(taken.checkpoints[i].at, taken.checkpoints[i - 1].at);
  }
  for (const auto& event : taken.checkpoints)
    EXPECT_EQ(event.bytes, 8u * 8u);  // 8 ranks x 8-byte state
  // Snapshots cost virtual time, so the checkpointed run is slower.
  EXPECT_GT(taken.job_time, off.job_time);
}

TEST(Faults, RestoreResumesFromLastCheckpointAndMatchesUninterruptedRun) {
  constexpr int kRounds = 48;
  std::vector<double> uninterrupted(8, 0.0);
  auto clean = crash_config(0.0, 100.0);
  run_job(clean, accumulator_body(kRounds, &uninterrupted));

  // Crash mid-run with checkpoints on; resume from the carried snapshot.
  auto crashy = crash_config(1.0, 400.0);
  crashy.checkpoint_interval = 10.0;
  std::shared_ptr<const mpi::CheckpointData> snapshot;
  int restore_round = 0;
  try {
    run_job(crashy, accumulator_body(kRounds, nullptr));
    FAIL() << "expected a crash";
  } catch (const mpi::JobCrashedError& e) {
    ASSERT_NE(e.checkpoint(), nullptr) << "no checkpoint committed pre-crash";
    snapshot = e.checkpoint();
    restore_round = snapshot->round;
    EXPECT_GT(restore_round, 0);
    EXPECT_GT(e.checkpoints_committed(), 0);
    EXPECT_EQ(e.info().last_checkpoint, snapshot->at);
  }

  std::vector<double> resumed(8, 0.0);
  JobConfig resume = clean;  // no faults on the retry
  resume.restore = snapshot;
  const auto result = run_job(resume, accumulator_body(kRounds, &resumed));
  EXPECT_TRUE(result.restored);
  EXPECT_EQ(result.restore_round, restore_round);
  EXPECT_GT(result.restore_progress_us, 0.0);
  for (std::size_t r = 0; r < resumed.size(); ++r)
    EXPECT_DOUBLE_EQ(resumed[r], uninterrupted[r]) << "rank " << r;
}

TEST(Faults, CrashScheduleIsAPureFunctionOfSeedAndSite) {
  faults::FaultPlan plan;
  plan.rank_crash_prob = 0.5;
  plan.container_crash_prob = 0.5;
  plan.host_crash_prob = 0.5;
  const faults::FaultInjector x(plan, 11);
  const faults::FaultInjector y(plan, 11);
  for (int r = 0; r < 32; ++r) EXPECT_EQ(x.rank_crash_at(r), y.rank_crash_at(r));
  for (int h = 0; h < 8; ++h) {
    EXPECT_EQ(x.host_crash_at(h), y.host_crash_at(h));
    for (int c = 0; c < 4; ++c)
      EXPECT_EQ(x.container_crash_at(h, c), y.container_crash_at(h, c));
  }
  // Crash times land inside the horizon.
  for (int r = 0; r < 32; ++r)
    if (const auto at = x.rank_crash_at(r)) {
      EXPECT_GT(*at, 0.0);
      EXPECT_LE(*at, plan.crash_horizon);
    }
}

TEST(Faults, HostFaultSeedPinsHostCrashEligibilityAcrossJobSeeds) {
  faults::FaultPlan plan;
  plan.host_crash_prob = 0.4;
  plan.host_fault_seed = 1234;
  const faults::FaultInjector a(plan, 1);  // different job seeds
  const faults::FaultInjector b(plan, 2);
  int eligible = 0;
  for (int h = 0; h < 64; ++h) {
    const bool ha = a.host_crash_at(h).has_value();
    const bool hb = b.host_crash_at(h).has_value();
    EXPECT_EQ(ha, hb) << "host " << h;  // same flaky hosts for every job
    if (ha) ++eligible;
  }
  EXPECT_GT(eligible, 0);
  EXPECT_LT(eligible, 64);
  // But the crash *time* still re-rolls per job seed.
  bool any_time_differs = false;
  for (int h = 0; h < 64; ++h) {
    const auto ta = a.host_crash_at(h);
    const auto tb = b.host_crash_at(h);
    if (ta && tb && *ta != *tb) any_time_differs = true;
  }
  EXPECT_TRUE(any_time_differs);
}

TEST(Faults, PlanValidationRejectsBadCrashConfigs) {
  faults::FaultPlan negative;
  negative.rank_crash_prob = -0.2;
  EXPECT_THROW(faults::FaultInjector(negative, 1), Error);

  faults::FaultPlan bad_horizon;
  bad_horizon.host_crash_prob = 0.5;
  bad_horizon.crash_horizon = 0.0;
  EXPECT_THROW(faults::FaultInjector(bad_horizon, 1), Error);
}

}  // namespace
}  // namespace cbmpi
