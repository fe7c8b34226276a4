// Scheduler & placement-engine tests: deterministic placement per policy,
// EASY backfill's no-starvation guarantee, locality-aware co-residence wins,
// end-to-end scheduling through the real runtime under injected faults, and
// the container engine's cpuset accounting the placers rely on.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "container/engine.hpp"
#include "osl/machine.hpp"
#include "sched/scheduler.hpp"
#include "topo/hardware.hpp"

namespace cbmpi {
namespace {

topo::HostShape small_shape() { return topo::HostShape{2, 4, true}; }

sched::JobSpec job_of(int ranks, const std::string& body = "pairs",
                      Micros submit = 0.0) {
  sched::JobSpec job;
  job.ranks = ranks;
  job.ranks_per_container = 2;
  job.body = body;
  job.params.rounds = 2;
  job.submit_time = submit;
  return job;
}

std::vector<std::pair<int, std::vector<int>>> flatten(
    const sched::Placement& placement) {
  std::vector<std::pair<int, std::vector<int>>> out;
  for (const auto& assignment : placement.hosts)
    out.emplace_back(assignment.host, assignment.ranks);
  return out;
}

// ---- placers ---------------------------------------------------------------

TEST(Placer, EveryPolicyIsDeterministicForAFixedSeed) {
  const topo::Cluster cluster(4, small_shape());
  for (const auto policy :
       {sched::PlacementPolicy::Packed, sched::PlacementPolicy::Spread,
        sched::PlacementPolicy::Random, sched::PlacementPolicy::LocalityAware}) {
    auto job = job_of(8, "shift");
    job.id = 3;  // Random derives its stream from (seed, job id)
    const auto a_placer = sched::make_placer(policy, 42);
    const auto b_placer = sched::make_placer(policy, 42);
    sched::ClusterState a_state(cluster), b_state(cluster);
    const auto a = a_placer->place(job, a_state);
    const auto b = b_placer->place(job, b_state);
    ASSERT_TRUE(a.has_value()) << sched::to_string(policy);
    ASSERT_TRUE(b.has_value()) << sched::to_string(policy);
    EXPECT_EQ(flatten(*a), flatten(*b)) << sched::to_string(policy);
    // Probing twice against the same state (as backfill does) must repeat too.
    const auto c = a_placer->place(job, a_state);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(flatten(*a), flatten(*c)) << sched::to_string(policy);
  }
}

TEST(Placer, PoliciesRefuseWhatCannotFit) {
  const topo::Cluster cluster(2, small_shape());  // 16 cores
  sched::ClusterState state(cluster);
  state.claim(0, 8, /*job_id=*/7);
  state.claim(1, 4, /*job_id=*/7);  // 4 cores left
  for (const auto policy :
       {sched::PlacementPolicy::Packed, sched::PlacementPolicy::Spread,
        sched::PlacementPolicy::Random, sched::PlacementPolicy::LocalityAware}) {
    const auto placer = sched::make_placer(policy, 1);
    EXPECT_FALSE(placer->place(job_of(5), state).has_value())
        << sched::to_string(policy);
    const auto fits = placer->place(job_of(4), state);
    ASSERT_TRUE(fits.has_value()) << sched::to_string(policy);
    int placed = 0;
    for (const auto& assignment : fits->hosts)
      placed += static_cast<int>(assignment.ranks.size());
    EXPECT_EQ(placed, 4);
  }
}

TEST(Placer, LocalityAwareKeepsMorePairsCoResidentThanSpread) {
  // 2 hosts x 8 cores, 8 ranks: spread levels 4+4 by alternating hosts,
  // locality can co-locate everything. "pairs" (i <-> i^1) is the adversarial
  // pattern: the alternation puts every communicating pair on opposite hosts.
  const topo::Cluster cluster(2, small_shape());
  const auto job = job_of(8, "pairs");
  const auto traffic = sched::effective_traffic(job);

  sched::ClusterState spread_state(cluster), aware_state(cluster);
  const auto spread =
      sched::make_placer(sched::PlacementPolicy::Spread, 42)->place(job, spread_state);
  const auto aware = sched::make_placer(sched::PlacementPolicy::LocalityAware, 42)
                         ->place(job, aware_state);
  ASSERT_TRUE(spread.has_value());
  ASSERT_TRUE(aware.has_value());

  const auto spread_stats = sched::placement_stats(job, *spread, traffic);
  const auto aware_stats = sched::placement_stats(job, *aware, traffic);
  EXPECT_GE(aware_stats.intra_host_pairs, spread_stats.intra_host_pairs);
  EXPECT_GE(aware_stats.local_traffic_share, spread_stats.local_traffic_share);
  // On this fixture the win is strict: all 8 ranks fit one host.
  EXPECT_EQ(aware_stats.hosts_used, 1);
  EXPECT_DOUBLE_EQ(aware_stats.local_traffic_share, 1.0);
  EXPECT_LT(spread_stats.local_traffic_share, 1.0);
}

// ---- scheduler -------------------------------------------------------------

/// Canned runner: virtual duration = the job's est_runtime, no simulation.
sched::Scheduler::Runner canned_runner() {
  return [](const mpi::JobConfig&, const sched::JobSpec& job) {
    mpi::JobResult result;
    result.job_time = job.est_runtime;
    return result;
  };
}

TEST(Scheduler, RunsQueueInFifoOrderAndAccountsCapacity) {
  sched::SchedulerConfig config;
  config.cluster_hosts = 1;
  config.host_shape = small_shape();  // 8 cores
  config.policy = sched::PlacementPolicy::Packed;
  sched::Scheduler scheduler(config);
  scheduler.set_runner(canned_runner());

  auto a = job_of(8);
  a.est_runtime = 100.0;
  auto b = job_of(8);
  b.est_runtime = 50.0;
  scheduler.submit(a);
  scheduler.submit(b);
  const auto& done = scheduler.run();
  ASSERT_EQ(done.size(), 2u);
  // Both need the whole host: b must wait for a.
  EXPECT_DOUBLE_EQ(done[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(done[0].end_time, 100.0);
  EXPECT_DOUBLE_EQ(done[1].start_time, 100.0);
  EXPECT_DOUBLE_EQ(done[1].end_time, 150.0);
  EXPECT_DOUBLE_EQ(scheduler.metrics().makespan, 150.0);
  EXPECT_DOUBLE_EQ(scheduler.metrics().max_queue_wait, 100.0);
}

TEST(Scheduler, BackfillNeverStarvesAFifoEarlierJob) {
  // a holds 6 of 8 cores; b (FIFO head after a) needs all 8; c is narrow and
  // short, fitting the 2 spare cores inside a's shadow. EASY: c may backfill,
  // but b still starts exactly when a ends — the backfill cannot push the
  // reservation back.
  for (const bool backfill : {true, false}) {
    sched::SchedulerConfig config;
    config.cluster_hosts = 1;
    config.host_shape = small_shape();
    config.policy = sched::PlacementPolicy::Packed;
    config.backfill = backfill;
    sched::Scheduler scheduler(config);
    scheduler.set_runner(canned_runner());

    auto a = job_of(6);
    a.est_runtime = 100.0;
    auto b = job_of(8, "pairs", /*submit=*/1.0);
    b.est_runtime = 100.0;
    auto c = job_of(2, "pairs", /*submit=*/2.0);
    c.est_runtime = 10.0;
    const int a_id = scheduler.submit(a);
    const int b_id = scheduler.submit(b);
    const int c_id = scheduler.submit(c);
    scheduler.run();

    const auto find = [&](int id) {
      for (const auto& job : scheduler.jobs())
        if (job.spec.id == id) return job;
      throw Error("job not scheduled");
    };
    EXPECT_DOUBLE_EQ(find(a_id).start_time, 0.0);
    // The guarantee under test: b starts at its reservation either way.
    EXPECT_DOUBLE_EQ(find(b_id).start_time, 100.0);
    if (backfill) {
      EXPECT_TRUE(find(c_id).backfilled);
      EXPECT_DOUBLE_EQ(find(c_id).start_time, 2.0);  // inside a's shadow
      EXPECT_EQ(scheduler.metrics().backfilled_jobs, 1);
    } else {
      EXPECT_FALSE(find(c_id).backfilled);
      EXPECT_DOUBLE_EQ(find(c_id).start_time, 200.0);  // waits behind b
    }
  }
}

TEST(Scheduler, SubmitRejectsImpossibleJobs) {
  sched::SchedulerConfig config;
  config.cluster_hosts = 1;
  config.host_shape = small_shape();
  sched::Scheduler scheduler(config);
  EXPECT_THROW(scheduler.submit(job_of(9)), Error);   // > 8 cores
  EXPECT_THROW(scheduler.submit(job_of(0)), Error);   // no ranks
  auto unknown = job_of(2);
  unknown.body = "no-such-body";
  EXPECT_THROW(scheduler.submit(unknown), Error);
}

TEST(Scheduler, SchedulesThroughRealRuntimeDeterministically) {
  const auto run_once = [](sched::PlacementPolicy policy) {
    sched::SchedulerConfig config;
    config.cluster_hosts = 2;
    config.host_shape = small_shape();
    config.policy = policy;
    config.seed = 7;
    sched::Scheduler scheduler(config);
    scheduler.submit(job_of(4, "ring"));
    scheduler.submit(job_of(6, "allreduce", /*submit=*/1.0));
    scheduler.submit(job_of(8, "shift", /*submit=*/2.0));
    scheduler.run();
    return scheduler.metrics();
  };
  for (const auto policy :
       {sched::PlacementPolicy::Random, sched::PlacementPolicy::LocalityAware}) {
    const auto a = run_once(policy);
    const auto b = run_once(policy);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan) << sched::to_string(policy);
    EXPECT_EQ(a.shm_ops, b.shm_ops) << sched::to_string(policy);
    EXPECT_EQ(a.cma_ops, b.cma_ops) << sched::to_string(policy);
    EXPECT_EQ(a.hca_ops, b.hca_ops) << sched::to_string(policy);
    EXPECT_GT(a.makespan, 0.0);
  }
}

TEST(Scheduler, CollectiveTableReachesEveryJob) {
  sched::SchedulerConfig config;
  config.cluster_hosts = 2;
  config.host_shape = small_shape();
  config.coll_tuning.add({.coll = coll::Coll::Bcast, .algo = coll::Algo::FlatTree});
  sched::Scheduler scheduler(config);
  scheduler.set_runner([](const mpi::JobConfig& job_config, const sched::JobSpec&) {
    return mpi::run_job(job_config, [](mpi::Process& p) {
      int value = p.rank() == 0 ? 5 : 0;
      p.world().bcast(std::span<int>(&value, 1));
      EXPECT_EQ(value, 5);
    });
  });
  for (const int ranks : {4, 6, 8}) scheduler.submit(job_of(ranks));
  const auto& done = scheduler.run();
  ASSERT_EQ(done.size(), 3u);
  for (const auto& job : done)
    EXPECT_EQ(job.result.profile.total.coll_algo(coll::Coll::Bcast,
                                                 coll::Algo::FlatTree),
              static_cast<std::uint64_t>(job.spec.ranks))
        << "job " << job.spec.id;
}

TEST(Scheduler, CompletesQueueUnderInjectedShmFaults) {
  // PR 1 integration: jobs whose /dev/shm segments fail degrade to hostname
  // locality (losing SHM for some pairs) but the queue still drains and
  // every job completes with a positive virtual runtime.
  sched::SchedulerConfig config;
  config.cluster_hosts = 2;
  config.host_shape = small_shape();
  config.policy = sched::PlacementPolicy::LocalityAware;
  sched::Scheduler scheduler(config);
  faults::FaultPlan faults;
  faults.shm_segment_fail_prob = 0.5;
  faults.cma_eperm_prob = 0.25;
  for (int i = 0; i < 4; ++i) {
    auto job = job_of(4 + 2 * (i % 2), i % 2 == 0 ? "pairs" : "ring",
                      /*submit=*/static_cast<Micros>(i));
    job.faults = faults;
    scheduler.submit(job);
  }
  const auto& done = scheduler.run();
  ASSERT_EQ(done.size(), 4u);
  bool any_fault = false;
  for (const auto& job : done) {
    EXPECT_GT(job.runtime(), 0.0);
    any_fault = any_fault || job.result.fault_report.any();
  }
  EXPECT_TRUE(any_fault);  // at 50% per rank, some rank must have degraded
  EXPECT_GT(scheduler.metrics().makespan, 0.0);
}

// ---- crash recovery: requeue, backoff, blacklist ---------------------------

faults::CrashInfo crash_info(int rank, int host, Micros at) {
  faults::CrashInfo info;
  info.kind = faults::FaultKind::RankCrash;
  info.rank = rank;
  info.host = host;
  info.at = at;
  return info;
}

TEST(SchedulerRecovery, CrashedJobsRequeueWithBackoffUntilSuccess) {
  sched::SchedulerConfig config;
  config.cluster_hosts = 1;
  config.host_shape = small_shape();
  config.policy = sched::PlacementPolicy::Packed;
  config.max_restarts = 3;
  config.requeue_backoff = 50.0;
  config.requeue_backoff_factor = 2.0;
  sched::Scheduler scheduler(config);
  // Crash attempts 0 and 1 at t=20 into the run; attempt 2 completes.
  scheduler.set_runner(
      [](const mpi::JobConfig&, const sched::JobSpec& job) -> mpi::JobResult {
        if (job.attempt < 2)
          throw faults::CrashedError("injected", crash_info(0, 0, 20.0));
        mpi::JobResult result;
        result.job_time = 100.0;
        return result;
      });
  scheduler.submit(job_of(4));
  const auto& done = scheduler.run();

  ASSERT_EQ(done.size(), 3u);  // one record per attempt
  EXPECT_EQ(done[0].attempt, 0);
  EXPECT_EQ(done[0].outcome, sched::JobOutcome::Crashed);
  EXPECT_EQ(done[0].crash.rank, 0);
  EXPECT_EQ(done[0].end_time, done[0].start_time + 20.0);
  EXPECT_EQ(done[1].attempt, 1);
  EXPECT_EQ(done[1].outcome, sched::JobOutcome::Crashed);
  EXPECT_EQ(done[2].attempt, 2);
  EXPECT_EQ(done[2].outcome, sched::JobOutcome::Completed);

  // Exponential backoff gates each resubmission: 50, then 100.
  EXPECT_EQ(done[1].spec.submit_time, done[0].end_time + 50.0);
  EXPECT_EQ(done[2].spec.submit_time, done[1].end_time + 100.0);
  EXPECT_GE(done[1].start_time, done[1].spec.submit_time);
  EXPECT_GE(done[2].start_time, done[2].spec.submit_time);

  const auto& metrics = scheduler.metrics();
  EXPECT_EQ(metrics.crashes, 2);
  EXPECT_EQ(metrics.requeues, 2);
  EXPECT_EQ(metrics.jobs_failed, 0);
  EXPECT_EQ(metrics.blacklisted_hosts, 0);
  // 4 ranks x 20 us thrown away twice (no checkpoints with a canned runner).
  EXPECT_DOUBLE_EQ(metrics.lost_work_us, 2 * 4 * 20.0);
  EXPECT_DOUBLE_EQ(metrics.completed_work_us, 4 * 100.0);
}

TEST(SchedulerRecovery, RetryBudgetExhaustionMarksJobFailed) {
  sched::SchedulerConfig config;
  config.cluster_hosts = 1;
  config.host_shape = small_shape();
  config.policy = sched::PlacementPolicy::Packed;
  config.max_restarts = 1;
  config.blacklist_threshold = 0;  // isolate the budget path
  sched::Scheduler scheduler(config);
  scheduler.set_runner(
      [](const mpi::JobConfig&, const sched::JobSpec&) -> mpi::JobResult {
        throw faults::CrashedError("injected", crash_info(1, 0, 10.0));
      });
  scheduler.submit(job_of(4));
  const auto& done = scheduler.run();

  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].outcome, sched::JobOutcome::Crashed);
  EXPECT_EQ(done[1].outcome, sched::JobOutcome::Failed);
  EXPECT_EQ(done[1].crash.rank, 1);  // crash attribution survives the giving-up
  const auto& metrics = scheduler.metrics();
  EXPECT_EQ(metrics.crashes, 2);
  EXPECT_EQ(metrics.requeues, 1);
  EXPECT_EQ(metrics.jobs_failed, 1);
}

TEST(SchedulerRecovery, BlacklistedHostReceivesNoFurtherPlacements) {
  sched::SchedulerConfig config;
  config.cluster_hosts = 2;  // 8 cores each
  config.host_shape = small_shape();
  config.policy = sched::PlacementPolicy::Packed;  // prefers host 0
  config.max_restarts = 3;
  config.requeue_backoff = 10.0;
  config.blacklist_threshold = 2;
  sched::Scheduler scheduler(config);
  // Any attempt placed on (physical) host 0 crashes there; placements that
  // avoid host 0 complete.
  scheduler.set_runner(
      [](const mpi::JobConfig& job_config, const sched::JobSpec&) -> mpi::JobResult {
        const auto& hosts = job_config.physical_hosts;
        if (std::find(hosts.begin(), hosts.end(), 0) != hosts.end())
          throw faults::CrashedError("injected", crash_info(0, 0, 15.0));
        mpi::JobResult result;
        result.job_time = 40.0;
        return result;
      });
  for (int i = 0; i < 3; ++i)
    scheduler.submit(job_of(4, "pairs", /*submit=*/static_cast<Micros>(i)));
  const auto& done = scheduler.run();

  ASSERT_EQ(scheduler.blacklist_events().size(), 1u);
  const auto& event = scheduler.blacklist_events()[0];
  EXPECT_EQ(event.host, 0);
  EXPECT_EQ(event.crashes, 2);
  EXPECT_EQ(scheduler.metrics().blacklisted_hosts, 1);

  // After the blacklist instant, host 0 never appears in a placement again,
  // and every job still completes (on host 1).
  int completed = 0;
  for (const auto& record : done) {
    if (record.start_time >= event.at) {
      for (const auto host : record.hosts) EXPECT_NE(host, 0);
    }
    if (record.outcome == sched::JobOutcome::Completed) ++completed;
  }
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(scheduler.metrics().jobs_failed, 0);
}

TEST(SchedulerRecovery, ShrunkClusterFailsUnplaceableJobsInsteadOfHanging) {
  sched::SchedulerConfig config;
  config.cluster_hosts = 2;
  config.host_shape = small_shape();
  config.policy = sched::PlacementPolicy::Packed;
  config.max_restarts = 5;
  config.requeue_backoff = 10.0;
  config.blacklist_threshold = 1;
  sched::Scheduler scheduler(config);
  scheduler.set_runner(
      [](const mpi::JobConfig& job_config, const sched::JobSpec&) -> mpi::JobResult {
        const auto& hosts = job_config.physical_hosts;
        if (std::find(hosts.begin(), hosts.end(), 0) != hosts.end())
          throw faults::CrashedError("injected", crash_info(0, 0, 5.0));
        mpi::JobResult result;
        result.job_time = 40.0;
        return result;
      });
  // 12 ranks need both hosts; once host 0 is blacklisted the job can never
  // be placed again and must be failed, not retried forever.
  scheduler.submit(job_of(12));
  const auto& done = scheduler.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].outcome, sched::JobOutcome::Crashed);
  EXPECT_EQ(done[1].outcome, sched::JobOutcome::Failed);
  EXPECT_EQ(scheduler.metrics().jobs_failed, 1);
}

sched::SchedulerConfig crashy_cluster_config() {
  sched::SchedulerConfig config;
  config.cluster_hosts = 2;
  config.host_shape = small_shape();
  config.policy = sched::PlacementPolicy::LocalityAware;
  config.seed = 13;
  config.max_restarts = 6;
  config.requeue_backoff = 25.0;
  config.blacklist_threshold = 0;  // keep both hosts in play
  config.checkpoint_interval = 5.0;
  return config;
}

std::vector<sched::JobSpec> crashy_job_mix() {
  std::vector<sched::JobSpec> jobs;
  for (int i = 0; i < 4; ++i) {
    auto job = job_of(4, i % 2 == 0 ? "ring" : "cg",
                      /*submit=*/static_cast<Micros>(i) * 2.0);
    job.params.rounds = 8;
    job.faults.rank_crash_prob = 0.35;
    job.faults.crash_horizon = 25.0;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(SchedulerRecovery, CrashRootCauseSurvivesScheduleModeEndToEnd) {
  // Satellite regression: the failing rank + virtual crash time computed by
  // the runtime must surface unchanged in the scheduler's per-attempt record
  // (the cbmpirun --schedule path renders exactly these fields).
  auto config = crashy_cluster_config();
  config.max_restarts = 0;  // no retries: the crash must be terminal
  sched::Scheduler scheduler(config);
  auto job = job_of(4, "ring");
  job.params.rounds = 16;
  job.faults.rank_crash_prob = 1.0;
  job.faults.crash_horizon = 15.0;
  scheduler.submit(job);
  const auto& done = scheduler.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].outcome, sched::JobOutcome::Failed);
  EXPECT_GE(done[0].crash.rank, 0);
  EXPECT_LT(done[0].crash.rank, 4);
  EXPECT_GT(done[0].crash.at, 0.0);
  EXPECT_TRUE(faults::is_crash(done[0].crash.kind));
  EXPECT_EQ(done[0].end_time, done[0].start_time + done[0].crash.at);
}

TEST(SchedulerRecovery, CrashHeavyScheduleIsDeterministicAcrossReruns) {
  struct Outcome {
    std::vector<sched::ScheduledJob> jobs;
    sched::ClusterMetrics metrics;
  };
  const auto run_once = [] {
    sched::Scheduler scheduler(crashy_cluster_config());
    for (auto& job : crashy_job_mix()) scheduler.submit(std::move(job));
    scheduler.run();
    return Outcome{scheduler.jobs(), scheduler.metrics()};
  };
  const auto a = run_once();
  const auto b = run_once();

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  int crashes_seen = 0;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& x = a.jobs[i];
    const auto& y = b.jobs[i];
    EXPECT_EQ(x.spec.id, y.spec.id);
    EXPECT_EQ(x.attempt, y.attempt);
    EXPECT_EQ(x.outcome, y.outcome);
    EXPECT_EQ(x.start_time, y.start_time);
    EXPECT_EQ(x.end_time, y.end_time);
    EXPECT_EQ(x.crash.rank, y.crash.rank);
    EXPECT_EQ(x.crash.at, y.crash.at);
    EXPECT_EQ(x.hosts, y.hosts);
    if (x.outcome == sched::JobOutcome::Crashed) ++crashes_seen;
  }
  EXPECT_GT(crashes_seen, 0) << "fixture never crashed; raise the crash rate";
  EXPECT_EQ(a.metrics.crashes, b.metrics.crashes);
  EXPECT_EQ(a.metrics.requeues, b.metrics.requeues);
  EXPECT_EQ(a.metrics.checkpoints, b.metrics.checkpoints);
  EXPECT_DOUBLE_EQ(a.metrics.makespan, b.metrics.makespan);
  EXPECT_DOUBLE_EQ(a.metrics.lost_work_us, b.metrics.lost_work_us);
  EXPECT_DOUBLE_EQ(a.metrics.completed_work_us, b.metrics.completed_work_us);
  // Most jobs eventually complete; a budget-exhausted Failed is allowed
  // (and must itself be deterministic, which the loop above checked).
  int completed = 0;
  for (const auto& record : a.jobs)
    if (record.outcome == sched::JobOutcome::Completed) ++completed;
  EXPECT_GE(completed, 2);
}

TEST(SchedulerRecovery, CheckpointedRetriesResumeInsteadOfRestarting) {
  // With checkpoints on, a retried attempt inherits committed progress:
  // restored_progress > 0 for some retry, and the cluster banks strictly
  // more completed work than the naive sum of finishing-attempt runtimes.
  sched::Scheduler scheduler(crashy_cluster_config());
  for (auto& job : crashy_job_mix()) scheduler.submit(std::move(job));
  const auto& done = scheduler.run();
  const auto& metrics = scheduler.metrics();
  ASSERT_GT(metrics.requeues, 0) << "fixture never requeued; raise the crash rate";
  EXPECT_GT(metrics.checkpoints, 0);
  EXPECT_GT(metrics.restarts_from_checkpoint, 0);
  bool any_restored = false;
  Micros finishing_runtimes = 0.0;  // rank-time of the completing attempts alone
  for (const auto& record : done) {
    if (record.restored_progress > 0.0) {
      any_restored = true;
      EXPECT_GT(record.attempt, 0);
    }
    if (record.outcome == sched::JobOutcome::Completed)
      finishing_runtimes += static_cast<double>(record.spec.ranks) * record.result.job_time;
  }
  EXPECT_TRUE(any_restored);
  EXPECT_GT(metrics.completed_work_us, finishing_runtimes);
}

// ---- container engine cpuset accounting ------------------------------------

container::ContainerSpec cont(const std::string& name, std::vector<int> cpuset) {
  container::ContainerSpec spec;
  spec.name = name;
  spec.cpuset = std::move(cpuset);
  return spec;
}

TEST(Engine, RejectsOverlappingCpusetsOnSameHost) {
  osl::Machine machine(topo::ClusterBuilder().hosts(2).build());
  container::Engine engine(machine);
  engine.run(0, cont("a", {0, 1}));
  EXPECT_THROW(engine.run(0, cont("b", {1, 2})), Error);  // overlaps core 1
  engine.run(0, cont("c", {2, 3}));                       // disjoint: fine
  engine.run(1, cont("d", {0, 1}));  // other host: no conflict
}

TEST(Engine, RejectsMalformedCpusets) {
  osl::Machine machine(topo::ClusterBuilder().hosts(1).build());
  container::Engine engine(machine);
  EXPECT_THROW(engine.run(0, cont("oob", {240})), Error);   // out of range
  EXPECT_THROW(engine.run(0, cont("neg", {-1})), Error);    // negative
  EXPECT_THROW(engine.run(0, cont("dup", {3, 3})), Error);  // duplicate core
}

TEST(Engine, UnpinnedContainersAreExemptFromConflicts) {
  // An empty cpuset means "no pinning" (like docker without --cpuset-cpus):
  // such containers share cores freely, also with pinned ones.
  osl::Machine machine(topo::ClusterBuilder().hosts(1).build());
  container::Engine engine(machine);
  engine.run(0, cont("u1", {}));
  engine.run(0, cont("u2", {}));
  engine.run(0, cont("pinned", {0, 1}));
}

TEST(Engine, FreeCoresReportsUnclaimedCores) {
  osl::Machine machine(
      topo::ClusterBuilder().hosts(1).sockets(2).cores_per_socket(4).build());
  container::Engine engine(machine);
  EXPECT_EQ(engine.free_cores(0), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  engine.run(0, cont("a", {0, 1}));
  engine.run(0, cont("b", {5}));
  EXPECT_EQ(engine.free_cores(0), (std::vector<int>{2, 3, 4, 6, 7}));
  engine.run(0, cont("unpinned", {}));  // claims nothing
  EXPECT_EQ(engine.free_cores(0), (std::vector<int>{2, 3, 4, 6, 7}));
}

}  // namespace
}  // namespace cbmpi
