// Live-migration tests: the checkpoint stop rule drains in-flight traffic at a
// round boundary, the engine's two-segment execution re-detects locality and
// re-picks channels on the destination, pin-down cache entries of moved
// ranks go cold (visible as extra registration misses), the rebalancer
// policies propose sensible moves under the cost gate, and the whole
// subsystem — scheduler included — reruns bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "migrate_fixture.hpp"
#include "obs/report.hpp"
#include "sched/rebalancer.hpp"

namespace cbmpi {
namespace {

std::string report_of(const mpi::JobResult& result) {
  obs::ReportContext ctx;
  ctx.app = "migrate_test";
  ctx.deployment = "2x?x6";
  ctx.policy = "aware";
  ctx.seed = 42;
  return obs::run_report_json(ctx, result);
}

/// A 6-rank ring whose one-word parcel folds in every hop: each rank's final
/// value depends on every round, so it shows that a resumed run continued
/// exactly where the stopped one left off. Restorable; checkpoints the word.
mpi::JobBody folding_ring(int rounds, std::vector<std::uint64_t>& finals) {
  return [rounds, &finals](mpi::Process& p) {
    std::uint64_t acc = static_cast<std::uint64_t>(p.rank()) + 1;
    const auto saved = p.restored_state();
    if (!saved.empty()) std::memcpy(&acc, saved.data(), sizeof acc);
    std::vector<std::uint8_t> out(16_KiB), in(16_KiB);
    const int next = (p.rank() + 1) % p.size();
    const int prev = (p.rank() + p.size() - 1) % p.size();
    for (int round = p.start_round(); round < rounds; ++round) {
      std::memcpy(out.data(), &acc, sizeof acc);
      auto req = p.world().isend(std::span<const std::uint8_t>(out), next, round);
      p.world().recv(std::span<std::uint8_t>(in), prev, round);
      p.world().wait(req);
      std::uint64_t got = 0;
      std::memcpy(&got, in.data(), sizeof got);
      acc = acc * 31 + got + static_cast<std::uint64_t>(round);
      p.world().barrier();
      p.checkpoint(round + 1,
                   std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(&acc), sizeof acc));
    }
    finals[static_cast<std::size_t>(p.rank())] = acc;
  };
}

// ---- engine ----------------------------------------------------------------

TEST(MigrateEngine, QuiesceDrainsAndExecutesTheMove) {
  const auto job = ring_job(6, 16_KiB);
  const auto result = run_migrated(job, config_for(job, two_host_placement()),
                                   defrag_plan());
  ASSERT_EQ(result.migration.executed, 1);
  ASSERT_EQ(result.migration.records.size(), 1u);
  const auto& rec = result.migration.records[0];
  EXPECT_GE(rec.quiesce_round, 1);
  EXPECT_GT(rec.resume_at, rec.quiesce_at);
  EXPECT_GT(rec.pause_us, 0.0);
  // The quiesce happens at a barrier-aligned round boundary, after every
  // in-flight rendezvous completed — a fully drained matcher on every rank.
  EXPECT_EQ(rec.drained_msgs, 0u);
  EXPECT_GT(rec.snapshot_bytes, 0u);
  // Both moved ranks cross the fabric: one Migrate transfer span each, plus
  // a quiesce span per rank.
  const auto migrate_spans = std::count_if(
      result.spans.begin(), result.spans.end(),
      [](const obs::Span& s) { return s.cat == obs::SpanCat::Migrate; });
  EXPECT_GE(migrate_spans, 2);
}

TEST(MigrateEngine, ChannelReselectionMakesMovedPairsLocal) {
  const auto job = ring_job(6, 16_KiB);
  const auto config = config_for(job, two_host_placement());
  const auto plain = mpi::run_job(
      config, mpi::JobBodyRegistry::instance().make(job.body, job.params));
  const auto migrated = run_migrated(job, config, defrag_plan());
  ASSERT_EQ(migrated.migration.executed, 1);
  const auto& rec = migrated.migration.records[0];
  // {4,5} x {0,1,2,3}: eight pairs become host-local, none go remote.
  EXPECT_EQ(rec.pairs_to_local, 8);
  EXPECT_EQ(rec.pairs_to_remote, 0);
  // Post-move rounds run entirely on-host, so the selector re-picks SHM/CMA
  // where the un-migrated run kept hammering the HCA.
  const auto hca_ops = [](const mpi::JobResult& r) {
    return r.profile.total.channel_ops(fabric::ChannelKind::Hca);
  };
  const auto local_ops = [](const mpi::JobResult& r) {
    return r.profile.total.channel_ops(fabric::ChannelKind::Shm) +
           r.profile.total.channel_ops(fabric::ChannelKind::Cma);
  };
  EXPECT_LT(hca_ops(migrated), hca_ops(plain));
  EXPECT_GT(local_ops(migrated), local_ops(plain));
}

TEST(MigrateEngine, MovedRanksReRegisterCold) {
  // Three hosts so remote traffic survives the move: {0,1} stays on host 0
  // while {4,5} folds from host 2 onto host 1. 64 KiB rendezvous payloads
  // keep the pin-down cache hot on every sender.
  auto job = ring_job(6, 64_KiB);
  sched::Placement placement;
  placement.hosts.push_back({0, {0, 1}, {0, 1}});
  placement.hosts.push_back({1, {2, 3}, {0, 1}});
  placement.hosts.push_back({2, {4, 5}, {0, 1}});
  auto config = config_for(job, placement);
  config.tuning.reg_model = true;
  config.tuning.reg_cache_bytes = 64_MiB;

  migrate::MigrationPlan plan;
  plan.policy = migrate::MigrationPolicy::Defrag;
  plan.move.src_host = 2;
  plan.move.container_index = 0;
  plan.move.dst_phys_host = 1;
  plan.move.ranks = {4, 5};
  plan.move.dst_cores = {2, 3};
  plan.cores_per_socket = small_shape().cores_per_socket;

  const auto plain = mpi::run_job(
      config, mpi::JobBodyRegistry::instance().make(job.body, job.params));
  const auto migrated = run_migrated(job, config, plan);
  ASSERT_EQ(migrated.migration.executed, 1);
  const auto& rec = migrated.migration.records[0];
  // The moved ranks' pin-down entries were invalidated at the move...
  EXPECT_GT(rec.invalidated_reg_entries, 0u);
  EXPECT_GT(rec.invalidated_reg_bytes, 0u);
  // ...so their first post-move remote sends re-register (cold misses the
  // un-migrated run never pays), while unmoved ranks arrive warm.
  ASSERT_TRUE(plain.reg_cache.enabled);
  ASSERT_TRUE(migrated.reg_cache.enabled);
  EXPECT_GT(migrated.reg_cache.misses, plain.reg_cache.misses);
}

TEST(MigrateEngine, RerunsAreBitIdentical) {
  const auto job = ring_job(6, 16_KiB);
  const auto config = config_for(job, two_host_placement());
  const auto a = run_migrated(job, config, defrag_plan());
  const auto b = run_migrated(job, config, defrag_plan());
  EXPECT_EQ(a.job_time, b.job_time);
  EXPECT_EQ(a.rank_times, b.rank_times);
  EXPECT_EQ(report_of(a), report_of(b));
}

TEST(MigrateEngine, EpochPastJobEndNeverMigrates) {
  const auto job = ring_job(4, 4_KiB);
  const auto config = config_for(job, two_host_placement());
  auto plan = defrag_plan();
  plan.epoch = 1e9;  // the job finishes long before the epoch
  const auto result = run_migrated(job, config, plan);
  EXPECT_EQ(result.migration.executed, 0);
  EXPECT_TRUE(result.migration.records.empty());
  EXPECT_GT(result.job_time, 0.0);
  // Still deterministic with a stop that never fires.
  const auto again = run_migrated(job, config, plan);
  EXPECT_EQ(result.job_time, again.job_time);
}

TEST(MigrateEngine, SurvivesAnHcaLinkFlap) {
  auto job = ring_job(8, 16_KiB);
  auto config = config_for(job, two_host_placement());
  config.faults.hca_link_flap_period = 40.0;
  config.faults.hca_link_flap_duration = 5.0;
  const auto a = run_migrated(job, config, defrag_plan());
  ASSERT_EQ(a.migration.executed, 1);
  const auto b = run_migrated(job, config, defrag_plan());
  EXPECT_EQ(report_of(a), report_of(b));
}

TEST(MigrateEngine, PeriodicCheckpointsAndTheMoveShareOneStore) {
  constexpr int kRounds = 12;
  const auto job = ring_job(kRounds, 16_KiB);
  auto config = config_for(job, two_host_placement());
  config.checkpoint_interval = 20.0;
  auto plan = defrag_plan();
  plan.epoch = 50.0;  // mid-job: periodic checkpoints on both sides of it
  std::vector<std::uint64_t> plain_finals(6), finals(6), again_finals(6);
  mpi::run_job(config, folding_ring(kRounds, plain_finals));
  const auto migrated =
      migrate::Engine::run(config, folding_ring(kRounds, finals), plan);
  ASSERT_EQ(migrated.migration.executed, 1);
  const auto& rec = migrated.migration.records[0];
  int before = 0, after = 0;
  for (const auto& event : migrated.checkpoints) {
    // The stop image is the move's, never a committed checkpoint.
    EXPECT_NE(event.round, rec.quiesce_round);
    if (event.at < rec.quiesce_at) ++before;
    // Segment 2's checkpoints sit on the stitched timeline, past the resume.
    if (event.at > rec.resume_at) ++after;
  }
  EXPECT_GE(before, 1);
  EXPECT_GE(after, 1);
  EXPECT_EQ(before + after, static_cast<int>(migrated.checkpoints.size()));
  // Resuming from the stop image continues the computation exactly.
  EXPECT_EQ(finals, plain_finals);
  const auto again =
      migrate::Engine::run(config, folding_ring(kRounds, again_finals), plan);
  EXPECT_EQ(again_finals, finals);
  EXPECT_EQ(again.job_time, migrated.job_time);
  EXPECT_EQ(report_of(again), report_of(migrated));
}

TEST(MigrateEngine, CostGateArithmetic) {
  const auto profile = topo::MachineProfile::chameleon_fdr();
  const fabric::TuningParams tuning;
  migrate::CostModel cost;
  // No traffic left to win: never worthwhile.
  const auto idle = migrate::Engine::estimate(profile, tuning, cost, 64_KiB,
                                              2, {0, 0});
  EXPECT_FALSE(idle.worthwhile);
  EXPECT_GT(idle.total_us, 0.0);
  // Plenty of cross-host messages left: the locality win dominates.
  const auto busy = migrate::Engine::estimate(
      profile, tuning, cost, 64_KiB, 2, {100000, 100000 * 16_KiB});
  EXPECT_TRUE(busy.worthwhile);
  EXPECT_GT(busy.predicted_win_us, busy.total_us);
  // More pre-copy rounds shrink the stop-and-copy residue (dirty-page decay).
  migrate::CostModel deep = cost;
  deep.precopy_rounds = cost.precopy_rounds + 3;
  const auto shallow = migrate::Engine::estimate(profile, tuning, cost,
                                                 1_MiB, 2, {0, 0});
  const auto deeper = migrate::Engine::estimate(profile, tuning, deep,
                                                1_MiB, 2, {0, 0});
  EXPECT_LT(deeper.stop_copy_bytes, shallow.stop_copy_bytes);
}

// ---- report ----------------------------------------------------------------

TEST(MigrateReport, V6SectionPresentExactlyWhenEngineRan) {
  const auto job = ring_job(6, 16_KiB);
  const auto config = config_for(job, two_host_placement());
  const auto migrated = run_migrated(job, config, defrag_plan());
  const auto with = report_of(migrated);
  EXPECT_EQ(obs::kRunReportVersion, 6);
  EXPECT_NE(with.find("\"migration\""), std::string::npos);
  EXPECT_NE(with.find("\"pairs_to_local\""), std::string::npos);
  const auto plain = mpi::run_job(
      config, mpi::JobBodyRegistry::instance().make(job.body, job.params));
  EXPECT_EQ(report_of(plain).find("\"migration\""), std::string::npos);
}

// ---- rebalancer policies ---------------------------------------------------

TEST(Rebalancer, EvacuateLeavesTheCrashyHost) {
  const topo::Cluster cluster(3, small_shape());
  sched::ClusterState state(cluster);
  auto job = ring_job(4, 4_KiB);
  job.ranks = 4;
  sched::Placement placement;
  placement.hosts.push_back({0, {0, 1}, {0, 1}});
  placement.hosts.push_back({1, {2, 3}, {0, 1}});
  state.claim(0, 2, job.id);
  state.claim(1, 2, job.id);
  const std::vector<int> crashes = {2, 0, 0};  // host 0 is flaky
  const sched::ElasticRebalancer rebalancer(migrate::MigrationPolicy::Evacuate,
                                            migrate::CostModel{});
  const auto decision =
      rebalancer.propose(job, placement, config_for(job, placement), state,
                         crashes, small_shape());
  ASSERT_TRUE(decision.proposed);
  EXPECT_EQ(decision.plan.move.src_host, 0);
  EXPECT_EQ(decision.plan.move.dst_phys_host, 1);  // crash-free job host
  // The reliability term (expected re-run avoided) makes evacuation pay.
  EXPECT_TRUE(decision.accepted);
}

TEST(Rebalancer, ColocateMovesTheTopTalkers) {
  const topo::Cluster cluster(2, small_shape());
  sched::ClusterState state(cluster);
  auto job = ring_job(4, 4_KiB);
  job.ranks = 4;
  // Explicit traffic hint: ranks 1 and 2 talk heavily across hosts.
  mpi::TrafficMatrix traffic(4, std::vector<double>(4, 0.0));
  traffic[1][2] = 100.0;
  job.traffic = traffic;
  sched::Placement placement;
  placement.hosts.push_back({0, {0, 1}, {0, 1}});
  placement.hosts.push_back({1, {2, 3}, {0, 1}});
  state.claim(0, 2, job.id);
  state.claim(1, 2, job.id);
  const sched::ElasticRebalancer rebalancer(migrate::MigrationPolicy::Colocate,
                                            migrate::CostModel{});
  const auto decision =
      rebalancer.propose(job, placement, config_for(job, placement), state,
                         {0, 0}, small_shape());
  ASSERT_TRUE(decision.proposed);
  // Rank 1's container {0,1} moves to rank 2's host.
  EXPECT_EQ(decision.plan.move.ranks, (std::vector<int>{0, 1}));
  EXPECT_EQ(decision.plan.move.dst_phys_host, 1);
}

TEST(Rebalancer, OffAndNativeJobsNeverPropose) {
  const topo::Cluster cluster(2, small_shape());
  sched::ClusterState state(cluster);
  auto job = ring_job(6, 4_KiB);
  const auto placement = two_host_placement();
  const auto config = config_for(job, placement);
  const sched::ElasticRebalancer off(migrate::MigrationPolicy::Off,
                                     migrate::CostModel{});
  EXPECT_FALSE(off.propose(job, placement, config, state, {0, 0},
                           small_shape()).proposed);
  const sched::ElasticRebalancer defrag(migrate::MigrationPolicy::Defrag,
                                        migrate::CostModel{});
  auto native = job;
  native.ranks_per_container = 0;  // native processes cannot migrate
  EXPECT_FALSE(defrag.propose(native, placement, config, state, {0, 0},
                              small_shape()).proposed);
}

// ---- stop rule -------------------------------------------------------------

TEST(CheckpointStore, StopFiresOncePerAttemptAtTheEpoch) {
  using Verdict = mpi::CheckpointStore::Verdict;
  // Periodic checkpoints due every 4 us, and a stop at 5 us.
  mpi::CheckpointStore store(/*nranks=*/2, /*interval=*/4.0, /*stop_at=*/5.0,
                             nullptr);
  EXPECT_EQ(store.decide(1, 3.0), Verdict::Skip);  // before the epoch
  EXPECT_EQ(store.decide(2, 6.0), Verdict::Stop);  // first boundary past it
  EXPECT_EQ(store.decide(2, 6.0), Verdict::Stop);  // memoized for the round
  store.save(0, 2, 6.0, {1, 2, 3}, 0);
  EXPECT_FALSE(store.stopped());
  store.save(1, 2, 6.0, {4}, 2);
  EXPECT_TRUE(store.stopped());
  // The stop image is never a committed checkpoint.
  EXPECT_TRUE(store.events().empty());
  EXPECT_EQ(store.committed(), nullptr);
  const auto image = store.take_stop();
  EXPECT_EQ(image.checkpoint.round, 2);
  EXPECT_EQ(image.checkpoint.at, 6.0);
  EXPECT_EQ(image.checkpoint.progress_us, 6.0);
  EXPECT_EQ(image.pending_msgs, 2u);
  ASSERT_EQ(image.checkpoint.rank_state.size(), 2u);
  EXPECT_EQ(image.checkpoint.rank_state[0], (std::vector<std::uint8_t>{1, 2, 3}));
  // Never stops twice, and the periodic rule is untouched: its first
  // checkpoint was due at 4 us and is taken at the next boundary (a stop
  // that rescheduled it to 6 + 4 us would skip this one).
  EXPECT_EQ(store.decide(3, 7.0), Verdict::Take);
  store.save(0, 3, 7.0, {5}, 9);
  store.save(1, 3, 7.0, {6}, 9);
  ASSERT_EQ(store.events().size(), 1u);
  EXPECT_EQ(store.events()[0].round, 3);
  ASSERT_NE(store.committed(), nullptr);
  EXPECT_EQ(store.committed()->at, 7.0);
  EXPECT_EQ(store.decide(4, 9.0), Verdict::Skip);   // next due at 11 us
  EXPECT_EQ(store.decide(5, 20.0), Verdict::Take);  // a take, not a stop
  // A new attempt (crash recovery re-runs the job) builds a new store, which
  // stops again at the same boundary.
  mpi::CheckpointStore retry(2, 4.0, 5.0, nullptr);
  EXPECT_EQ(retry.decide(2, 6.0), Verdict::Stop);
}

// ---- scheduler integration -------------------------------------------------

std::string schedule_report(sched::Scheduler& scheduler) {
  obs::ReportContext ctx;
  ctx.app = "migrate_test";
  ctx.deployment = "4 hosts";
  ctx.policy = "spread";
  ctx.seed = 42;
  ctx.cluster = &scheduler.metrics();
  return obs::schedule_report_json(ctx, scheduler);
}

TEST(SchedulerMigration, DefragWinsBeatTheCostOnAFragmentedMix) {
  sched::Scheduler scheduler(spread_cluster(migrate::MigrationPolicy::Defrag));
  for (auto& job : fragmented_mix()) scheduler.submit(std::move(job));
  scheduler.run();
  const auto& metrics = scheduler.metrics();
  EXPECT_GE(metrics.migrations_proposed, 1);
  ASSERT_GE(metrics.migrations_executed, 1);
  // The acceptance shape: the gate only lets wins through, so the summed
  // predicted locality win exceeds the summed predicted cost.
  EXPECT_GT(metrics.migration_win_us, metrics.migration_cost_us);
  EXPECT_GT(metrics.migration_pause_us, 0.0);
  // Every job still completes — migrated jobs release both core sets.
  for (const auto& job : scheduler.jobs())
    EXPECT_EQ(job.outcome, sched::JobOutcome::Completed);
}

TEST(SchedulerMigration, ScheduleRerunsBitIdentically) {
  const auto run_once = [] {
    sched::Scheduler scheduler(
        spread_cluster(migrate::MigrationPolicy::Defrag));
    for (auto& job : fragmented_mix()) scheduler.submit(std::move(job));
    scheduler.run();
    return schedule_report(scheduler);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SchedulerMigration, OffPolicyEmitsNoMigrationSection) {
  sched::Scheduler scheduler(spread_cluster(migrate::MigrationPolicy::Off));
  for (auto& job : fragmented_mix()) scheduler.submit(std::move(job));
  scheduler.run();
  EXPECT_EQ(scheduler.metrics().migrations_proposed, 0);
  EXPECT_EQ(schedule_report(scheduler).find("\"migration\""),
            std::string::npos);
}

}  // namespace
}  // namespace cbmpi
