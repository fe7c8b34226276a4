#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/topology.hpp"

namespace cbmpi::sched {

namespace {
constexpr Micros kNever = std::numeric_limits<Micros>::infinity();

/// Pairwise host hop distances under the cluster's fabric. TopologyAware
/// needs a matrix even when the contention model is off, so an unset config
/// assumes the smallest fat-tree holding the cluster — the shape a locality
/// placer should be optimizing for anyway.
std::vector<std::vector<int>> host_hop_matrix(const SchedulerConfig& config) {
  const int hosts = config.cluster_hosts;
  if (hosts <= 0) return {};  // ctor body rejects this config right after
  net::Topology topo;
  if (config.fabric.model == net::FabricModel::Flat) {
    topo = net::Topology::flat(hosts, 1.0, 0.0, 0.0);
  } else {
    int arity = net::Topology::min_arity_for(hosts);
    if (config.fabric.model == net::FabricModel::FatTree) {
      CBMPI_REQUIRE(config.fabric.arity >= arity, "fat-tree arity ",
                    config.fabric.arity, " holds fewer than ", hosts,
                    " hosts; need at least ", arity);
      arity = config.fabric.arity;
    }
    topo = net::Topology::fattree(arity, hosts, 1.0, 0.0, 0.0);
  }
  std::vector<std::vector<int>> hops(static_cast<std::size_t>(hosts),
                                     std::vector<int>(static_cast<std::size_t>(hosts), 0));
  for (int a = 0; a < hosts; ++a)
    for (int b = 0; b < hosts; ++b)
      hops[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          topo.hops(a, b);
  return hops;
}

std::unique_ptr<Placer> build_placer(const SchedulerConfig& config) {
  if (config.policy != PlacementPolicy::TopologyAware)
    return make_placer(config.policy, config.seed);
  const auto hops = host_hop_matrix(config);
  return make_placer(config.policy, config.seed, &hops);
}

}  // namespace

Scheduler::Scheduler(SchedulerConfig config)
    : config_(config),
      cluster_(config.cluster_hosts, config.host_shape),
      state_(cluster_),
      placer_(build_placer(config)),
      host_crashes_(static_cast<std::size_t>(config.cluster_hosts), 0) {
  CBMPI_REQUIRE(config.cluster_hosts > 0, "scheduler needs at least one host");
  CBMPI_REQUIRE(config.max_restarts >= 0, "max_restarts must be >= 0");
  CBMPI_REQUIRE(config.requeue_backoff >= 0.0, "requeue_backoff must be >= 0");
  CBMPI_REQUIRE(config.requeue_backoff_factor >= 1.0,
                "requeue_backoff_factor must be >= 1");
  CBMPI_REQUIRE(config.blacklist_threshold >= 0,
                "blacklist_threshold must be >= 0 (0 = never blacklist)");
  CBMPI_REQUIRE(config.checkpoint_interval >= 0.0,
                "checkpoint_interval must be >= 0 (0 = off)");
  CBMPI_REQUIRE(config.migrate_cost.cost_margin >= 0.0,
                "migrate cost_margin must be >= 0");
  CBMPI_REQUIRE(config.migrate_cost.precopy_rounds >= 0,
                "precopy_rounds must be >= 0");
  CBMPI_REQUIRE(config.migrate_cost.dirty_rate >= 0.0 &&
                    config.migrate_cost.dirty_rate <= 1.0,
                "dirty_rate must be in [0, 1]");
  runner_ = [](const mpi::JobConfig& job_config, const JobSpec& job) {
    return mpi::run_job(job_config, mpi::JobBodyRegistry::instance().make(
                                        job.body, job.params));
  };
  if (config_.migrate_policy != migrate::MigrationPolicy::Off) {
    rebalancer_ = std::make_unique<ElasticRebalancer>(config_.migrate_policy,
                                                      config_.migrate_cost);
  }
}

int Scheduler::submit(JobSpec spec) {
  CBMPI_REQUIRE(!ran_, "scheduler already ran; submit before run()");
  CBMPI_REQUIRE(spec.ranks > 0, "job needs at least one rank");
  CBMPI_REQUIRE(spec.ranks <= state_.total_cores(), "job '", spec.name,
                "' needs ", spec.ranks, " cores, the cluster has ",
                state_.total_cores());
  CBMPI_REQUIRE(spec.ranks_per_container >= 0,
                "ranks_per_container must be >= 0 (0 = native)");
  CBMPI_REQUIRE(spec.submit_time >= 0.0, "submit_time must be >= 0");
  CBMPI_REQUIRE(spec.est_runtime > 0.0, "est_runtime must be positive");
  if (!spec.traffic)
    mpi::JobBodyRegistry::instance().info(spec.body);  // fails fast if unknown
  spec.id = next_id_++;
  if (spec.name.empty()) spec.name = "job" + std::to_string(spec.id);
  pending_.push_back(std::move(spec));
  return pending_.back().id;
}

bool Scheduler::try_start(const JobSpec& job, Micros now, bool backfilled) {
  const auto placement = placer_->place(job, state_);
  if (!placement) return false;

  ScheduledJob record;
  record.spec = job;
  record.backfilled = backfilled;
  record.start_time = now;
  for (const auto& assignment : placement->hosts) {
    const auto claimed = state_.claim(
        assignment.host, static_cast<int>(assignment.ranks.size()), job.id);
    // Placers assign the lowest free cores per host, which is exactly what
    // claim() hands out; a mismatch means the placer raced its own state.
    CBMPI_REQUIRE(claimed == assignment.cores, "placer/state core mismatch on host ",
                  assignment.host, " for job ", job.id);
    record.hosts.push_back(assignment.host);
  }
  record.placement = placement_stats(job, *placement, effective_traffic(job));

  auto job_config = make_job_config(job, *placement, config_.host_shape);
  job_config.tuning = config_.tuning;
  job_config.coll_tuning = config_.coll_tuning;
  job_config.profile = config_.profile;
  job_config.observe = config_.observe;
  // Recovery plumbing: checkpoint cadence (spec override beats the cluster
  // default), the snapshot to resume from, and the job-local -> physical host
  // map that keeps one flaky host flaky for *every* job placed on it.
  job_config.checkpoint_interval = job.checkpoint_interval >= 0.0
                                       ? job.checkpoint_interval
                                       : config_.checkpoint_interval;
  job_config.restore = job.restore;
  job_config.physical_hosts.assign(record.hosts.begin(), record.hosts.end());
  // Every job sees the whole cluster's fabric, not just the hosts it spans:
  // hop counts and link shares depend on where the placement landed.
  job_config.fabric = config_.fabric;
  if (job_config.fabric.enabled() && job_config.fabric.hosts == 0)
    job_config.fabric.hosts = config_.cluster_hosts;
  if (job_config.faults.host_crash_prob > 0.0 &&
      job_config.faults.host_fault_seed == 0)
    job_config.faults.host_fault_seed = config_.seed;
  // Attempt 0 keeps the historical seed formula (schedules stay byte-stable
  // across this change); retries re-roll so the same crash cannot recur at
  // the identical virtual instant forever.
  std::uint64_t seed =
      mix64(config_.seed ^ mix64(static_cast<std::uint64_t>(job.id) * 2 + 1));
  if (job.attempt > 0)
    seed = mix64(seed ^ mix64(static_cast<std::uint64_t>(job.attempt)));
  job_config.seed = seed;

  // Elastic rebalancing: with a migration policy on, ask the rebalancer
  // whether this launch should move a container mid-run. Claims for the
  // destination cores go under the job's id, so the one release(job.id) at
  // completion frees source and destination alike.
  std::optional<migrate::MigrationPlan> migration;
  if (rebalancer_) {
    auto decision = rebalancer_->propose(job, *placement, job_config, state_,
                                         host_crashes_, config_.host_shape);
    if (decision.proposed) {
      ++metrics_.migrations_proposed;
      if (decision.accepted) {
        const auto claimed = state_.claim(
            decision.plan.move.dst_phys_host,
            static_cast<int>(decision.plan.move.dst_cores.size()), job.id);
        CBMPI_REQUIRE(claimed == decision.plan.move.dst_cores,
                      "rebalancer/state core mismatch on host ",
                      decision.plan.move.dst_phys_host, " for job ", job.id);
        migration = std::move(decision.plan);
      } else {
        ++metrics_.migrations_rejected;
      }
    }
  }

  record.attempt = job.attempt;
  record.restored_progress = job.restore ? job.restore->progress_us : 0.0;
  try {
    record.result =
        migration ? migrate::Engine::run(job_config,
                                         mpi::JobBodyRegistry::instance().make(
                                             job.body, job.params),
                                         *migration)
                  : runner_(job_config, job);
    record.end_time = now + record.result.job_time;
    const auto& mig = record.result.migration;
    metrics_.migrations_executed += mig.executed;
    metrics_.migration_pause_us += mig.total_pause_us;
    if (mig.executed > 0) {
      metrics_.migration_win_us += mig.predicted_win_us;
      metrics_.migration_cost_us += mig.predicted_cost_us;
    }
    metrics_.checkpoints += static_cast<int>(record.result.checkpoints.size());
    metrics_.completed_work_us +=
        static_cast<double>(job.ranks) *
        (record.restored_progress + record.result.job_time);
  } catch (const mpi::JobCrashedError& e) {
    handle_crash(record, job, now, e.info(), e.checkpoint(),
                 e.checkpoints_committed());
  } catch (const faults::CrashedError& e) {
    // Canned runners (test seams) may throw the base crash type directly;
    // carry the prior attempt's snapshot forward unchanged.
    handle_crash(record, job, now, e.info(), job.restore, 0);
  }

  running_.push_back({job.id, record.end_time, job.ranks});
  done_.push_back(std::move(record));
  return true;
}

void Scheduler::handle_crash(ScheduledJob& record, const JobSpec& job,
                             Micros now, const faults::CrashInfo& info,
                             std::shared_ptr<const mpi::CheckpointData> checkpoint,
                             int checkpoints_committed) {
  record.outcome = JobOutcome::Crashed;
  record.crash = info;
  record.end_time = now + info.at;  // cores were held until the crash
  ++metrics_.crashes;
  metrics_.checkpoints += checkpoints_committed;
  // Work thrown away: everything past the attempt's last committed snapshot
  // (the whole attempt when none committed), across all its ranks.
  metrics_.lost_work_us += static_cast<double>(job.ranks) *
                           std::max(0.0, info.at - info.last_checkpoint);

  if (info.host >= 0 && info.host < state_.num_hosts()) {
    auto& crash_count = host_crashes_[static_cast<std::size_t>(info.host)];
    ++crash_count;
    if (config_.blacklist_threshold > 0 &&
        crash_count >= config_.blacklist_threshold &&
        !state_.is_blacklisted(info.host)) {
      state_.blacklist(info.host);
      blacklist_events_.push_back({info.host, record.end_time, crash_count});
    }
  }

  if (job.attempt < config_.max_restarts) {
    JobSpec retry = job;
    retry.attempt = job.attempt + 1;
    if (checkpoint) retry.restore = std::move(checkpoint);
    const Micros backoff =
        config_.requeue_backoff *
        std::pow(config_.requeue_backoff_factor, static_cast<double>(job.attempt));
    retry.submit_time = record.end_time + backoff;
    ++metrics_.requeues;
    if (retry.restore) ++metrics_.restarts_from_checkpoint;
    // Keep pending_ sorted by the same (submit_time, priority) order run()
    // established; upper_bound preserves FIFO among equal keys.
    const auto pos = std::upper_bound(
        pending_.begin(), pending_.end(), retry,
        [](const JobSpec& a, const JobSpec& b) {
          if (a.submit_time != b.submit_time)
            return a.submit_time < b.submit_time;
          return a.priority > b.priority;
        });
    pending_.insert(pos, std::move(retry));
  } else {
    record.outcome = JobOutcome::Failed;  // crash details stay in record.crash
    ++metrics_.jobs_failed;
  }
}

void Scheduler::fail_unplaceable(JobSpec job, Micros now) {
  ScheduledJob record;
  record.attempt = job.attempt;
  record.restored_progress = job.restore ? job.restore->progress_us : 0.0;
  record.outcome = JobOutcome::Failed;
  record.start_time = now;
  record.end_time = now;
  record.spec = std::move(job);
  ++metrics_.jobs_failed;
  done_.push_back(std::move(record));
}

void Scheduler::reservation_for(int cores_needed, Micros now, Micros* shadow_time,
                                int* spare_cores) const {
  int free = state_.total_free();
  if (free >= cores_needed) {
    *shadow_time = now;
    *spare_cores = free - cores_needed;
    return;
  }
  auto ends = running_;
  std::sort(ends.begin(), ends.end(), [](const Running& a, const Running& b) {
    return a.end_time != b.end_time ? a.end_time < b.end_time
                                    : a.job_id < b.job_id;
  });
  for (const auto& run : ends) {
    free += run.cores;
    if (free >= cores_needed) {
      *shadow_time = run.end_time;
      *spare_cores = free - cores_needed;
      return;
    }
  }
  CBMPI_REQUIRE(false, "queue head needs ", cores_needed,
                " cores but the cluster cannot ever free them");
}

const std::vector<ScheduledJob>& Scheduler::run() {
  CBMPI_REQUIRE(!ran_, "scheduler can only run once");
  ran_ = true;
  if (pending_.empty()) return done_;

  // FIFO order: submit time, then priority (higher first), then submission
  // order (stable sort keeps it).
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const JobSpec& a, const JobSpec& b) {
                     if (a.submit_time != b.submit_time)
                       return a.submit_time < b.submit_time;
                     return a.priority > b.priority;
                   });

  const Micros first_submit = pending_.front().submit_time;
  Micros now = first_submit;

  while (!pending_.empty() || !running_.empty()) {
    // --- placement pass at `now` -----------------------------------------
    // try_start may requeue a crashed job into pending_, so every candidate
    // is *removed* from the queue before the attempt and re-inserted only if
    // placement failed (no references into pending_ survive a try_start).
    for (;;) {
      std::size_t head = 0;
      while (head < pending_.size() && pending_[head].submit_time > now) ++head;
      if (head == pending_.size()) break;

      // A blacklist may have shrunk the cluster under a queued job; fail it
      // now instead of blocking the queue forever.
      if (pending_[head].ranks > state_.placeable_cores()) {
        JobSpec job = std::move(pending_[head]);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(head));
        fail_unplaceable(std::move(job), now);
        continue;
      }

      {
        JobSpec job = std::move(pending_[head]);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(head));
        if (try_start(job, now, /*backfilled=*/false)) continue;
        pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(head),
                        std::move(job));
      }

      // Head is blocked: EASY backfill. Reserve the head's start (shadow
      // time); later jobs may jump the queue only if they are predicted to
      // finish before the reservation or fit in cores the head will not
      // need — so the head's start is never pushed back by a backfill
      // (given honest runtime estimates).
      if (config_.backfill) {
        Micros shadow = kNever;
        int spare = 0;
        reservation_for(pending_[head].ranks, now, &shadow, &spare);
        for (std::size_t i = head + 1; i < pending_.size();) {
          if (pending_[i].submit_time > now) {
            ++i;
            continue;
          }
          const bool ends_before_shadow =
              now + pending_[i].est_runtime <= shadow;
          const bool fits_spare = pending_[i].ranks <= spare;
          if (!ends_before_shadow && !fits_spare) {
            ++i;
            continue;
          }
          JobSpec candidate = std::move(pending_[i]);
          pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
          const int candidate_ranks = candidate.ranks;
          if (try_start(candidate, now, /*backfilled=*/true)) {
            if (!ends_before_shadow) spare -= candidate_ranks;
            continue;  // i now indexes the next (shifted) element
          }
          pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(i),
                          std::move(candidate));
          ++i;
        }
      }
      break;  // head stays blocked until capacity frees up
    }

    // --- advance virtual time to the next event ---------------------------
    Micros next = kNever;
    for (const auto& run : running_) next = std::min(next, run.end_time);
    for (const auto& job : pending_)
      if (job.submit_time > now) next = std::min(next, job.submit_time);
    if (pending_.empty() && running_.empty()) break;
    CBMPI_REQUIRE(next < kNever, "scheduler stuck: jobs queued but no event pending");
    now = std::max(now, next);

    // --- completions at or before `now` -----------------------------------
    for (std::size_t i = 0; i < running_.size();) {
      if (running_[i].end_time <= now) {
        state_.release(running_[i].job_id);
        running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  // Completion order, deterministic tie-break by id.
  std::sort(done_.begin(), done_.end(),
            [](const ScheduledJob& a, const ScheduledJob& b) {
              return a.end_time != b.end_time ? a.end_time < b.end_time
                                              : a.spec.id < b.spec.id;
            });

  // --- cluster metrics -----------------------------------------------------
  Micros last_end = first_submit;
  double busy_core_time = 0.0;
  for (const auto& job : done_) {
    last_end = std::max(last_end, job.end_time);
    busy_core_time += static_cast<double>(job.spec.ranks) * job.runtime();
    metrics_.mean_queue_wait += job.queue_wait();
    metrics_.max_queue_wait = std::max(metrics_.max_queue_wait, job.queue_wait());
    if (job.backfilled) ++metrics_.backfilled_jobs;
    metrics_.intra_host_pairs += job.placement.intra_host_pairs;
    metrics_.inter_host_pairs += job.placement.inter_host_pairs;
    metrics_.shm_ops += job.result.profile.total.channel_ops(fabric::ChannelKind::Shm);
    metrics_.cma_ops += job.result.profile.total.channel_ops(fabric::ChannelKind::Cma);
    metrics_.hca_ops += job.result.profile.total.channel_ops(fabric::ChannelKind::Hca);
  }
  metrics_.makespan = last_end - first_submit;
  if (!done_.empty())
    metrics_.mean_queue_wait /= static_cast<double>(done_.size());
  if (metrics_.makespan > 0.0)
    metrics_.utilization =
        busy_core_time /
        (static_cast<double>(state_.total_cores()) * metrics_.makespan);

  metrics_.blacklisted_hosts = state_.blacklisted_hosts();
  return done_;
}

void Scheduler::export_metrics(obs::MetricsRegistry& registry) const {
  registry.gauge("sched.makespan_us").set(metrics_.makespan);
  registry.gauge("sched.utilization").set(metrics_.utilization);
  registry.gauge("sched.mean_queue_wait_us").set(metrics_.mean_queue_wait);
  registry.gauge("sched.max_queue_wait_us").set(metrics_.max_queue_wait);
  registry.counter("sched.jobs").add(done_.size());
  registry.counter("sched.backfilled_jobs")
      .add(static_cast<std::uint64_t>(metrics_.backfilled_jobs));
  registry.counter("sched.channel.shm.ops").add(metrics_.shm_ops);
  registry.counter("sched.channel.cma.ops").add(metrics_.cma_ops);
  registry.counter("sched.channel.hca.ops").add(metrics_.hca_ops);
  registry.counter("sched.recovery.crashes")
      .add(static_cast<std::uint64_t>(metrics_.crashes));
  registry.counter("sched.recovery.requeues")
      .add(static_cast<std::uint64_t>(metrics_.requeues));
  registry.counter("sched.recovery.restarts_from_checkpoint")
      .add(static_cast<std::uint64_t>(metrics_.restarts_from_checkpoint));
  registry.counter("sched.recovery.checkpoints")
      .add(static_cast<std::uint64_t>(metrics_.checkpoints));
  registry.counter("sched.recovery.jobs_failed")
      .add(static_cast<std::uint64_t>(metrics_.jobs_failed));
  registry.counter("sched.recovery.blacklisted_hosts")
      .add(static_cast<std::uint64_t>(metrics_.blacklisted_hosts));
  registry.gauge("sched.recovery.lost_work_us").set(metrics_.lost_work_us);
  registry.gauge("sched.recovery.completed_work_us")
      .set(metrics_.completed_work_us);
  // Migration metrics only exist when the feature is on, so off-policy
  // metric dumps stay byte-identical to a scheduler without it.
  if (config_.migrate_policy != migrate::MigrationPolicy::Off) {
    registry.counter("sched.migration.proposed")
        .add(static_cast<std::uint64_t>(metrics_.migrations_proposed));
    registry.counter("sched.migration.rejected")
        .add(static_cast<std::uint64_t>(metrics_.migrations_rejected));
    registry.counter("sched.migration.executed")
        .add(static_cast<std::uint64_t>(metrics_.migrations_executed));
    registry.gauge("sched.migration.pause_us").set(metrics_.migration_pause_us);
    registry.gauge("sched.migration.predicted_win_us")
        .set(metrics_.migration_win_us);
    registry.gauge("sched.migration.predicted_cost_us")
        .set(metrics_.migration_cost_us);
  }
  auto& waits = registry.histogram("sched.queue_wait_us");
  auto& runtimes = registry.histogram("sched.job_runtime_us");
  for (const auto& job : done_) {
    waits.observe(static_cast<std::uint64_t>(job.queue_wait()));
    runtimes.observe(static_cast<std::uint64_t>(job.runtime()));
  }
}

}  // namespace cbmpi::sched
