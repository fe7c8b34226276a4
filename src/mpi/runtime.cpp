#include "mpi/runtime.hpp"

#include <malloc.h>

#include <algorithm>
#include <exception>
#include <limits>
#include <numeric>
#include <sstream>

#include "container/engine.hpp"
#include "mpi/fiber.hpp"
#include "mpi/locality.hpp"
#include "osl/machine.hpp"
#include "topo/hardware.hpp"

namespace cbmpi::mpi {

Process::Process(JobState& job, int rank, osl::SimProcess& proc,
                 std::shared_ptr<const CommGroup> world_group)
    : os_(&proc),
      engine_(job, rank, proc),
      world_(engine_, std::move(world_group), /*id=*/0) {}

void Process::compute(double ops) {
  const Micros before = os_->clock().now();
  os_->compute(ops);
  engine_.profile().add_compute(os_->clock().now() - before);
  if (engine_.job().trace)
    engine_.job().trace->record({sim::TraceKind::Compute, rank(), rank(),
                                 static_cast<Bytes>(ops), os_->clock().now(), ""});
  if (engine_.job().spans)
    engine_.job().spans->record({"compute", obs::SpanCat::Compute, rank(), -1, -1,
                                 static_cast<Bytes>(ops), before,
                                 os_->clock().now(), ""});
  engine_.check_crash();
}

Xoshiro256 Process::make_rng(std::uint64_t salt) const {
  return Xoshiro256(
      mix64(seed() ^ mix64(salt) ^
            (static_cast<std::uint64_t>(rank()) * std::uint64_t{0x9e3779b97f4a7c15})));
}

Micros Process::align_clocks() {
  auto& job = engine_.job();
  auto& phase = job.phase;
  std::unique_lock lock(phase.mutex);
  phase.running_max = std::max(phase.running_max, now());
  Micros aligned = phase.running_max;
  if (++phase.arrived == job.nranks) {
    phase.published_max = aligned;
    phase.running_max = 0.0;
    phase.arrived = 0;
    ++phase.generation;
    lock.unlock();
    for (auto& matcher : job.matchers) matcher->poke();
  } else {
    // No rank re-arrives before it has read this generation's max, so
    // published_max is stable once the generation has moved.
    const std::uint64_t mine = phase.generation;
    lock.unlock();
    engine_.block_until([&] {
      const std::scoped_lock guard(phase.mutex);
      aligned = phase.published_max;
      return phase.generation != mine;
    });
  }
  os_->clock().advance_to(aligned);
  return aligned;
}

void Process::sync_time() {
  align_clocks();
  engine_.check_crash();
}

int Process::start_round() const {
  const auto* store = engine_.job().checkpoint;
  return store && store->restore() ? store->restore()->round : 0;
}

std::span<const std::uint8_t> Process::restored_state() const {
  const auto* store = engine_.job().checkpoint;
  if (!store || !store->restore()) return {};
  return store->restore()->rank_state[static_cast<std::size_t>(
      engine_.world_rank())];
}

bool Process::fabric_probe() const { return engine_.job().net_probe; }

bool Process::checkpoint(int completed_rounds, std::span<const std::uint8_t> state) {
  auto* store = engine_.job().checkpoint;
  if (store == nullptr || !store->active()) return false;
  // Quiesce: align every rank to one virtual instant. All ranks then hold
  // the same `aligned`, so the store's verdict is uniform.
  const Micros aligned = align_clocks();
  // A rank whose crash time lies at or before the aligned instant dies here,
  // before saving — the snapshot for this round then never commits and the
  // previous one stays the restart point (all-or-nothing commit).
  engine_.check_crash();
  const auto verdict = store->decide(completed_rounds, aligned);
  if (verdict == CheckpointStore::Verdict::Skip) return false;
  // On a stop every in-flight send was drained through the matcher before
  // the barrier (the round's receives completed), so the pending depth
  // recorded with the image is the drain evidence.
  const bool stop = verdict == CheckpointStore::Verdict::Stop;
  store->save(rank(), completed_rounds, aligned,
              std::vector<std::uint8_t>(state.begin(), state.end()),
              stop ? engine_.job().matcher(rank()).pending() : 0);
  const Micros cost = CheckpointStore::snapshot_cost(state.size());
  os_->clock().advance(cost);
  engine_.profile().add_recovery(cost);
  if (engine_.job().spans)
    engine_.job().spans->record(
        {stop ? "migrate-quiesce" : "checkpoint",
         stop ? obs::SpanCat::Migrate : obs::SpanCat::Fault, rank(), -1, -1,
         static_cast<Bytes>(state.size()), aligned, os_->clock().now(),
         "round " + std::to_string(completed_rounds)});
  if (stop) throw QuiesceInterrupt{};
  return true;
}

namespace {

/// Fails fast with a clear message on misconfiguration instead of erroring
/// deep in the stack (or silently "fixing" the config).
void validate_config(const JobConfig& config) {
  const auto& spec = config.deployment;
  // An explicit placement bypasses the homogeneous spec shape; it is
  // structurally validated by container::validate_placement instead.
  const int hosts_needed =
      config.placement ? config.placement->num_hosts() : spec.num_hosts;
  if (!config.placement) {
    CBMPI_REQUIRE(spec.num_hosts > 0,
                  "deployment needs at least one host, got num_hosts = ",
                  spec.num_hosts);
    CBMPI_REQUIRE(spec.procs_per_host > 0,
                  "deployment needs at least one process per host, got "
                  "procs_per_host = ",
                  spec.procs_per_host);
    CBMPI_REQUIRE(spec.containers_per_host >= 0,
                  "containers_per_host must be >= 0 (0 = native), got ",
                  spec.containers_per_host);
    if (!spec.native())
      CBMPI_REQUIRE(
          spec.procs_per_host % spec.containers_per_host == 0,
          "procs_per_host (", spec.procs_per_host,
          ") must divide evenly among containers_per_host (",
          spec.containers_per_host, ")");
  }
  CBMPI_REQUIRE(config.cluster_hosts >= 0,
                "cluster_hosts must be >= 0 (0 = exactly what the deployment "
                "needs), got ",
                config.cluster_hosts);
  CBMPI_REQUIRE(config.cluster_hosts == 0 || config.cluster_hosts >= hosts_needed,
                "cluster_hosts (", config.cluster_hosts,
                ") is smaller than the deployment needs (", hosts_needed,
                " hosts)");

  const auto& tuning = config.tuning;
  CBMPI_REQUIRE(tuning.smp_eager_size > 0, "SMP_EAGER_SIZE must be positive");
  CBMPI_REQUIRE(tuning.smpi_length_queue > 0, "SMPI_LENGTH_QUEUE must be positive");
  CBMPI_REQUIRE(tuning.iba_eager_threshold > 0,
                "MV2_IBA_EAGER_THRESHOLD must be positive");
  CBMPI_REQUIRE(tuning.rndv_chunk > 0,
                "rndv_chunk must be positive, got ", tuning.rndv_chunk);
  CBMPI_REQUIRE(tuning.reg_cost_scale >= 0.0,
                "reg_cost_scale must be >= 0, got ", tuning.reg_cost_scale);
  CBMPI_REQUIRE(config.stop_at >= 0.0,
                "stop_at must be >= 0 (0 = never), got ", config.stop_at);
}

/// Heap policy, set once per process before the first job. Rank buffers come
/// from the few malloc arenas of the worker threads; a 32 MiB mmap threshold
/// (glibc's ceiling for its dynamic one) keeps large buffers there too, and
/// with trimming off the pages a job freed stay mapped for the next job
/// instead of going back to the kernel at every job end.
void keep_rank_memory_between_jobs() {
#if defined(__GLIBC__)
  static const bool once = [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, -1);
    return true;
  }();
  (void)once;
#endif
}

/// DeadlockError text. Runs while every live rank is parked, so the engines
/// of the ranks still inside their bodies hold still.
std::string describe_deadlock(const std::vector<const Adi3Engine*>& engines) {
  std::ostringstream os;
  const auto field = [&](int value, int wildcard) {
    if (value == wildcard)
      os << "any";
    else
      os << value;
  };
  os << "deadlock: every running rank is blocked and none can wake another";
  for (std::size_t r = 0; r < engines.size(); ++r) {
    if (engines[r] == nullptr) continue;
    os << "\n  rank " << r;
    const RequestState* recv = engines[r]->oldest_posted();
    if (recv == nullptr) {
      os << " is blocked with no posted receive";
      continue;
    }
    os << " waits in recv(source=";
    field(recv->src_world, kAnySource);
    os << ", tag=";
    field(recv->tag, kAnyTag);
    os << ", comm=" << recv->comm_id << ")";
  }
  return os.str();
}

container::ContainerSpec container_spec_for(const container::DeploymentSpec& spec,
                                            const container::JobPlacement& placement,
                                            topo::HostId host, int index) {
  container::ContainerSpec cont;
  const bool vm = spec.isolation == container::IsolationKind::VirtualMachine;
  cont.name = "host" + std::to_string(host) + (vm ? "-vm" : "-cont") +
              std::to_string(index);
  cont.privileged = spec.privileged;
  cont.share_host_ipc = spec.share_host_ipc;
  cont.share_host_pid = spec.share_host_pid;
  cont.virtual_machine = vm;
  cont.ivshmem = vm && spec.ivshmem;
  cont.cpuset = placement.cpuset_of(host, index);
  return cont;
}

/// Shared state of the fabric model's two deterministic passes. The record
/// pass builds the Fabric (it needs the placement) and fills `log`; between
/// passes the runtime settles the log into `congestion`; the apply pass
/// reads `congestion` only.
struct NetSession {
  net::FabricConfig config;
  std::unique_ptr<net::Fabric> fabric;
  net::FlowLog log;
  net::CongestionMap congestion;
  bool apply = false;
};

JobResult run_job_attempt(const JobConfig& config,
                          const std::function<void(Process&)>& body,
                          NetSession* net);

}  // namespace

JobResult run_job(const JobConfig& config, const std::function<void(Process&)>& body) {
  keep_rank_memory_between_jobs();
  if (!config.fabric.enabled()) return run_job_attempt(config, body, nullptr);
  // Two-pass congestion refinement: pass 1 records every inter-host HCA
  // payload while running on hop latencies and static VF caps (all pure
  // functions of virtual time); the flow set is then settled by the exact
  // max-min contention engine; pass 2 re-runs the body with each transfer's
  // bandwidth term stretched by its factor. Both passes are deterministic,
  // so congested runs rerun bit-identically. A job that fails (injected
  // crash, rank error) throws out of pass 1 unrefined — crashed attempts
  // never reach the apply pass.
  NetSession net;
  net.config = config.fabric;
  run_job_attempt(config, body, &net);
  net::FabricSettle settled = net.fabric->settle(net.log.take());
  net.congestion = std::move(settled.congestion);
  net.apply = true;
  JobResult result = run_job_attempt(config, body, &net);
  result.net = std::move(settled.report);
  return result;
}

namespace {

JobResult run_job_attempt(const JobConfig& config,
                          const std::function<void(Process&)>& body,
                          NetSession* net) {
  validate_config(config);
  const auto& spec = config.deployment;

  // --- hardware + OS ------------------------------------------------------
  const int hosts_needed =
      config.placement ? config.placement->num_hosts() : spec.num_hosts;
  const int hosts = std::max(config.cluster_hosts, hosts_needed);
  osl::Machine machine(topo::ClusterBuilder().hosts(hosts).build(), config.profile);
  container::Engine engine(machine);
  const auto placement = config.placement
                             ? *config.placement
                             : container::plan_deployment(machine.cluster(), spec);
  container::validate_placement(machine.cluster(), placement);
  const int nranks = placement.total_ranks();
  CBMPI_REQUIRE(nranks > 0, "job needs at least one rank");

  // --- fault injection ------------------------------------------------------
  // Decisions are pure functions of (seed, site), so the same seed injects
  // the same faults run after run. A default plan injects nothing and every
  // hot path skips its checks.
  faults::FaultInjector injector(config.faults, config.seed);
  faults::FaultLog fault_log(nranks);
  const bool inject = injector.enabled();

  // --- containers -----------------------------------------------------------
  // containers[h][c] is container c on host h (empty when native).
  const int place_hosts = placement.num_hosts();
  std::vector<std::vector<container::Container*>> containers(
      static_cast<std::size_t>(place_hosts));
  // ipc_injected[h][c]: the container was forced into a private IPC
  // namespace by fault injection even though the spec asked for --ipc=host.
  std::vector<std::vector<bool>> ipc_injected(
      static_cast<std::size_t>(place_hosts));
  bool any_containers = false;
  for (int h = 0; h < place_hosts; ++h) {
    auto& on_host = containers[static_cast<std::size_t>(h)];
    auto& injected_on_host = ipc_injected[static_cast<std::size_t>(h)];
    for (int c = 0; c < placement.containers_on(h); ++c) {
      auto cont_spec = container_spec_for(spec, placement, h, c);
      const bool force_private_ipc =
          inject && cont_spec.share_host_ipc && injector.private_ipc(h, c);
      if (force_private_ipc) cont_spec.share_host_ipc = false;
      injected_on_host.push_back(force_private_ipc);
      on_host.push_back(&engine.run(h, cont_spec));
      any_containers = true;
    }
  }

  // --- rank processes ---------------------------------------------------------
  std::vector<std::unique_ptr<osl::SimProcess>> processes;
  processes.reserve(static_cast<std::size_t>(nranks));
  std::vector<bool> hca_access(static_cast<std::size_t>(nranks), true);
  std::vector<bool> rank_ipc_injected(static_cast<std::size_t>(nranks), false);
  for (int r = 0; r < nranks; ++r) {
    const auto& slot = placement.slots[static_cast<std::size_t>(r)];
    if (slot.container_index < 0) {
      processes.push_back(engine.spawn_native(slot.host, slot.core));
      hca_access[static_cast<std::size_t>(r)] =
          machine.cluster().host(slot.host).shape().has_hca;
    } else {
      auto* cont = containers[static_cast<std::size_t>(slot.host)]
                             [static_cast<std::size_t>(slot.container_index)];
      processes.push_back(engine.spawn(*cont, slot.core_slot));
      hca_access[static_cast<std::size_t>(r)] = cont->can_access_hca();
      if (ipc_injected[static_cast<std::size_t>(slot.host)]
                      [static_cast<std::size_t>(slot.container_index)]) {
        rank_ipc_injected[static_cast<std::size_t>(r)] = true;
        fault_log.record_fault(
            r, {faults::FaultKind::PrivateIpc, r, -1, 0.0,
                "container " + cont->spec().name +
                    " deployed without --ipc=host (injected)"});
      }
    }
  }

  // --- job state -----------------------------------------------------------
  JobState job;
  job.profile = &machine.profile();
  job.tuning = config.tuning;
  {
    // Locality-shape key for the tuning table: the densest container packing
    // anywhere in the placement (1 = native / one container per host).
    int cph = 1;
    for (int h = 0; h < placement.num_hosts(); ++h)
      cph = std::max(cph, placement.containers_on(h));
    job.coll = coll::Engine(config.coll_tuning, cph);
  }
  job.shm = std::make_unique<fabric::ShmChannel>(machine.profile(), config.tuning);
  job.cma = std::make_unique<fabric::CmaChannel>(machine.profile());
  job.hca = std::make_unique<fabric::HcaChannel>(machine.profile(), config.tuning);
  job.nranks = nranks;
  job.seed = config.seed;

  // --- fabric model ---------------------------------------------------------
  if (net != nullptr) {
    // Every rank's cluster-wide host id: scheduler-placed jobs see the full
    // cluster's fat-tree through physical_hosts; standalone runs use local
    // ids directly.
    job.rank_phys_host.reserve(static_cast<std::size_t>(nranks));
    int max_phys = hosts - 1;
    for (int r = 0; r < nranks; ++r) {
      const int local = static_cast<int>(placement.slots[static_cast<std::size_t>(r)].host);
      const int phys = config.physical_hosts.empty()
                           ? local
                           : config.physical_hosts[static_cast<std::size_t>(local)];
      job.rank_phys_host.push_back(phys);
      max_phys = std::max(max_phys, phys);
    }
    if (net->fabric == nullptr) {
      // Provisioned VFs per physical host: one per container (native ranks
      // use the physical function, counted as one).
      std::vector<int> vfs(static_cast<std::size_t>(max_phys + 1), 0);
      for (int h = 0; h < place_hosts; ++h) {
        const int phys = config.physical_hosts.empty()
                             ? h
                             : config.physical_hosts[static_cast<std::size_t>(h)];
        vfs[static_cast<std::size_t>(phys)] =
            std::max(placement.containers_on(h), 1);
      }
      net::FabricConfig fabric_config = net->config;
      if (fabric_config.hosts <= 0) fabric_config.hosts = max_phys + 1;
      if (fabric_config.model == net::FabricModel::FatTree)
        CBMPI_REQUIRE(
            fabric_config.hosts <= fabric_config.arity * fabric_config.arity *
                                       fabric_config.arity / 4,
            "fat-tree of arity ", fabric_config.arity, " holds at most ",
            fabric_config.arity * fabric_config.arity * fabric_config.arity / 4,
            " hosts but the cluster has ", fabric_config.hosts,
            " — raise --fabric=fattree:<k> (need k >= ",
            net::Topology::min_arity_for(fabric_config.hosts), ")");
      net->fabric = std::make_unique<net::Fabric>(fabric_config,
                                                  machine.profile(), std::move(vfs));
    }
    job.fabric = net->fabric.get();
    job.net_probe = !net->apply;
    if (net->apply)
      job.congestion = &net->congestion;
    else
      job.net_log = &net->log;
    job.hca->attach_fabric(job.fabric, job.congestion);
  }

  // --- pin-down registration cache -----------------------------------------
  if (config.tuning.reg_model) {
    // Per-rank pinned budget. On an over-committed SR-IOV host every VF gets
    // only its share of the HCA's registration resources, so the budget
    // shrinks by the same vf_share factor that caps the VF's bandwidth.
    std::vector<Bytes> capacity(static_cast<std::size_t>(nranks),
                                config.tuning.reg_cache_bytes);
    if (job.fabric != nullptr)
      for (int r = 0; r < nranks; ++r)
        capacity[static_cast<std::size_t>(r)] = static_cast<Bytes>(
            static_cast<double>(config.tuning.reg_cache_bytes) *
            job.fabric->vf_share(
                job.rank_phys_host[static_cast<std::size_t>(r)]));
    job.hca->init_reg_cache(std::move(capacity));
    // A migration's resume segment starts with the stopped segment's cache
    // warm for every rank that did not move (the engine clears the moved
    // ranks' entry lists before handing them over).
    const int carried =
        std::min(nranks, static_cast<int>(config.reg_warm.size()));
    for (int r = 0; r < carried; ++r)
      job.hca->mutable_reg_cache()->warm(
          r, config.reg_warm[static_cast<std::size_t>(r)]);
  }
  if (inject) {
    job.faults = &injector;
    job.fault_log = &fault_log;
  }

  // --- crash schedule -------------------------------------------------------
  // Each rank's effective crash time is the earliest of its own, its
  // container's and its host's scheduled crash — all pure functions of
  // (seed, site), resolved once here so every rerun agrees.
  if (inject && config.faults.crashes_enabled()) {
    constexpr Micros kNever = std::numeric_limits<Micros>::infinity();
    job.crash_at.assign(static_cast<std::size_t>(nranks), kNever);
    job.crash_kind.assign(static_cast<std::size_t>(nranks),
                          faults::FaultKind::RankCrash);
    job.crash_host.assign(static_cast<std::size_t>(nranks), -1);
    for (int r = 0; r < nranks; ++r) {
      const auto& slot = placement.slots[static_cast<std::size_t>(r)];
      const int local_host = static_cast<int>(slot.host);
      const int physical_host =
          config.physical_hosts.empty()
              ? local_host
              : config.physical_hosts[static_cast<std::size_t>(local_host)];
      const auto idx = static_cast<std::size_t>(r);
      job.crash_host[idx] = physical_host;
      auto consider = [&](std::optional<Micros> at, faults::FaultKind kind) {
        if (at && *at < job.crash_at[idx]) {
          job.crash_at[idx] = *at;
          job.crash_kind[idx] = kind;
        }
      };
      // Widest blast radius wins ties: host beats container beats rank.
      consider(injector.rank_crash_at(r), faults::FaultKind::RankCrash);
      if (slot.container_index >= 0)
        consider(injector.container_crash_at(local_host, slot.container_index),
                 faults::FaultKind::ContainerCrash);
      consider(injector.host_crash_at(physical_host),
               faults::FaultKind::HostCrash);
    }
  }

  // --- coordinated checkpoints ---------------------------------------------
  // Only periodic checkpoints and restores make a "recovery" outcome; a
  // stop-only store reports nothing but the stop image.
  const bool recovery = config.checkpoint_interval > 0.0 || config.restore;
  std::unique_ptr<CheckpointStore> checkpoint_store;
  if (recovery || config.stop_at > 0.0) {
    CBMPI_REQUIRE(config.checkpoint_interval >= 0.0,
                  "checkpoint_interval must be >= 0, got ",
                  config.checkpoint_interval);
    checkpoint_store = std::make_unique<CheckpointStore>(
        nranks, config.checkpoint_interval, config.stop_at, config.restore);
    job.checkpoint = checkpoint_store.get();
  }

  sim::TraceRecorder recorder;
  if (config.record_trace) job.trace = &recorder;

  obs::MetricsRegistry metrics_registry;
  obs::SpanRecorder span_recorder;
  if (config.observe) {
    job.metrics = &metrics_registry;
    job.spans = &span_recorder;
  }

  const bool vm_mode =
      spec.isolation == container::IsolationKind::VirtualMachine && any_containers;
  std::vector<fabric::RankEndpoint> endpoints;
  endpoints.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    auto& proc = *processes[static_cast<std::size_t>(r)];
    endpoints.push_back(
        {&proc, proc.hostname(), hca_access[static_cast<std::size_t>(r)], vm_mode});
  }
  job.selector = std::make_unique<fabric::ChannelSelector>(
      config.policy, config.tuning, std::move(endpoints),
      inject ? &injector : nullptr, inject ? &fault_log : nullptr);
  job.selector->force_channel(config.forced_channel);

  job.matchers.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) job.matchers.push_back(std::make_unique<Matcher>());
  job.rank_profiles.resize(static_cast<std::size_t>(nranks));

  // Restarted jobs pay the snapshot-read cost up front: each rank is charged
  // for reading its saved state before the body runs (Fault/"restart" span).
  if (config.restore) {
    for (int r = 0; r < nranks; ++r) {
      const auto& state =
          config.restore->rank_state[static_cast<std::size_t>(r)];
      const Micros cost = CheckpointStore::snapshot_cost(state.size());
      auto& proc = *processes[static_cast<std::size_t>(r)];
      proc.clock().advance(cost);
      job.rank_profile(r).add_recovery(cost);
      if (job.spans)
        job.spans->record({"restart", obs::SpanCat::Fault, r, -1, -1,
                           static_cast<Bytes>(state.size()), proc.clock().now() - cost,
                           proc.clock().now(),
                           "resume round " + std::to_string(config.restore->round)});
    }
  }

  // --- container locality detection (init-time, before any communication) --
  // Running the announce/scan protocol for all ranks here is equivalent to
  // each rank doing it before the PMI init barrier, and keeps it
  // deterministic; each rank is charged the modelled detection cost.
  if (config.policy == fabric::LocalityPolicy::ContainerAware) {
    ContainerLocalityDetector detector("job" + std::to_string(config.seed), nranks);
    // A rank whose /dev/shm segment open fails (injected) cannot announce or
    // scan; it keeps list key -1 and degrades to hostname-based locality
    // instead of crashing.
    std::vector<int> list_keys(static_cast<std::size_t>(nranks), 0);
    for (int r = 0; r < nranks; ++r) {
      if (inject && injector.shm_segment_fails(r)) {
        list_keys[static_cast<std::size_t>(r)] = -1;
        fault_log.record_fault(
            r, {faults::FaultKind::ShmSegmentFail, r, -1, 0.0,
                "/dev/shm open of '" + detector.segment_name() +
                    "' failed (injected)"});
        continue;
      }
      detector.announce(*processes[static_cast<std::size_t>(r)], r);
    }

    for (int r = 0; r < nranks; ++r) {
      auto& proc = *processes[static_cast<std::size_t>(r)];
      auto& key = list_keys[static_cast<std::size_t>(r)];
      if (key >= 0) {
        key = detector.list_key(proc);
        proc.clock().advance(detector.detection_cost());
        continue;
      }
      proc.clock().advance(detector.detection_cost() + detector.fallback_cost());
      fault_log.add_retry(r, faults::FaultKind::ShmSegmentFail);
      fault_log.add_time_lost(r, detector.fallback_cost());
      job.rank_profile(r).add_recovery(detector.fallback_cost());
      fault_log.record_degradation(
          r, {faults::DegradationKind::HostnameLocalityFallback, r, -1});
      if (job.trace)
        job.trace->record({sim::TraceKind::Degrade, r, -1, 0, proc.clock().now(),
                           "hostname-locality-fallback"});
      if (job.spans)
        job.spans->record({"locality-fallback", obs::SpanCat::Fault, r, -1, -1, 0,
                           proc.clock().now() - detector.fallback_cost(),
                           proc.clock().now(), "hostname-locality-fallback"});
    }
    // Containers injected with a private IPC namespace detect only their own
    // ranks — the cross-container peers they lost go over the HCA loopback.
    for (int r = 0; r < nranks; ++r) {
      if (!rank_ipc_injected[static_cast<std::size_t>(r)]) continue;
      fault_log.record_degradation(
          r, {faults::DegradationKind::IsolatedIpcLocality, r, -1});
      if (job.trace)
        job.trace->record({sim::TraceKind::Degrade, r, -1, 0,
                           processes[static_cast<std::size_t>(r)]->clock().now(),
                           "isolated-ipc-locality"});
    }
    job.selector->set_detected_locality(std::move(list_keys));
  }

  // --- run rank fibers -----------------------------------------------------
  auto world_group = [&] {
    std::vector<int> ranks(static_cast<std::size_t>(nranks));
    std::iota(ranks.begin(), ranks.end(), 0);
    return CommGroup::make(std::move(ranks));
  }();

  struct RankFailure {
    std::exception_ptr error;
    Micros at = 0.0;
  };
  std::vector<RankFailure> failures(static_cast<std::size_t>(nranks));
  // Unblocks every rank that may be waiting on a failed one: each is parked
  // on its matcher in the blocking step, observes the abort and raises
  // AbortedError. The flag is set before the pokes, so a rank that reads
  // its matcher version after a poke also sees the flag.
  auto abort_job = [&] {
    job.aborted.store(true, std::memory_order_release);
    for (auto& matcher : job.matchers) matcher->poke();
  };
  // Each rank's engine while its body runs, for the deadlock report.
  std::vector<const Adi3Engine*> engines(static_cast<std::size_t>(nranks), nullptr);
  std::string deadlock;
  RankScheduler scheduler([&] {
    deadlock = describe_deadlock(engines);
    abort_job();
  });
  scheduler.run(nranks, [&](int r) {
    const auto idx = static_cast<std::size_t>(r);
    try {
      Process process(job, r, *processes[idx], world_group);
      engines[idx] = &process.engine();
      body(process);
    } catch (...) {
      failures[idx].error = std::current_exception();
      failures[idx].at = processes[idx]->clock().now();
      abort_job();  // the root cause is rethrown below
    }
    engines[idx] = nullptr;
  });
  if (!deadlock.empty()) throw DeadlockError(deadlock);

  // Rethrow the *root cause*: the earliest-failing rank whose exception is a
  // genuine failure — a crash (CrashedError) or any non-AbortedError — not a
  // bystander's "job aborted" echo.
  const RankFailure* root = nullptr;
  int root_rank = -1;
  bool any_crash = false;
  // A completed stop means every rank unwound with QuiesceInterrupt — a clean
  // end, not a failure; the bystander pass must not pick one up.
  const bool stopped = checkpoint_store && checkpoint_store->stopped();
  for (int pass = 0; pass < 2 && !root; ++pass) {
    if (pass == 1 && stopped) break;
    for (int r = 0; r < nranks; ++r) {
      const auto& failure = failures[static_cast<std::size_t>(r)];
      if (!failure.error) continue;
      if (pass == 0) {
        try {
          std::rethrow_exception(failure.error);
        } catch (const faults::CrashedError&) {
          any_crash = true;  // a genuine root cause, handled below
          continue;
        } catch (const AbortedError&) {
          continue;  // secondary casualty, keep looking
        } catch (const QuiesceInterrupt&) {
          continue;  // clean stop unwind, never a root cause
        } catch (...) {
        }
      }
      if (!root || failure.at < root->at) {
        root = &failure;
        root_rank = r;
      }
    }
    if (any_crash) break;  // crash handling below beats the bystander pass
  }
  if (any_crash) {
    // Attribute the crash from the deterministic *schedule*, not from which
    // thread happened to throw first: the earliest scheduled crash over all
    // ranks (ties to the lowest rank). Thread interleaving decides which
    // bystanders abort before noticing their own crash, but never this.
    faults::CrashInfo info;
    for (int r = 0; r < nranks; ++r) {
      const auto idx = static_cast<std::size_t>(r);
      if (job.crash_at[idx] < std::numeric_limits<Micros>::infinity() &&
          (info.rank < 0 || job.crash_at[idx] < info.at)) {
        info.rank = r;
        info.at = job.crash_at[idx];
        info.kind = job.crash_kind[idx];
        info.host = job.crash_host[idx];
      }
    }
    // A genuine non-crash failure that (deterministically) predates the
    // crash stays the root cause.
    if (!(root && root->at < info.at)) {
      std::shared_ptr<const CheckpointData> best;
      int committed = 0;
      if (checkpoint_store) {
        best = checkpoint_store->committed();
        const auto events = checkpoint_store->events();
        committed = static_cast<int>(events.size());
        if (!events.empty()) {
          info.last_checkpoint = events.back().at;
          info.checkpoint_round = events.back().round;
        } else if (config.restore) {
          info.checkpoint_round = config.restore->round;
        }
      }
      std::ostringstream os;
      os << "rank " << info.rank << " failed at t=" << info.at << " us: "
         << faults::to_string(info.kind) << " on host " << info.host
         << " (injected crash)";
      throw JobCrashedError(os.str(), info, std::move(best), committed);
    }
  }
  if (root) {
    std::ostringstream os;
    os << "rank " << root_rank << " failed at t=" << root->at << " us: ";
    try {
      std::rethrow_exception(root->error);
    } catch (const std::exception& e) {
      throw Error(os.str() + e.what());
    } catch (...) {
      throw Error(os.str() + "unknown exception");
    }
  }

  // --- results ---------------------------------------------------------------
  JobResult result;
  result.rank_times.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    const Micros t = processes[static_cast<std::size_t>(r)]->clock().now();
    result.rank_times.push_back(t);
    result.job_time = std::max(result.job_time, t);
    result.profile.merge_rank(job.rank_profiles[static_cast<std::size_t>(r)]);
  }
  result.hca_queue_pairs = job.hca->queue_pairs();
  result.reg_cache = job.hca->reg_cache_stats();
  if (stopped) {
    result.stop = checkpoint_store->take_stop();
    if (config.tuning.reg_model)
      result.stop->reg_entries = job.hca->reg_cache()->snapshot_entries();
  }
  if (config.record_trace) result.trace = recorder.events();
  result.fault_report = fault_log.finalize();
  if (recovery) {
    result.checkpoints = checkpoint_store->events();
    result.restored = config.restore != nullptr;
    if (config.restore) {
      result.restore_round = config.restore->round;
      result.restore_progress_us = config.restore->progress_us;
    }
  }
  if (config.observe) {
    if (recovery) {
      metrics_registry.counter("recovery.checkpoints")
          .add(static_cast<std::uint64_t>(result.checkpoints.size()));
      if (!result.checkpoints.empty())
        metrics_registry.gauge("recovery.last_checkpoint_us")
            .set(result.checkpoints.back().at);
      if (result.restored) metrics_registry.counter("recovery.restarts").add(1);
    }
    if (result.reg_cache.enabled) {
      // The cache's own stats: every rendezvous lookup, none for warm().
      metrics_registry.counter("hca.reg_cache.hits").add(result.reg_cache.hits);
      metrics_registry.counter("hca.reg_cache.misses").add(result.reg_cache.misses);
      metrics_registry.counter("hca.reg_cache.evictions")
          .add(result.reg_cache.evictions);
      metrics_registry.gauge("hca.reg_cache.pinned_bytes")
          .set(static_cast<double>(result.reg_cache.pinned_bytes));
      metrics_registry.gauge("hca.reg_cache.peak_pinned_bytes")
          .set(static_cast<double>(result.reg_cache.peak_pinned_bytes));
    }
    // Job-level summary gauges ride in the same registry the engines fed,
    // so one snapshot carries everything.
    metrics_registry.gauge("job.virtual_time_us").set(result.job_time);
    metrics_registry.gauge("job.comm_fraction").set(result.profile.comm_fraction());
    metrics_registry.counter("job.ranks").add(static_cast<std::uint64_t>(nranks));
    result.metrics = metrics_registry.snapshot();
    result.spans = span_recorder.take_sorted();
  }
  return result;
}

}  // namespace

}  // namespace cbmpi::mpi
