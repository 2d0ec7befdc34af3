#include "src/core/system.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"
#include "src/base/log.h"

namespace nemesis {

System::System(SystemConfig config)
    : config_(config),
      obs_(&trace_),
      phys_(config.phys_frames, config.page_size),
      page_table_(config.va_pages),
      mmu_(&page_table_, config.page_size),
      disk_(config.disk),
      kernel_(sim_, mmu_, config.phys_frames, config.kernel_costs),
      translation_(mmu_),
      stretch_allocator_(translation_, config.stretch_arena_base, config.stretch_arena_limit,
                         config.page_size),
      frames_allocator_(sim_, kernel_.ramtab(), config.phys_frames, &trace_),
      usd_(sim_, disk_, &trace_),
      sfs_(usd_, config.swap_partition),
      auditor_(frames_allocator_, kernel_.ramtab(), mmu_, stretch_allocator_, translation_) {
  auditor_.RegisterUsd(&usd_);
  auditor_.RegisterScheduler(&usd_.scheduler());
  usd_.Start();

  NEM_ASSERT_MSG(config_.parallel_sim == 0, "parallel_sim is retired; the simulator is serial");

  // Observability: the hub is always wired (probes are null-checked and
  // near-free when disabled); the switch decides whether spans/histograms
  // are recorded. System-wide gauges wrap the existing hot counters so a
  // metrics snapshot carries them.
  obs_.set_enabled(config_.observe);
  kernel_.set_obs(&obs_);
  frames_allocator_.set_obs(&obs_);
  usd_.set_obs(&obs_);
  MetricsRegistry& reg = obs_.registry();
  reg.RegisterGauge("kernel.events_sent", [this] { return kernel_.events_sent(); });
  reg.RegisterGauge("kernel.faults_dispatched", [this] { return kernel_.faults_dispatched(); });
  reg.RegisterGauge("tlb.hits", [this] { return mmu_.tlb().hits(); });
  reg.RegisterGauge("tlb.misses", [this] { return mmu_.tlb().misses(); });
  reg.RegisterGauge("frames.revocations_transparent",
                    [this] { return frames_allocator_.revocations_transparent(); });
  reg.RegisterGauge("frames.revocations_intrusive",
                    [this] { return frames_allocator_.revocations_intrusive(); });
  reg.RegisterGauge("frames.domains_killed",
                    [this] { return frames_allocator_.domains_killed(); });
  reg.RegisterGauge("frames.free", [this] { return frames_allocator_.free_frames(); });
  reg.RegisterGauge("usd.transactions", [this] { return usd_.transactions(); });
  reg.RegisterGauge("usd.batches", [this] { return usd_.batches(); });
  reg.RegisterGauge("sim.events_executed", [this] { return sim_.events_executed(); });
  reg.RegisterGauge("trace.records", [this] { return uint64_t{trace_.size()}; });
  reg.RegisterGauge("trace.dropped", [this] { return trace_.dropped(); });

  if (config_.observe) {
    // Conformance-monitor feed: the USD's Atropos instance reports every
    // disk charge, period refresh, and backlog edge. The sched-id -> domain
    // map is maintained by AppDomain as swap clients come and go; unmapped
    // ids (fig9's FS client, raw test clients) are simply not monitored.
    AtroposScheduler& dsched = usd_.scheduler();
    dsched.set_charge_hook([this](SchedClientId id, SimTime end, SimDuration used, bool lax) {
      auto it = usd_sched_domains_.find(id);
      if (it != usd_sched_domains_.end()) {
        obs_.conformance().OnSlice(it->second, ConformanceMonitor::Resource::kDisk, end, used,
                                   lax);
      }
    });
    dsched.set_refresh_hook(
        [this](SchedClientId id, SimTime boundary, SimDuration allocation, bool queued) {
          auto it = usd_sched_domains_.find(id);
          if (it != usd_sched_domains_.end()) {
            obs_.conformance().OnPeriod(it->second, ConformanceMonitor::Resource::kDisk, boundary,
                                        allocation, queued);
          }
        });
    dsched.set_queue_hook([this](SchedClientId id, SimTime now, bool queued) {
      auto it = usd_sched_domains_.find(id);
      if (it != usd_sched_domains_.end()) {
        obs_.conformance().OnBacklog(it->second, ConformanceMonitor::Resource::kDisk, now,
                                     queued);
      }
    });
  }

  if (config_.audit) {
    if (config_.audit_stride == 0) {
      config_.audit_stride = 1;
    }
    frames_allocator_.set_access_checker(&access_checker_);
    kernel_.syscalls().set_access_checker(&access_checker_);
    // Each event callback is the unit that becomes an atomically-scheduled
    // task under a threaded design: close the access window after every one,
    // and audit the cross-layer state at batch (quiescent) boundaries.
    sim_.set_post_event_hook([this] { access_checker_.SyncPoint(); });
    sim_.set_post_batch_hook([this] {
      if (++audit_batches_ % config_.audit_stride == 0) {
        auditor_.AuditOrDie(InvariantAuditor::Depth::kFast);
      }
    });
  }

  // Wire the frames allocator's revocation protocol into the application
  // domains' MMEntries and the kernel teardown paths.
  frames_allocator_.set_revocation_notifier(
      [this](DomainId victim, uint64_t k, SimTime deadline) {
        AppDomain* app = FindApp(victim);
        if (app != nullptr && app->alive()) {
          app->mm_entry().NotifyRevocation(k, deadline);
        }
      });
  frames_allocator_.set_kill_handler([this](DomainId victim) {
    AppDomain* app = FindApp(victim);
    if (app != nullptr) {
      NEM_LOG_WARN("system", "killing domain %u (%s): missed revocation deadline", victim,
                   app->name().c_str());
      app->Kill();
    }
  });
  frames_allocator_.set_force_unmap(
      [this](Vpn vpn) { (void)kernel_.syscalls().ForceUnmap(vpn); });
}

System::~System() = default;

AppDomain* System::CreateApp(AppConfig config) {
  apps_.push_back(std::make_unique<AppDomain>(*this, std::move(config)));
  return apps_.back().get();
}

AppDomain* System::FindApp(DomainId id) {
  for (auto& app : apps_) {
    if (app->id() == id) {
      return app.get();
    }
  }
  return nullptr;
}

AppDomain::AppDomain(System& system, AppConfig config)
    : system_(system), config_(std::move(config)) {
  domain_ = system.kernel().CreateDomain(config_.name);
  pdom_ = system.translation().CreateProtectionDomain();

  auto admitted = system.frames().AdmitClient(domain_->id(), config_.contract);
  NEM_ASSERT_MSG(admitted.ok(), "frames admission failed (over-committed guarantees?)");

  auto stretch = system.stretches().New(domain_->id(), pdom_, config_.stretch_bytes);
  NEM_ASSERT_MSG(stretch.has_value(), "stretch allocation failed");
  stretch_ = *stretch;

  env_ = DriverEnv{&system.sim(), &system.kernel(), &system.frames(), &system.phys(),
                   domain_->id(), pdom_};
  env_.obs = &system.obs();
  system.obs().RegisterDomain(domain_->id(), config_.name);
  if (system.config().observe) {
    // Memory-conformance accounting periods ride the domain's disk QoS period
    // so the two verdict streams align; registration happens at the same sim
    // time as the Atropos admission, so period boundaries coincide with the
    // scheduler's deadline stream.
    system.obs().conformance().RegisterContract(
        domain_->id(), ConformanceMonitor::Resource::kMemory, config_.name, system.sim().Now(),
        config_.disk_qos.period, config_.contract.guaranteed);
  }

  mm_entry_ = std::make_unique<MmEntry>(env_, *domain_, config_.mm_workers);
  mm_entry_->Start();

  switch (config_.driver) {
    case AppConfig::DriverKind::kNailed:
      driver_ = std::make_unique<NailedStretchDriver>(env_);
      break;
    case AppConfig::DriverKind::kPhysical:
      driver_ = std::make_unique<PhysicalStretchDriver>(env_);
      break;
    case AppConfig::DriverKind::kPaged: {
      size_t usd_depth = config_.usd_depth;
      UsdBatchPolicy usd_batch = config_.usd_batch;
      if (config_.pipeline_depth > 0) {
        // The pipeline needs slots for the staged reads, the demand read and
        // the writeback chain at once, and lives off request coalescing.
        usd_depth = std::max<size_t>(
            usd_depth, config_.pipeline_depth + std::max<uint32_t>(config_.writeback_batch, 1));
        usd_batch.enabled = true;
      }
      auto swap = system.sfs().CreateSwapFile(config_.name + "-swap", config_.swap_bytes,
                                              config_.disk_qos, usd_depth, usd_batch);
      NEM_ASSERT_MSG(swap.has_value(), "swap file creation failed (QoS or space)");
      swap_file_ = *swap;
      if (system.config().observe) {
        system.obs().conformance().RegisterContract(
            domain_->id(), ConformanceMonitor::Resource::kDisk, config_.name, system.sim().Now(),
            config_.disk_qos.period, static_cast<uint64_t>(config_.disk_qos.slice));
        system.BindUsdSchedDomain(swap_file_.client->sched_id(), domain_->id());
      }
      PagedStretchDriver::Config driver_config;
      driver_config.max_frames = config_.driver_max_frames;
      driver_config.forgetful = config_.forgetful;
      driver_config.replacement = config_.replacement;
      driver_config.pipeline_depth = config_.pipeline_depth;
      driver_config.min_cluster = config_.readahead_min_cluster;
      driver_config.max_cluster = config_.readahead_max_cluster;
      driver_config.writeback_batch = config_.writeback_batch;
      driver_ = std::make_unique<PagedStretchDriver>(env_, swap_file_.client, swap_file_.extent,
                                                     driver_config);
      break;
    }
  }
  mm_entry_->BindDriver(stretch_, driver_.get());

  vmem_ = std::make_unique<VMem>(env_, *domain_, *mm_entry_, system.mmu(), config_.costs);

  // Per-app counters become named gauges so any bench's metrics snapshot can
  // report them without each bench knowing every driver's accessor set.
  MetricsRegistry& reg = system.obs().registry();
  const std::string prefix = "app." + config_.name + ".";
  MmEntry* mm = mm_entry_.get();
  reg.RegisterGauge(prefix + "faults_fast_path", [mm] { return mm->faults_fast_path(); });
  reg.RegisterGauge(prefix + "faults_worker", [mm] { return mm->faults_worker(); });
  reg.RegisterGauge(prefix + "faults_failed", [mm] { return mm->faults_failed(); });
  reg.RegisterGauge(prefix + "revocations_handled",
                    [mm] { return mm->revocations_handled(); });
  VMem* vm = vmem_.get();
  reg.RegisterGauge(prefix + "faults_taken", [vm] { return vm->faults_taken(); });
  if (PagedStretchDriver* paged = paged_driver(); paged != nullptr) {
    reg.RegisterGauge(prefix + "pageins", [paged] { return paged->pageins(); });
    reg.RegisterGauge(prefix + "pageouts", [paged] { return paged->pageouts(); });
    reg.RegisterGauge(prefix + "evictions", [paged] { return paged->evictions(); });
    reg.RegisterGauge(prefix + "cleaned_evictions",
                      [paged] { return paged->cleaned_evictions(); });
    reg.RegisterGauge(prefix + "prefetch_issued", [paged] { return paged->prefetch_issued(); });
    reg.RegisterGauge(prefix + "prefetch_hits", [paged] { return paged->prefetch_hits(); });
    reg.RegisterGauge(prefix + "prefetch_wasted", [paged] { return paged->prefetch_wasted(); });
    reg.RegisterGauge(prefix + "writeback_batched",
                      [paged] { return paged->writeback_batched(); });
    reg.RegisterGauge(prefix + "staging_highwater",
                      [paged] { return paged->staging_highwater(); });
  }
}

AppDomain::~AppDomain() {
  for (auto& t : workloads_) {
    t.Kill();
  }
}

PagedStretchDriver* AppDomain::paged_driver() {
  return config_.driver == AppConfig::DriverKind::kPaged
             ? static_cast<PagedStretchDriver*>(driver_.get())
             : nullptr;
}

TaskHandle AppDomain::SpawnWorkload(Task task, const std::string& label) {
  TaskHandle handle = system_.sim().Spawn(std::move(task), config_.name + "/" + label);
  workloads_.push_back(handle);
  return handle;
}

void AppDomain::Shutdown() {
  Kill();
  // Force-unmap any live mappings so the frames can be reclaimed, then hand
  // everything back to the system-domain allocators. Sanctioned cross-domain
  // teardown: the checker must not attribute these touches to the dead domain.
  CrossDomainSection cross(&system_.access_checker());
  if (FrameStack* stack = system_.frames().StackOf(domain_->id()); stack != nullptr) {
    for (Pfn pfn : stack->frames()) {
      auto& syscalls = system_.kernel().syscalls();
      const RamTab& ramtab = system_.kernel().ramtab();
      // Unnail first: a nailed frame either returns to kMapped (its mapping is
      // still installed) and falls to the ForceUnmap below, or — for an
      // unmapped IO reservation — straight to kUnused.
      if (ramtab.StateOf(pfn) == FrameState::kNailed) {
        (void)syscalls.Unnail(domain_->id(), pfn);
      }
      if (ramtab.StateOf(pfn) == FrameState::kMapped) {
        (void)syscalls.ForceUnmap(ramtab.Get(pfn).mapped_vpn);
      }
    }
  }
  (void)system_.frames().RemoveClient(domain_->id());
  if (stretch_ != nullptr) {
    (void)system_.stretches().Destroy(stretch_->sid());
    stretch_ = nullptr;
  }
  if (swap_file_.client != nullptr) {
    (void)system_.sfs().DeleteSwapFile(swap_file_);
  }
}

void AppDomain::Kill() {
  if (swap_file_.client != nullptr) {
    // The frames allocator reclaims this domain's frames right after the kill
    // handler returns, while swap requests naming them may still be queued or
    // in service: detach the channel before any frame can change hands.
    swap_file_.client->Detach();
  }
  if (system_.config().observe && domain_->alive()) {
    // Close the books: a kill mid-period surfaces as a final violated memory
    // verdict; later scheduler refreshes for the dying swap client no longer
    // have a contract to land on.
    const SimTime now = system_.sim().Now();
    ConformanceMonitor& conformance = system_.obs().conformance();
    conformance.DeactivateContract(domain_->id(), ConformanceMonitor::Resource::kDisk, now);
    conformance.DeactivateContract(domain_->id(), ConformanceMonitor::Resource::kMemory, now);
    if (swap_file_.client != nullptr) {
      system_.UnbindUsdSchedDomain(swap_file_.client->sched_id());
    }
  }
  for (auto& t : workloads_) {
    t.Kill();
  }
  workloads_.clear();
  mm_entry_->Stop();
  domain_->MarkDead();
}

}  // namespace nemesis
