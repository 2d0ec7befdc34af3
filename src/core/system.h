// System façade: constructs and wires the complete Nemesis VM reproduction —
// simulated machine (physical memory, page table, MMU, disk), kernel, system
// domain services (translation, stretch and frames allocators), and the
// User-Safe Backing Store (USD + SFS) — and builds self-paging application
// domains on top.
//
// This is the primary public entry point; see examples/quickstart.cc.
#ifndef SRC_CORE_SYSTEM_H_
#define SRC_CORE_SYSTEM_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/app/mm_entry.h"
#include "src/app/nailed_driver.h"
#include "src/app/paged_driver.h"
#include "src/app/physical_driver.h"
#include "src/app/vmem.h"
#include "src/check/domain_access.h"
#include "src/check/invariants.h"
#include "src/hw/disk.h"
#include "src/hw/mmu.h"
#include "src/hw/page_table.h"
#include "src/hw/phys_mem.h"
#include "src/kernel/kernel.h"
#include "src/mm/frames_allocator.h"
#include "src/mm/stretch_allocator.h"
#include "src/mm/translation.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/usd/sfs.h"
#include "src/usd/usd.h"

namespace nemesis {

struct SystemConfig {
  // Machine.
  uint64_t phys_frames = 2048;  // 16 MiB of main memory at 8 KiB pages
  size_t page_size = kDefaultPageSize;
  Vpn va_pages = 1 << 20;  // bounded virtual address space (8 GiB at 8 KiB)
  DiskGeometry disk;
  KernelCostModel kernel_costs;

  // Disk layout: the swap partition used by the SFS. The rest of the disk is
  // free for file-system clients (Figure 9).
  Extent swap_partition{512, 1024 * 1024};  // ~512 MiB

  // Virtual-address arena handed to the stretch allocator.
  VirtAddr stretch_arena_base = 256 * kDefaultPageSize;
  VirtAddr stretch_arena_limit = uint64_t{1} << 33;  // 8 GiB

  // Checked-build knobs (DESIGN.md "Checked builds and the isolation
  // contract"). With `audit` on, the DomainAccessChecker records which domain
  // touches which shared structure inside every event callback, and the
  // invariant auditor walks the cross-layer state after every
  // `audit_stride`-th event batch, aborting on the first violation. Defaults
  // on in NEMESIS_AUDIT builds; can be toggled per System in any build.
#ifdef NEMESIS_AUDIT
  bool audit = true;
#else
  bool audit = false;
#endif
  uint32_t audit_stride = 1;  // audit every Nth batch (0 behaves as 1)

  // Retired: the simulator is serial, and System's constructor asserts 0.
  size_t parallel_sim = 0;

  // Observability (DESIGN.md "Observability"). When on, every memory fault is
  // traced as a lifecycle span (category "span" in the TraceRecorder) and the
  // metrics registry's per-domain latency histograms are populated. Default
  // OFF: the disabled probes cost a null/boolean check each, and all trace
  // and stdout output stays bit-identical to a build without them.
  bool observe = false;
};


class AppDomain;

struct AppConfig {
  std::string name = "app";
  FramesContract contract{2, 0};
  size_t stretch_bytes = 4 * kMiB;

  enum class DriverKind { kPaged, kPhysical, kNailed };
  DriverKind driver = DriverKind::kPaged;

  // Paged-driver parameters (ignored for other kinds).
  uint64_t swap_bytes = 16 * kMiB;
  QosSpec disk_qos{Milliseconds(250), Milliseconds(25), false, Milliseconds(10)};
  size_t usd_depth = 1;
  UsdBatchPolicy usd_batch{};  // request coalescing for the swap client (default OFF)
  uint64_t driver_max_frames = 2;
  bool forgetful = false;
  PagedStretchDriver::Replacement replacement = PagedStretchDriver::Replacement::kFifo;
  // Async pager pipeline (DESIGN.md "Async pager pipeline"): 0 is the plain
  // demand pager; 1 with readahead_max_cluster 1 is the paper's §8 stream
  // paging. N >= 1 stages up to N speculative page-ins; the swap channel
  // depth is raised to cover the staged reads, the demand read and the
  // writeback chain, and request coalescing is switched on (the configured
  // policy's caps still apply).
  uint32_t pipeline_depth = 0;
  uint32_t readahead_min_cluster = 1;
  uint32_t readahead_max_cluster = 8;
  uint32_t writeback_batch = 0;  // >= 2 batches victim writeback

  AppCostModel costs;
  size_t mm_workers = 1;
};

class System {
 public:
  explicit System(SystemConfig config = SystemConfig{});
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Builds a complete self-paging application domain: kernel domain,
  // protection domain, frames contract, stretch, stretch driver (with a swap
  // file for the paged kind), MMEntry, and VMem accessor.
  AppDomain* CreateApp(AppConfig config);

  AppDomain* FindApp(DomainId id);

  // --- Component access ------------------------------------------------------

  Simulator& sim() { return sim_; }
  TraceRecorder& trace() { return trace_; }
  Obs& obs() { return obs_; }
  PhysicalMemory& phys() { return phys_; }
  PageTable& page_table() { return page_table_; }
  Mmu& mmu() { return mmu_; }
  Disk& disk() { return disk_; }
  Kernel& kernel() { return kernel_; }
  TranslationSystem& translation() { return translation_; }
  StretchAllocator& stretches() { return stretch_allocator_; }
  FramesAllocator& frames() { return frames_allocator_; }
  Usd& usd() { return usd_; }
  SwapFilesystem& sfs() { return sfs_; }
  const SystemConfig& config() const { return config_; }

  // --- Checked-build access --------------------------------------------------

  // Runs the cross-layer invariant auditor now and returns the report.
  // Available in every build (the auditor is always constructed); tests use
  // it to assert audit-clean state at phase boundaries.
  AuditReport AuditNow(InvariantAuditor::Depth depth = InvariantAuditor::Depth::kFull) {
    return auditor_.Audit(depth);
  }

  InvariantAuditor& auditor() { return auditor_; }
  DomainAccessChecker& access_checker() { return access_checker_; }

  // Conformance-monitor plumbing: maps a USD scheduler client to the app
  // domain owning it so the Atropos hooks can attribute disk slices. Bound
  // by AppDomain when a swap file is created, unbound at kill/teardown.
  void BindUsdSchedDomain(SchedClientId sched_id, DomainId domain) {
    usd_sched_domains_[sched_id] = domain;
  }
  void UnbindUsdSchedDomain(SchedClientId sched_id) { usd_sched_domains_.erase(sched_id); }

 private:
  SystemConfig config_;
  Simulator sim_;
  TraceRecorder trace_;
  Obs obs_;
  PhysicalMemory phys_;
  PageTable page_table_;
  Mmu mmu_;
  Disk disk_;
  Kernel kernel_;
  TranslationSystem translation_;
  StretchAllocator stretch_allocator_;
  FramesAllocator frames_allocator_;
  Usd usd_;
  SwapFilesystem sfs_;
  InvariantAuditor auditor_;  // after every structure it references
  DomainAccessChecker access_checker_;
  uint64_t audit_batches_ = 0;
  std::unordered_map<SchedClientId, DomainId> usd_sched_domains_;
  std::vector<std::unique_ptr<AppDomain>> apps_;
};

// A self-paging application domain with its resources and workload tasks.
class AppDomain {
 public:
  AppDomain(System& system, AppConfig config);
  ~AppDomain();
  AppDomain(const AppDomain&) = delete;
  AppDomain& operator=(const AppDomain&) = delete;

  DomainId id() const { return domain_->id(); }
  const std::string& name() const { return config_.name; }
  Simulator& sim() { return system_.sim(); }
  System& system() { return system_; }
  Domain& domain() { return *domain_; }
  ProtectionDomain& pdom() { return *pdom_; }
  Stretch* stretch() { return stretch_; }
  MmEntry& mm_entry() { return *mm_entry_; }
  VMem& vmem() { return *vmem_; }
  StretchDriver* driver() { return driver_.get(); }
  PagedStretchDriver* paged_driver();
  UsdClient* swap_client() { return swap_file_.client; }
  bool alive() const { return domain_->alive(); }

  // Tracks workload tasks so the domain can be killed cleanly.
  TaskHandle SpawnWorkload(Task task, const std::string& label);

  // Kills the domain: stops the MMEntry and all workload tasks and marks the
  // kernel domain dead. Invoked by the frames allocator's kill path.
  void Kill();

  // Orderly teardown: kills the domain's tasks, then releases every resource
  // it holds — frames contract, stretch (translations removed), swap file and
  // USD QoS reservation — so other domains can use them.
  void Shutdown();

 private:
  friend class System;

  System& system_;
  AppConfig config_;
  Domain* domain_;
  ProtectionDomain* pdom_;
  Stretch* stretch_ = nullptr;
  DriverEnv env_;
  std::unique_ptr<MmEntry> mm_entry_;
  std::unique_ptr<StretchDriver> driver_;
  std::unique_ptr<VMem> vmem_;
  SwapFile swap_file_{};
  std::vector<TaskHandle> workloads_;
};

}  // namespace nemesis

#endif  // SRC_CORE_SYSTEM_H_
