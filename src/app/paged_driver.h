// Paged stretch driver (paper §6.6): an extension of the physical stretch
// driver with a binding to the User-Safe Backing Store, able to swap pages in
// and out to disk. Swap space is managed as bloks (page-sized runs of disk
// blocks) via the first-fit BlokAllocator.
//
// The implementation follows the paper's "fairly pure demand paged scheme":
// when a fault cannot be satisfied from the pool of free frames, disk
// activity ensues — a dirty victim is cleaned to swap, and (unless the page
// has never been written or the driver is forgetful) the faulting page is
// fetched from swap. Replacement among the driver's own frames is FIFO.
//
// `forgetful` mode reproduces the paper's paging-out experiment (Figure 8):
// the driver "forgets that pages have a copy on disk and hence never pages in
// during a page fault" — every fault demand-zeroes, every dirty eviction
// still pays a disk write.
//
// Async pager pipeline (DESIGN.md "Async pager pipeline"): the paper's §8
// stream-paging sketch generalized into a real pipeline, an application-level
// policy choice in the self-paging spirit (§3: "improved page replacement and
// prefetching"). It is the driver's only path, with its policies as Config
// parameters:
//   * a staging table of up to `pipeline_depth` concurrently in-flight
//     speculative page-ins. Depth 0 stages nothing: that is the demand pager
//     above. The paper's single-slot stream paging is depth 1 with
//     max_cluster 1;
//   * clustered read-ahead: after a fault on page i the next pages are staged
//     in one burst sized by a sequentiality detector (window doubles on
//     sequential faults, halves otherwise, clamped to [min_cluster,
//     max_cluster]); swap-contiguous members pushed back-to-back coalesce
//     into one chained disk transaction through the PR 3 UsdBatchPolicy path;
//   * batched victim writeback (Config::writeback_batch >= 2): instead of a
//     synchronous per-victim swap write inside the fault path, up to that many
//     victims are unmapped together, their dirty pages cleaned by one
//     detached blok-sorted write chain, and clean victims handed back
//     immediately — plus opportunistic cleaning after a resolve keeps free
//     frames ahead of demand, so most evictions return a pre-cleaned frame.
// Every swap reply is routed by a per-request id through a reply-pump task,
// so concurrent transactions (staged reads, a writeback chain, or the demand
// reads of several MMEntry workers) can never be mis-matched to waiters.
//
// Concurrency: the MMEntry runs one worker per domain by default, matching
// the paper's single paging thread. Pipeline tasks, and the slow paths of any
// extra workers, interleave with it only at co_await points.
#ifndef SRC_APP_PAGED_DRIVER_H_
#define SRC_APP_PAGED_DRIVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/app/blok_allocator.h"
#include "src/app/physical_driver.h"
#include "src/base/random.h"
#include "src/sim/sync.h"
#include "src/usd/usd.h"

namespace nemesis {

class PagedStretchDriver : public PhysicalStretchDriver {
 public:
  // Replacement policy among the driver's resident pages. Self-paging means
  // this is the APPLICATION's choice (paper section 3: application-specific
  // knowledge enables "improved page replacement and prefetching").
  enum class Replacement : uint8_t {
    kFifo,   // the paper's demand-paged scheme
    kClock,  // second chance via the exposed referenced bits
    kRandom, // baseline for comparison
  };

  struct Config {
    uint64_t max_frames = 2;  // physical memory the driver may consume
    bool forgetful = false;   // Figure 8 mode: never page in
    Replacement replacement = Replacement::kFifo;
    uint64_t replacement_seed = 1;  // for kRandom
    // Async pager pipeline (see file comment). 0 = demand paging only. The
    // paper's stream paging (§8) is 1 with max_cluster 1. The swap UsdClient
    // should be opened with depth >= pipeline_depth + writeback_batch so the
    // staged reads, the demand read and the writeback chain can all be in
    // flight at once (AppDomain wiring does this automatically).
    uint32_t pipeline_depth = 0;
    uint32_t min_cluster = 1;   // read-ahead window floor (pages)
    uint32_t max_cluster = 8;   // read-ahead window ceiling (pages)
    // >= 2 gathers up to this many victims per eviction round into one
    // coalesced write chain; 0/1 keeps the synchronous per-victim write.
    uint32_t writeback_batch = 0;
  };

  // `swap` is the QoS-negotiated USD channel for this domain's swap file
  // covering `swap_extent` (obtained from the SFS).
  PagedStretchDriver(DriverEnv env, UsdClient* swap, Extent swap_extent, Config config);
  ~PagedStretchDriver() override;

  Status<VmError> Bind(Stretch* stretch) override;
  FaultResult HandleFault(const FaultRecord& fault, Stretch& stretch) override;
  Task ResolveFault(FaultRecord fault, Stretch* stretch, FaultResult* result) override;
  Task RelinquishFrames(uint64_t target, uint64_t* freed) override;

  // Stops the reply pump and every in-flight prefetch/writeback task,
  // detaches the swap channel and releases staged frames. Called on domain
  // kill and teardown BEFORE the swap client is closed; the driver issues no
  // further swap IO afterwards.
  void Quiesce() override { StopPipeline(); }

  const char* kind() const override { return "paged"; }

  uint64_t pageins() const { return pageins_.value(); }
  uint64_t pageouts() const { return pageouts_.value(); }
  uint64_t evictions() const { return evictions_.value(); }
  uint64_t cleaned_evictions() const { return cleaned_evictions_.value(); }
  uint64_t prefetch_hits() const { return prefetch_hits_.value(); }
  uint64_t prefetch_issued() const { return prefetch_issued_.value(); }
  uint64_t prefetch_wasted() const { return prefetch_wasted_.value(); }
  uint64_t writeback_batched() const { return writeback_batched_.value(); }
  uint64_t staging_highwater() const { return staging_highwater_.value(); }
  size_t resident_pages() const { return fifo_.size(); }
  size_t pool_size() const { return pool_.size(); }
  const BlokAllocator& bloks() const { return bloks_; }

 private:
  struct PageInfo {
    bool resident = false;
    bool has_disk_copy = false;
    // A batched writeback of this page is in flight: the blok contents are
    // not yet valid and the page must not be touched until the chain lands.
    bool cleaning = false;
    std::optional<uint64_t> blok;
  };

  // One entry of the staging table: a speculative page-in that is either in
  // flight (kLoading) or completed and waiting to be consumed by a fault
  // (kReady). The frame is IO-reserved (nailed) from claim to consumption.
  struct StageSlot {
    enum class State : uint8_t { kFree, kLoading, kReady };
    State state = State::kFree;
    bool abandoned = false;  // cancelled while loading; StageTask cleans up
    size_t page = 0;
    Pfn pfn = UINT64_MAX;    // sentinel until a frame is claimed
  };

  // Completion ticket for one pump-routed swap transaction, keyed by the
  // unique request id. PushSwap adds it; the reply pump settles it and
  // broadcasts pipeline_cv_; TakeResult consumes and drops it.
  struct IoTicket {
    uint64_t id = 0;
    bool done = false;
    bool ok = false;
  };

  // A dirty victim travelling through a batched writeback chain.
  struct WritebackItem {
    size_t page = 0;
    uint64_t blok = 0;
    Pfn pfn = 0;
  };

  std::optional<Pfn> FindUnusedPoolFrame() const;
  void PrunePool();
  uint64_t BlokLba(uint64_t blok) const;
  // IO-reservation helpers over the nail/unnail syscalls: Reserve pins a
  // frame (tolerating one already pinned by EvictOne), ReleaseReservation
  // unpins it (tolerating frames revoked underneath the driver).
  void Reserve(Pfn pfn);
  void ReleaseReservation(Pfn pfn);
  // Chooses (and removes from fifo_) the victim page per the configured
  // replacement policy.
  size_t SelectVictim();

  // --- Staging-table pipeline machinery --------------------------------------

  StageSlot* FindStage(size_t page);
  StageSlot* FreeStageSlot();
  size_t StagedCount() const;
  bool AnyLoading() const;
  // Drops a slot: a ready frame is released immediately; a loading one is
  // marked abandoned for its StageTask to clean up.
  void CancelStage(StageSlot& slot);
  // Maps a ready staged frame at `page_va`; returns false if the frame was
  // revoked underneath the driver (slot freed either way).
  bool ConsumeStage(StageSlot& slot, size_t index, VirtAddr page_va);
  // Sequentiality detector: doubles the read-ahead window on a sequential
  // fault, halves it otherwise.
  void NoteFaultIndex(size_t index);
  // Starts speculative page-ins for the pages after `index`, bounded by the
  // current window, the staging table and the channel depth.
  void TopUpReadAhead(size_t index);
  // Speculative page-in of `index` into its (pre-claimed) staging slot.
  Task StageTask(size_t index);
  // Routes every swap reply to its ticket by request id. The sole consumer
  // of the channel's replies.
  Task PumpReplies();
  // Unmaps up to `max_victims` victims at once; clean frames are released
  // immediately, dirty ones handed to one WritebackChainTask. Returns the
  // number of frames that are (or will become) reusable.
  size_t StartEvictBatch(size_t max_victims);
  Task WritebackChainTask(std::vector<WritebackItem> items);
  // Keeps free-frame headroom ahead of demand: schedules a CleaningTask when
  // the pool has no unused frame left and no cleaning is already in flight.
  void MaybeScheduleCleaning();
  Task CleaningTask();
  // Spawns a pipeline task and tracks its handle so StopPipeline / the
  // destructor can kill it.
  void SpawnPipelineTask(Task task, const char* label);

  // A resident page taken off the FIFO: unmapped, its frame nailed.
  struct Victim {
    size_t page = 0;
    Pfn pfn = 0;
    bool dirty = false;
  };
  // Selects the replacement victim and, for a dirty page, allocates its swap
  // blok before unmapping it and nailing its frame. On swap exhaustion the
  // victim stays mapped at the head of the FIFO and the result is empty.
  std::optional<Victim> TakeVictim();
  // Evicts the FIFO-oldest resident page, cleaning it to swap if dirty.
  // Writes the freed frame to *out_pfn; *ok=false on swap exhaustion (the
  // victim stays resident) or a failed write.
  // `fid` is the fault trace id driving the eviction (0 outside a fault).
  Task EvictOne(Pfn* out_pfn, bool* ok, uint64_t fid = 0);

  // Swap IO: a whole-page write or read through the USD channel, its reply
  // routed through the pump. The frame itself is the transfer buffer, so the
  // caller keeps it nailed until the call returns. `fid` threads the fault
  // trace id into the UsdRequest (0 = untraced).
  Task SwapIo(uint64_t blok, Pfn pfn, bool is_write, bool* ok, uint64_t fid = 0);
  // Adds a ticket and pushes one whole-page request naming `pfn` as its
  // buffer; the caller holds a channel slot. Returns the request id.
  uint64_t PushSwap(uint64_t blok, Pfn pfn, bool is_write, uint64_t trace_id);
  // True once request `io_id` is settled: its reply landed (*ok = the reply's
  // verdict) or StopPipeline dropped its ticket (*ok = false).
  bool TakeResult(uint64_t io_id, bool* ok);

  // Stops the pipeline (see Quiesce). Idempotent.
  void StopPipeline();

  UsdClient* swap_;
  Extent swap_extent_;
  Config config_;
  uint32_t blocks_per_page_;
  BlokAllocator bloks_;

  Stretch* stretch_ = nullptr;
  std::vector<PageInfo> pages_;
  std::deque<size_t> fifo_;  // resident pages, oldest first
  std::vector<Pfn> pool_;    // frames this driver has acquired

  // Staging table (empty at depth 0). Slots are stable: the vector is sized
  // once in the constructor and never reallocated.
  std::vector<StageSlot> slots_;
  std::unique_ptr<Condition> pipeline_cv_;  // staging / ticket / writeback events
  std::vector<IoTicket> tickets_;           // in-flight swap transactions
  uint64_t next_io_id_ = 1;
  // Background (speculative) I/O trace ids: read-ahead, prefetch evictions
  // and batched writeback carry MakeBgTraceId(domain, seq) so their disk time
  // is attributed to this domain under the "bg" span category.
  uint64_t next_bg_seq_ = 1;
  uint64_t NextBgId();
  TaskHandle pump_task_;
  OwnedTaskSet pipeline_tasks_;
  bool pipeline_stopped_ = false;
  // Read-ahead window state.
  size_t last_fault_page_ = SIZE_MAX;
  uint32_t cluster_window_ = 1;
  // Demand faults currently waiting for a frame; while nonzero, read-ahead
  // must not take frames (the fault path has priority).
  uint32_t demand_waiters_ = 0;
  // Dirty victims whose writeback chain has not completed yet, and the
  // (nailed) frames they pin — released by the chain, or by StopPipeline if
  // the chain is killed first.
  size_t cleans_inflight_ = 0;
  std::vector<Pfn> writeback_frames_;

  Random replacement_rng_;
  StatCounter pageins_;
  StatCounter pageouts_;
  StatCounter evictions_;
  StatCounter cleaned_evictions_;  // evictions that handed back a clean frame
  StatCounter prefetch_hits_;
  StatCounter prefetch_issued_;
  StatCounter prefetch_wasted_;
  StatCounter writeback_batched_;  // victim writes issued through batch chains
  StatHighWater staging_highwater_;
};

}  // namespace nemesis

#endif  // SRC_APP_PAGED_DRIVER_H_
