#include "src/app/paged_driver.h"

#include <algorithm>

#include "src/base/assert.h"
#include "src/base/log.h"
#include "src/sim/sync.h"

namespace nemesis {

namespace {
constexpr Pfn kNoPfn = UINT64_MAX;
}  // namespace

PagedStretchDriver::PagedStretchDriver(DriverEnv env, UsdClient* swap, Extent swap_extent,
                                       Config config)
    : PhysicalStretchDriver(env), swap_(swap), swap_extent_(swap_extent), config_(config),
      blocks_per_page_(static_cast<uint32_t>(env.page_size() / 512)),
      bloks_(swap_extent.length / blocks_per_page_),
      pipeline_cv_(std::make_unique<Condition>(*env.sim)),
      replacement_rng_(config.replacement_seed) {
  NEM_ASSERT(config.max_frames >= 1);
  NEM_ASSERT(swap_extent.length >= blocks_per_page_);
  NEM_ASSERT(config_.min_cluster >= 1);
  NEM_ASSERT(config_.max_cluster >= config_.min_cluster);
  slots_.resize(config_.pipeline_depth);  // sized once; slot pointers stable
  cluster_window_ = config_.min_cluster;
  // With several transactions in flight, replies must be routed by request
  // id: the channel's FIFO hands replies to receivers in Recv order, which
  // need not match issue order across concurrent tasks.
  pump_task_ = env_.sim->Spawn(PumpReplies(), "swap-reply-pump");
}

PagedStretchDriver::~PagedStretchDriver() { StopPipeline(); }

void PagedStretchDriver::StopPipeline() {
  if (pipeline_stopped_) {
    return;
  }
  pipeline_stopped_ = true;
  // The frames released below may still be named by queued or in-service
  // swap requests: cut the channel's data path before any goes.
  swap_->Detach();
  pump_task_.Kill();
  pipeline_tasks_.KillAll();
  // Release every frame pinned by in-flight speculative work: the tasks are
  // dead, nobody else will. Frames revoked underneath are tolerated.
  for (StageSlot& slot : slots_) {
    if (slot.state != StageSlot::State::kFree && slot.pfn != kNoPfn) {
      ReleaseReservation(slot.pfn);
    }
    slot = StageSlot{};
  }
  for (Pfn pfn : writeback_frames_) {
    ReleaseReservation(pfn);
  }
  writeback_frames_.clear();
  for (PageInfo& page : pages_) {
    page.cleaning = false;
  }
  cleans_inflight_ = 0;
  tickets_.clear();
  pipeline_cv_->NotifyAll();
}

Status<VmError> PagedStretchDriver::Bind(Stretch* stretch) {
  NEM_ASSERT_MSG(stretch_ == nullptr, "paged driver already bound");
  stretch_ = stretch;
  pages_.assign(stretch->page_count(), PageInfo{});
  return Status<VmError>::Ok();
}

std::optional<Pfn> PagedStretchDriver::FindUnusedPoolFrame() const {
  // A staged frame is nailed (Reserve) from its claim until it is consumed,
  // so the kUnused test below already skips it.
  for (Pfn pfn : pool_) {
    if (env_.kernel->ramtab().OwnerOf(pfn) == env_.domain &&
        env_.kernel->ramtab().StateOf(pfn) == FrameState::kUnused) {
      return pfn;
    }
  }
  return std::nullopt;
}

void PagedStretchDriver::PrunePool() {
  // Frames reclaimed by the allocator (after a revocation) no longer belong
  // to this domain; drop them so the pool can be regrown later.
  std::erase_if(pool_, [this](Pfn pfn) {
    return env_.kernel->ramtab().OwnerOf(pfn) != env_.domain;
  });
}

uint64_t PagedStretchDriver::BlokLba(uint64_t blok) const {
  return swap_extent_.start + blok * blocks_per_page_;
}

void PagedStretchDriver::Reserve(Pfn pfn) {
  // Frames arrive here either unused (pool / fresh allocation) or already
  // reserved by EvictOne; nailing twice is a syscall error, so only nail the
  // former.
  if (env_.kernel->ramtab().StateOf(pfn) != FrameState::kNailed) {
    NEM_ASSERT(env_.syscalls().Nail(env_.domain, pfn).ok());
  }
}

void PagedStretchDriver::ReleaseReservation(Pfn pfn) {
  // Tolerates frames revoked underneath us (no longer owned, or re-granted
  // unused): unnail only what is still nailed under this domain.
  if (env_.kernel->ramtab().OwnerOf(pfn) == env_.domain &&
      env_.kernel->ramtab().StateOf(pfn) == FrameState::kNailed) {
    NEM_ASSERT(env_.syscalls().Unnail(env_.domain, pfn).ok());
  }
}

// --- Staging-table helpers ---------------------------------------------------

PagedStretchDriver::StageSlot* PagedStretchDriver::FindStage(size_t page) {
  for (StageSlot& slot : slots_) {
    if (slot.state != StageSlot::State::kFree && slot.page == page) {
      return &slot;
    }
  }
  return nullptr;
}

PagedStretchDriver::StageSlot* PagedStretchDriver::FreeStageSlot() {
  for (StageSlot& slot : slots_) {
    if (slot.state == StageSlot::State::kFree) {
      return &slot;
    }
  }
  return nullptr;
}

size_t PagedStretchDriver::StagedCount() const {
  size_t n = 0;
  for (const StageSlot& slot : slots_) {
    n += slot.state != StageSlot::State::kFree;
  }
  return n;
}

bool PagedStretchDriver::AnyLoading() const {
  for (const StageSlot& slot : slots_) {
    if (slot.state == StageSlot::State::kLoading) {
      return true;
    }
  }
  return false;
}

void PagedStretchDriver::CancelStage(StageSlot& slot) {
  if (slot.state == StageSlot::State::kReady) {
    const Pfn pfn = slot.pfn;
    slot = StageSlot{};
    prefetch_wasted_.Inc();
    ReleaseReservation(pfn);
  } else if (slot.state == StageSlot::State::kLoading) {
    slot.abandoned = true;  // its StageTask releases the frame when the read lands
  }
}

bool PagedStretchDriver::ConsumeStage(StageSlot& slot, size_t index, VirtAddr page_va) {
  NEM_ASSERT(slot.state == StageSlot::State::kReady && slot.page == index);
  const Pfn staged = slot.pfn;
  slot = StageSlot{};
  ReleaseReservation(staged);
  if (env_.kernel->ramtab().OwnerOf(staged) != env_.domain ||
      !env_.syscalls().Map(env_.domain, env_.pdom, page_va, staged, MapAttrs{}).ok()) {
    return false;  // frame revoked underneath us; caller falls back to demand
  }
  pages_[index].resident = true;
  fifo_.push_back(index);
  if (FrameStack* stack = env_.frames->StackOf(env_.domain); stack != nullptr) {
    stack->MoveToBottom(staged);
  }
  return true;
}

void PagedStretchDriver::NoteFaultIndex(size_t index) {
  if (index == last_fault_page_) {
    return;  // a retried fault must not shrink the window
  }
  if (last_fault_page_ != SIZE_MAX && index == last_fault_page_ + 1) {
    cluster_window_ = std::min(cluster_window_ * 2, config_.max_cluster);
  } else {
    cluster_window_ = std::max(cluster_window_ / 2, config_.min_cluster);
  }
  last_fault_page_ = index;
}

FaultResult PagedStretchDriver::HandleFault(const FaultRecord& fault, Stretch& stretch) {
  if (fault.type == FaultType::kFaultAcv || fault.type == FaultType::kFaultUnallocated) {
    return FaultResult::kFailure;
  }
  const VirtAddr page_va = AlignDown(fault.va, env_.page_size());
  if (env_.syscalls().Trans(page_va).has_value()) {
    return FaultResult::kSuccess;
  }
  const size_t index = stretch.PageIndexOf(fault.va);
  PageInfo& page = pages_[index];
  if (StageSlot* slot = FindStage(index); slot != nullptr) {
    if (slot->state == StageSlot::State::kReady && ConsumeStage(*slot, index, page_va)) {
      // Staged hit: the page was speculatively read already; mapping the
      // staged frame needs no IO and is legal in the fast path.
      prefetch_hits_.Inc();
      fast_maps_.Inc();
      NoteFaultIndex(index);
      // Cleaning first: the batch frees frames synchronously for clean
      // victims, so the read-ahead tasks spawned next can claim them.
      MaybeScheduleCleaning();
      TopUpReadAhead(index);
      return FaultResult::kSuccess;
    }
    // Still loading (or revoked underneath us): worker context.
    return FaultResult::kRetry;
  }
  if (page.cleaning) {
    return FaultResult::kRetry;  // writeback in flight: must wait for it
  }
  if (page.has_disk_copy && !config_.forgetful) {
    return FaultResult::kRetry;  // needs a swap read: worker context
  }
  // Demand-zero page: satisfiable now if a pool frame is free.
  auto pfn = FindUnusedPoolFrame();
  if (!pfn.has_value()) {
    return FaultResult::kRetry;  // needs allocation or eviction
  }
  if (!MapZeroedFrame(page_va, *pfn).ok()) {
    return FaultResult::kFailure;
  }
  page.resident = true;
  fifo_.push_back(index);
  if (FrameStack* stack = env_.frames->StackOf(env_.domain); stack != nullptr) {
    stack->MoveToBottom(*pfn);
  }
  fast_maps_.Inc();
  return FaultResult::kSuccess;
}

// --- Swap IO -----------------------------------------------------------------

Task PagedStretchDriver::PumpReplies() {
  // Sole consumer of the channel's reply FIFO: routes each completion to its
  // issuer's ticket by request id. ReceiveReply releases the channel slot,
  // preserving the rbufs depth invariant.
  for (;;) {
    const UsdReply reply = co_await swap_->ReceiveReply();
    for (IoTicket& ticket : tickets_) {
      if (ticket.id == reply.id) {
        ticket.done = true;
        ticket.ok = reply.ok;
        break;
      }
    }
    pipeline_cv_->NotifyAll();
  }
}

uint64_t PagedStretchDriver::NextBgId() { return MakeBgTraceId(env_.domain, next_bg_seq_++); }

uint64_t PagedStretchDriver::PushSwap(uint64_t blok, Pfn pfn, bool is_write, uint64_t trace_id) {
  const uint64_t io_id = next_io_id_++;
  tickets_.push_back(IoTicket{io_id});
  UsdRequest req;
  req.id = io_id;
  req.lba = BlokLba(blok);
  req.nblocks = blocks_per_page_;
  req.is_write = is_write;
  req.trace_id = trace_id;
  req.buffer = env_.phys->FrameData(pfn);  // nailed until the reply
  swap_->Push(req);
  return io_id;
}

bool PagedStretchDriver::TakeResult(uint64_t io_id, bool* ok) {
  auto it = std::find_if(tickets_.begin(), tickets_.end(),
                         [io_id](const IoTicket& ticket) { return ticket.id == io_id; });
  if (it == tickets_.end()) {
    *ok = false;  // StopPipeline cleared the tickets: no reply will come
    return true;
  }
  if (!it->done) {
    return false;
  }
  *ok = it->ok;
  *it = tickets_.back();
  tickets_.pop_back();
  return true;
}

Task PagedStretchDriver::SwapIo(uint64_t blok, Pfn pfn, bool is_write, bool* ok, uint64_t fid) {
  const SimTime start = env_.sim->Now();  // span covers the slot wait too
  *ok = false;
  if (pipeline_stopped_) {
    co_return;
  }
  co_await swap_->AcquireSlot();
  if (pipeline_stopped_) {
    co_return;  // the channel is being torn down; the reply would be lost
  }
  const uint64_t io_id = PushSwap(blok, pfn, is_write, fid);
  while (!TakeResult(io_id, ok)) {
    co_await pipeline_cv_->Wait();
  }
  if (*ok) {
    (is_write ? pageouts_ : pageins_).Inc();
  }
  if (Obs* obs = env_.obs; fid != 0 && obs != nullptr && obs->enabled()) {
    const SimDuration took = env_.sim->Now() - start;
    if (IsBgTraceId(fid)) {
      // Speculative read-ahead or writeback: its own category, and it stays
      // out of the demand-path usd_wait histogram.
      obs->BgSpan(start, env_.domain, is_write ? stage::kBgWrite : stage::kBgRead,
                  ToMilliseconds(took), fid);
    } else {
      obs->Span(start, env_.domain, is_write ? stage::kUsdWrite : stage::kUsdRead,
                ToMilliseconds(took), fid);
      if (Obs::DomainProbe* p = obs->probe(env_.domain)) {
        p->usd_wait->Record(took);
      }
    }
  }
}

// --- Eviction ----------------------------------------------------------------

size_t PagedStretchDriver::SelectVictim() {
  NEM_ASSERT(!fifo_.empty());
  switch (config_.replacement) {
    case Replacement::kFifo:
      break;
    case Replacement::kClock: {
      // Second chance: a page whose referenced bit is set gets it cleared and
      // moves to the back; the first unreferenced page is the victim. Bounded
      // by one full sweep so a fully-referenced set degrades to FIFO.
      for (size_t sweep = 0; sweep < fifo_.size(); ++sweep) {
        const size_t candidate = fifo_.front();
        auto trans = env_.syscalls().Trans(stretch_->PageBase(candidate));
        if (!trans.has_value() || !trans->referenced) {
          break;
        }
        (void)env_.syscalls().ClearReferenced(env_.domain, env_.pdom,
                                              stretch_->PageBase(candidate));
        fifo_.pop_front();
        fifo_.push_back(candidate);
      }
      break;
    }
    case Replacement::kRandom: {
      const size_t index = replacement_rng_.NextBelow(fifo_.size());
      std::swap(fifo_[0], fifo_[index]);
      break;
    }
  }
  const size_t victim = fifo_.front();
  fifo_.pop_front();
  return victim;
}

std::optional<PagedStretchDriver::Victim> PagedStretchDriver::TakeVictim() {
  const size_t victim = SelectVictim();
  PageInfo& page = pages_[victim];
  const VirtAddr victim_va = stretch_->PageBase(victim);
  auto trans = env_.syscalls().Trans(victim_va);
  NEM_ASSERT_MSG(trans.has_value(), "resident page not mapped");
  const bool dirty = trans->dirty;
  // A dirty page needs somewhere to go before it may leave its frame.
  if (dirty && !page.blok.has_value()) {
    page.blok = bloks_.Alloc();
    if (!page.blok.has_value()) {
      // Swap exhausted: put the victim back (still mapped, nothing lost).
      NEM_LOG_WARN("paged", "swap space exhausted");
      fifo_.push_front(victim);
      return std::nullopt;
    }
  }
  Pfn pfn = 0;
  NEM_ASSERT(env_.syscalls().Unmap(env_.domain, env_.pdom, victim_va, &pfn).ok());
  // Reserve the frame (RamTab nailed) for the duration of the write-back and
  // until the caller maps or releases it: a concurrent fast-path fault must
  // not grab a frame whose dirty contents are still in flight to swap.
  NEM_ASSERT(env_.syscalls().Nail(env_.domain, pfn).ok());
  evictions_.Inc();
  page.resident = false;
  if (!dirty) {
    // A clean page either already has a valid disk copy or was never written
    // (demand-zero on next touch): the frame comes back without any IO.
    cleaned_evictions_.Inc();
  }
  return Victim{victim, pfn, dirty};
}

Task PagedStretchDriver::EvictOne(Pfn* out_pfn, bool* ok, uint64_t fid) {
  const std::optional<Victim> victim = TakeVictim();
  if (!victim.has_value()) {
    *ok = false;
    co_return;
  }
  if (victim->dirty) {
    // Clean the page to swap before the frame can be reused.
    PageInfo& page = pages_[victim->page];
    bool write_ok = false;
    co_await SwapIo(*page.blok, victim->pfn, /*is_write=*/true, &write_ok, fid);
    if (!write_ok) {
      ReleaseReservation(victim->pfn);
      *ok = false;
      co_return;
    }
    if (config_.forgetful) {
      // Figure 8 driver: the copy is written (the disk traffic is real) but
      // immediately forgotten, so the page will be demand-zeroed next time.
      bloks_.Free(*page.blok);
      page.blok.reset();
      page.has_disk_copy = false;
    } else {
      page.has_disk_copy = true;
    }
  }
  *out_pfn = victim->pfn;
  *ok = true;
}

size_t PagedStretchDriver::StartEvictBatch(size_t max_victims) {
  if (pipeline_stopped_) {
    return 0;  // teardown already released everything; do not touch the fifo
  }
  // Gather up to `max_victims` replacement victims in one go. Clean pages
  // hand their frame back immediately; dirty ones are unmapped, their frames
  // pinned, and cleaned by a single detached blok-sorted write chain.
  // Synchronous (no awaits): callers rely on the victims being unmapped and
  // the chain being in flight when this returns.
  std::vector<WritebackItem> dirty;
  size_t freed_now = 0;
  for (size_t k = 0; k < max_victims && !fifo_.empty(); ++k) {
    const std::optional<Victim> victim = TakeVictim();
    if (!victim.has_value()) {
      break;  // swap exhausted: stop gathering
    }
    if (!victim->dirty) {
      ReleaseReservation(victim->pfn);
      ++freed_now;
      continue;
    }
    pages_[victim->page].cleaning = true;
    dirty.push_back(WritebackItem{victim->page, *pages_[victim->page].blok, victim->pfn});
  }
  const size_t dirty_count = dirty.size();
  if (!dirty.empty()) {
    cleans_inflight_ += dirty.size();
    for (const WritebackItem& item : dirty) {
      writeback_frames_.push_back(item.pfn);
    }
    SpawnPipelineTask(WritebackChainTask(std::move(dirty)), "writeback-chain");
  }
  return freed_now + dirty_count;
}

Task PagedStretchDriver::WritebackChainTask(std::vector<WritebackItem> items) {
  // Blok order maximizes LBA contiguity, so the channel's batch policy can
  // coalesce the whole set into few chained disk transactions. Off the fault
  // path by design: no fault is charged for these writes — each request
  // carries a background trace id, so its disk time lands in the "bg"
  // category attributed to this domain instead of vanishing.
  std::sort(items.begin(), items.end(),
            [](const WritebackItem& a, const WritebackItem& b) { return a.blok < b.blok; });
  std::vector<uint64_t> io_ids;
  io_ids.reserve(items.size());
  for (const WritebackItem& item : items) {
    if (pipeline_stopped_) {
      break;
    }
    co_await swap_->AcquireSlot();
    if (pipeline_stopped_) {
      break;
    }
    // The frame is nailed until the chain lands.
    io_ids.push_back(PushSwap(item.blok, item.pfn, /*is_write=*/true, NextBgId()));
    writeback_batched_.Inc();
  }
  for (size_t i = 0; i < items.size(); ++i) {
    const WritebackItem& item = items[i];
    bool write_ok = false;
    while (i < io_ids.size() && !TakeResult(io_ids[i], &write_ok)) {
      co_await pipeline_cv_->Wait();
    }
    PageInfo& page = pages_[item.page];
    if (write_ok) {
      pageouts_.Inc();
      if (config_.forgetful) {
        bloks_.Free(*page.blok);
        page.blok.reset();
        page.has_disk_copy = false;
      } else {
        page.has_disk_copy = true;
      }
    } else if (!pipeline_stopped_) {
      NEM_LOG_WARN("paged", "batched writeback failed; page contents dropped");
    }
    page.cleaning = false;
    ReleaseReservation(item.pfn);
    std::erase(writeback_frames_, item.pfn);
    if (cleans_inflight_ > 0) {
      --cleans_inflight_;
    }
    // Wake frame-waiting faults as each frame lands, not at chain end.
    pipeline_cv_->NotifyAll();
  }
}

// --- Fault resolution --------------------------------------------------------

Task PagedStretchDriver::ResolveFault(FaultRecord fault, Stretch* stretch, FaultResult* result) {
  const VirtAddr page_va = AlignDown(fault.va, env_.page_size());
  const size_t index = stretch->PageIndexOf(fault.va);
  PageInfo& page = pages_[index];

  if (env_.syscalls().Trans(page_va).has_value()) {
    *result = FaultResult::kSuccess;
    co_return;
  }
  PrunePool();

  NoteFaultIndex(index);
  // If this page is being (or has been) staged, use the staged frame.
  for (;;) {
    StageSlot* slot = FindStage(index);
    if (slot == nullptr) {
      break;
    }
    if (slot->state == StageSlot::State::kReady) {
      if (ConsumeStage(*slot, index, page_va)) {
        prefetch_hits_.Inc();
        slow_maps_.Inc();
        MaybeScheduleCleaning();
        TopUpReadAhead(index);
        *result = FaultResult::kSuccess;
        co_return;
      }
      break;  // frame revoked underneath us: demand path
    }
    co_await pipeline_cv_->Wait();  // loading: its StageTask will settle it
    if (pipeline_stopped_) {
      *result = FaultResult::kFailure;  // domain torn down while we slept
      co_return;
    }
  }
  // A batched writeback of this page in flight means neither the frame nor
  // the blok holds a stable copy yet; wait for the chain to land it.
  while (page.cleaning) {
    co_await pipeline_cv_->Wait();
    if (pipeline_stopped_) {
      *result = FaultResult::kFailure;  // domain torn down while we slept
      co_return;
    }
  }

  // 1. Obtain a free frame: from the pool, by growing the pool up to the
  //    configured maximum, or by evicting resident pages.
  std::optional<Pfn> pfn;
  ++demand_waiters_;  // read-ahead must not take frames while we wait
  for (;;) {
    pfn = FindUnusedPoolFrame();
    if (pfn.has_value()) {
      break;
    }
    if (pool_.size() < config_.max_frames) {
      auto allocated = env_.frames->AllocFrame(env_.domain);
      if (allocated.has_value()) {
        pool_.push_back(*allocated);
        pfn = *allocated;
        break;
      }
      if (allocated.error() == FramesError::kRevocationPending) {
        co_await env_.frames->frames_available().Wait();
        continue;
      }
      // Quota or memory exhausted: fall through to eviction.
    }
    if (config_.writeback_batch >= 2 && !fifo_.empty()) {
      // Batched writeback: unmap several victims at once. Clean frames are
      // reusable on the next loop pass; dirty ones land via the chain.
      if (cleans_inflight_ == 0) {
        if (StartEvictBatch(std::min<size_t>(config_.writeback_batch, fifo_.size())) == 0) {
          --demand_waiters_;
          *result = FaultResult::kFailure;  // swap exhausted
          co_return;
        }
        continue;
      }
      co_await pipeline_cv_->Wait();  // a chain is in flight; frames incoming
      if (pipeline_stopped_) {
        --demand_waiters_;
        *result = FaultResult::kFailure;  // domain torn down while we slept
        co_return;
      }
      continue;
    }
    if (fifo_.empty()) {
      // Cancel a useless staged page rather than failing the fault. The
      // stolen frame stays nailed; Reserve below tolerates that.
      bool stole = false;
      for (StageSlot& slot : slots_) {
        if (slot.state == StageSlot::State::kReady) {
          pfn = slot.pfn;
          slot = StageSlot{};
          prefetch_wasted_.Inc();
          stole = true;
          break;
        }
      }
      if (stole) {
        break;
      }
      if (AnyLoading() || cleans_inflight_ > 0) {
        co_await pipeline_cv_->Wait();  // in-flight work will free a frame
        if (pipeline_stopped_) {
          --demand_waiters_;
          *result = FaultResult::kFailure;  // domain torn down while we slept
          co_return;
        }
        continue;
      }
      --demand_waiters_;
      *result = FaultResult::kFailure;  // no frames and nothing to evict
      co_return;
    }
    Pfn evicted = 0;
    bool ok = false;
    co_await EvictOne(&evicted, &ok, fault.id);
    if (!ok) {
      --demand_waiters_;
      *result = FaultResult::kFailure;
      co_return;
    }
    pfn = evicted;
    break;
  }
  --demand_waiters_;

  // 2. Fill the frame: page in from swap, or demand-zero. The frame stays
  //    reserved (nailed) across the asynchronous fill so concurrent fault
  //    handling cannot map it; the reservation is dropped just before Map.
  Reserve(*pfn);
  if (page.has_disk_copy && !config_.forgetful) {
    NEM_ASSERT(page.blok.has_value());
    bool ok = false;
    co_await SwapIo(*page.blok, *pfn, /*is_write=*/false, &ok, fault.id);
    ReleaseReservation(*pfn);
    if (!ok) {
      *result = FaultResult::kFailure;
      co_return;
    }
    if (!env_.syscalls().Map(env_.domain, env_.pdom, page_va, *pfn, MapAttrs{}).ok()) {
      *result = FaultResult::kFailure;
      co_return;
    }
  } else {
    ReleaseReservation(*pfn);
    if (!MapZeroedFrame(page_va, *pfn).ok()) {
      *result = FaultResult::kFailure;
      co_return;
    }
  }

  page.resident = true;
  fifo_.push_back(index);
  if (FrameStack* stack = env_.frames->StackOf(env_.domain); stack != nullptr) {
    stack->MoveToBottom(*pfn);
  }
  slow_maps_.Inc();
  if (Obs* obs = env_.obs; obs != nullptr && obs->enabled()) {
    obs->Span(env_.sim->Now(), env_.domain, stage::kMap, 0.0, fault.id);
  }
  // Issued after the demand read completed on purpose: replies for a
  // coalesced chain fan out when the whole chain lands, so folding the
  // demand page into its own cluster would delay the faulting task. The
  // cluster instead streams while the application computes, bridged by the
  // channel's laxity idling.
  MaybeScheduleCleaning();
  TopUpReadAhead(index);
  *result = FaultResult::kSuccess;
}

// --- Read-ahead and opportunistic cleaning -----------------------------------

void PagedStretchDriver::TopUpReadAhead(size_t index) {
  if (pipeline_stopped_ || config_.forgetful) {
    return;
  }
  // Bound the burst by the channel's free slots so speculative reads never
  // queue up on the semaphore ahead of a demand read.
  size_t budget = swap_->free_slots();
  const size_t last = index + cluster_window_;
  for (size_t next = index + 1; next <= last && next < pages_.size(); ++next) {
    if (budget == 0) {
      break;
    }
    PageInfo& page = pages_[next];
    if (page.resident || page.cleaning || !page.has_disk_copy || !page.blok.has_value()) {
      continue;
    }
    if (FindStage(next) != nullptr) {
      continue;  // already staged or staging
    }
    StageSlot* slot = FreeStageSlot();
    if (slot == nullptr) {
      break;  // staging table full
    }
    slot->state = StageSlot::State::kLoading;
    slot->abandoned = false;
    slot->page = next;
    slot->pfn = kNoPfn;  // sentinel until the task claims a frame
    prefetch_issued_.Inc();
    staging_highwater_.Observe(StagedCount());
    --budget;
    // Spawned back to back in one event: the reads land in the channel queue
    // together, where swap-contiguous bloks coalesce into one chain.
    SpawnPipelineTask(StageTask(next), "stage-read");
  }
}

Task PagedStretchDriver::StageTask(size_t index) {
  // Claim a frame without displacing demand: an unused pool frame, pool
  // growth, or — only when no demand fault is waiting and no writeback keeps
  // headroom — evicting the replacement victim (needs >= 2 resident pages so
  // the most recent mapping survives).
  std::optional<Pfn> pfn;
  if (demand_waiters_ == 0 && !pipeline_stopped_) {
    pfn = FindUnusedPoolFrame();
    if (!pfn.has_value() && pool_.size() < config_.max_frames) {
      auto allocated = env_.frames->AllocFrame(env_.domain);
      if (allocated.has_value()) {
        pool_.push_back(*allocated);
        pfn = *allocated;
      }
    }
    if (!pfn.has_value() && config_.writeback_batch < 2 && cleans_inflight_ == 0 &&
        fifo_.size() >= 2) {
      Pfn evicted = 0;
      bool ok = false;
      co_await EvictOne(&evicted, &ok, NextBgId());
      if (ok) {
        pfn = evicted;
      }
    }
  }
  StageSlot* slot = FindStage(index);
  if (slot == nullptr || slot->state != StageSlot::State::kLoading) {
    // The slot was reclaimed (teardown) while we were acquiring the frame.
    if (pfn.has_value()) {
      ReleaseReservation(*pfn);
    }
    pipeline_cv_->NotifyAll();
    co_return;
  }
  if (!pfn.has_value() || slot->abandoned || demand_waiters_ > 0) {
    // No frame, cancelled, or a demand fault arrived while we evicted: give
    // the frame (if any) back and drop the slot.
    if (pfn.has_value()) {
      ReleaseReservation(*pfn);
    }
    *slot = StageSlot{};
    pipeline_cv_->NotifyAll();
    co_return;
  }
  slot->pfn = *pfn;
  Reserve(*pfn);  // reserved until consumed or cancelled
  NEM_ASSERT(pages_[index].blok.has_value());
  bool read_ok = false;
  co_await SwapIo(*pages_[index].blok, *pfn, /*is_write=*/false, &read_ok, NextBgId());
  if (pipeline_stopped_ || !read_ok || slot->state != StageSlot::State::kLoading ||
      slot->page != index || slot->abandoned) {
    ReleaseReservation(*pfn);
    *slot = StageSlot{};
    prefetch_wasted_.Inc();
  } else {
    slot->state = StageSlot::State::kReady;
  }
  pipeline_cv_->NotifyAll();
}

void PagedStretchDriver::MaybeScheduleCleaning() {
  if (pipeline_stopped_ || config_.writeback_batch < 2) {
    return;
  }
  if (cleans_inflight_ > 0 || demand_waiters_ > 0 || fifo_.size() < 2) {
    return;
  }
  if (pool_.size() < config_.max_frames || FindUnusedPoolFrame().has_value()) {
    return;  // headroom exists (or can be grown) without evicting
  }
  // Conditions re-checked by the task, which cleans concurrently with the
  // caller: this is also reached from the fast path, which may not block.
  SpawnPipelineTask(CleaningTask(), "clean-batch");
}

Task PagedStretchDriver::CleaningTask() {
  if (pipeline_stopped_ || cleans_inflight_ > 0 || demand_waiters_ > 0 || fifo_.size() < 2) {
    co_return;
  }
  if (pool_.size() < config_.max_frames || FindUnusedPoolFrame().has_value()) {
    co_return;
  }
  // Keep the most recent mapping resident; clean up to a batch of the rest.
  StartEvictBatch(std::min<size_t>(config_.writeback_batch, fifo_.size() - 1));
}

void PagedStretchDriver::SpawnPipelineTask(Task task, const char* label) {
  if (pipeline_stopped_) {
    return;
  }
  pipeline_tasks_.Adopt(env_.sim->Spawn(std::move(task), label));
}

// --- Revocation --------------------------------------------------------------

Task PagedStretchDriver::RelinquishFrames(uint64_t target, uint64_t* freed) {
  FrameStack* stack = env_.frames->StackOf(env_.domain);
  // Speculative work is the first thing to go: ready staged pages are
  // cancelled outright, loading ones abandoned (their StageTask releases the
  // frame when the read lands).
  for (StageSlot& slot : slots_) {
    CancelStage(slot);
  }
  // Track what was already handed over: the pool is re-scanned as in-flight
  // IO drains, and a frame must not be counted twice.
  std::vector<Pfn> handed;
  auto hand_over_unused = [&] {
    for (Pfn pfn : pool_) {
      if (*freed >= target) {
        return;
      }
      if (env_.kernel->ramtab().OwnerOf(pfn) == env_.domain &&
          env_.kernel->ramtab().StateOf(pfn) == FrameState::kUnused &&
          std::find(handed.begin(), handed.end(), pfn) == handed.end()) {
        if (stack != nullptr) {
          stack->MoveToTop(pfn);
        }
        handed.push_back(pfn);
        ++*freed;
      }
    }
  };
  hand_over_unused();
  // Then evict resident pages, cleaning dirty ones to swap (this is why the
  // intrusive revocation deadline "may be relatively far in the future").
  while (*freed < target && !fifo_.empty()) {
    Pfn evicted = 0;
    bool ok = false;
    co_await EvictOne(&evicted, &ok);
    if (!ok) {
      break;
    }
    ReleaseReservation(evicted);
    if (stack != nullptr) {
      stack->MoveToTop(evicted);
    }
    handed.push_back(evicted);
    ++*freed;
  }
  // Frames pinned by in-flight stage fills and writeback chains become
  // unused as those land; wait them out if the target is still short.
  while (*freed < target && !pipeline_stopped_ && (cleans_inflight_ > 0 || AnyLoading())) {
    co_await pipeline_cv_->Wait();
    hand_over_unused();
  }
}

}  // namespace nemesis
