#include "src/mm/frames_allocator.h"

#include <algorithm>

#include "src/base/assert.h"
#include "src/base/log.h"
#include "src/obs/obs.h"

namespace nemesis {

FramesAllocator::FramesAllocator(Simulator& sim, RamTab& ramtab, uint64_t total_frames,
                                 TraceRecorder* trace)
    : sim_(sim), ramtab_(ramtab), trace_(trace), total_frames_(total_frames),
      frames_available_(sim) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  NEM_ASSERT_LE(total_frames, ramtab.size());
  // Keep the free pool so that low PFNs are handed out first (the LIFO take
  // path pops the back).
  free_pool_.reserve(total_frames);
  for (uint64_t pfn = total_frames; pfn > 0; --pfn) {
    free_pool_.push_back(pfn - 1);
  }
  ramtab_.set_nail_observer([this](Pfn pfn, DomainId owner, bool nailed) {
    OnNailChanged(pfn, owner, nailed);
  });
}

FramesAllocator::~FramesAllocator() { ramtab_.set_nail_observer(nullptr); }

FramesAllocator::Client* FramesAllocator::Find(DomainId domain) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  if (domain >= domain_to_index_.size() || domain_to_index_[domain] == kNoHeapHandle) {
    return nullptr;
  }
  Client* c = clients_[domain_to_index_[domain]].get();
  return c->alive ? c : nullptr;
}

const FramesAllocator::Client* FramesAllocator::Find(DomainId domain) const {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  return const_cast<FramesAllocator*>(this)->Find(domain);
}

void FramesAllocator::RefreshAccounting(Client& c) {
  const uint64_t want = (c.alive && c.allocated < c.contract.guaranteed)
                            ? c.contract.guaranteed - c.allocated
                            : 0;
  guaranteed_outstanding_ = guaranteed_outstanding_ - c.outstanding + want;
  c.outstanding = want;
  if (obs_ != nullptr && obs_->enabled()) {
    // Every allocated-count mutation funnels through here, so this is the
    // single frame-holding probe for the conformance monitor.
    obs_->conformance().OnFramesHeld(c.domain, sim_.Now(), c.allocated);
  }
  const bool candidate = c.alive && c.allocated > c.contract.guaranteed;
  if (!candidate) {
    victims_reclaimable_.Erase(c.index);
    victims_nailed_.Erase(c.index);
    return;
  }
  const uint64_t surplus = c.allocated - c.contract.guaranteed;
  const VictimKey key{~surplus, c.index};
  if (c.reclaimable > 0) {
    victims_reclaimable_.InsertOrUpdate(c.index, key);
    victims_nailed_.Erase(c.index);
  } else {
    victims_nailed_.InsertOrUpdate(c.index, key);
    victims_reclaimable_.Erase(c.index);
  }
}

void FramesAllocator::OnNailChanged(Pfn pfn, DomainId owner, bool nailed) {
  (void)pfn;
  Client* c = Find(owner);
  if (c == nullptr) {
    return;
  }
  if (nailed) {
    NEM_ASSERT(c->reclaimable > 0);
    --c->reclaimable;
  } else {
    ++c->reclaimable;
  }
  RefreshAccounting(*c);
}

Status<FramesError> FramesAllocator::AdmitClient(DomainId domain, FramesContract contract) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  if (Find(domain) != nullptr) {
    return MakeUnexpected(FramesError::kAlreadyClient);
  }
  // "Admission control is based on the requested guarantee g — the sum of all
  // guaranteed frames contracted by the allocator must be less than the total
  // amount of main memory."
  if (guaranteed_total_ + contract.guaranteed > total_frames_) {
    return MakeUnexpected(FramesError::kAdmissionFailed);
  }
  guaranteed_total_ += contract.guaranteed;
  auto client = std::make_unique<Client>();
  client->domain = domain;
  client->contract = contract;
  client->index = static_cast<uint32_t>(clients_.size());
  if (domain >= domain_to_index_.size()) {
    domain_to_index_.resize(domain + 1, kNoHeapHandle);
  }
  domain_to_index_[domain] = client->index;
  clients_.push_back(std::move(client));
  RefreshAccounting(*clients_.back());
  if (trace_ != nullptr) {
    trace_->Record(sim_.Now(), "frames", static_cast<int>(domain), "admit",
                   static_cast<double>(contract.guaranteed),
                   static_cast<double>(contract.optimistic));
  }
  return Status<FramesError>::Ok();
}

Status<FramesError> FramesAllocator::RemoveClient(DomainId domain) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  Client* c = Find(domain);
  if (c == nullptr) {
    return MakeUnexpected(FramesError::kNotClient);
  }
  KillAndReclaim(*c);  // releases every frame; does not invoke the kill handler
  return Status<FramesError>::Ok();
}

bool FramesAllocator::IsClient(DomainId domain) const { return Find(domain) != nullptr; }

void FramesAllocator::set_access_checker(DomainAccessChecker* checker) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  access_checker_ = checker;
}

Pfn FramesAllocator::TakeFreeFrame(Client& client) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  NEM_ASSERT(!free_pool_.empty());
  const Pfn pfn = free_pool_.back();
  free_pool_.pop_back();
  ramtab_.SetOwner(pfn, client.domain);
  ramtab_.SetUnused(pfn);
  ++client.allocated;
  ++client.reclaimable;  // a fresh grant is kUnused, hence reclaimable
  client.stack.PushTop(pfn);
  RefreshAccounting(client);
  return pfn;
}

std::optional<FramesError> FramesAllocator::CheckAllocation(const Client& client,
                                                            bool* guaranteed_request) const {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  if (client.allocated >= client.contract.limit()) {
    return FramesError::kQuotaExceeded;
  }
  *guaranteed_request = client.allocated < client.contract.guaranteed;
  if (!*guaranteed_request && !free_pool_.empty()) {
    // Optimistic allocations are granted only from genuinely spare memory:
    // never dip into the pool needed to cover outstanding guarantees.
    if (free_pool_.size() <= guaranteed_outstanding_) {
      return FramesError::kNoMemory;
    }
  }
  return std::nullopt;
}

Expected<Pfn, FramesError> FramesAllocator::GrantFree(Client& client,
                                                      std::vector<Pfn>::iterator it) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  if (it == free_pool_.end()) {
    return MakeUnexpected(FramesError::kNoMemory);
  }
  const Pfn pfn = *it;
  free_pool_.erase(it);
  ramtab_.SetOwner(pfn, client.domain);
  ramtab_.SetUnused(pfn);
  ++client.allocated;
  ++client.reclaimable;
  client.stack.PushTop(pfn);
  RefreshAccounting(client);
  return pfn;
}

Expected<Pfn, FramesError> FramesAllocator::AllocSpecificFrame(DomainId domain, Pfn pfn) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  Client* c = Find(domain);
  if (c == nullptr) {
    return MakeUnexpected(FramesError::kNotClient);
  }
  RecordAccess(domain);
  if (!ramtab_.ValidPfn(pfn)) {
    return MakeUnexpected(FramesError::kNoMemory);
  }
  bool guaranteed_request = false;
  if (auto err = CheckAllocation(*c, &guaranteed_request); err.has_value()) {
    return MakeUnexpected(*err);
  }
  return GrantFree(*c, std::find(free_pool_.begin(), free_pool_.end(), pfn));
}

Expected<Pfn, FramesError> FramesAllocator::AllocFrameInRegion(DomainId domain, Pfn region_base,
                                                               uint64_t region_len) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  Client* c = Find(domain);
  if (c == nullptr) {
    return MakeUnexpected(FramesError::kNotClient);
  }
  RecordAccess(domain);
  bool guaranteed_request = false;
  if (auto err = CheckAllocation(*c, &guaranteed_request); err.has_value()) {
    return MakeUnexpected(*err);
  }
  // First match in push order; the test cannot overflow, whatever region_len.
  return GrantFree(*c, std::find_if(free_pool_.begin(), free_pool_.end(), [&](Pfn pfn) {
                     return pfn >= region_base && pfn - region_base < region_len;
                   }));
}

Expected<Pfn, FramesError> FramesAllocator::AllocFrameWithColour(DomainId domain, uint64_t colour,
                                                                 uint64_t num_colours) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  Client* c = Find(domain);
  if (c == nullptr) {
    return MakeUnexpected(FramesError::kNotClient);
  }
  RecordAccess(domain);
  NEM_ASSERT(num_colours > 0 && colour < num_colours);
  bool guaranteed_request = false;
  if (auto err = CheckAllocation(*c, &guaranteed_request); err.has_value()) {
    return MakeUnexpected(*err);
  }
  return GrantFree(*c, std::find_if(free_pool_.begin(), free_pool_.end(),
                                    [&](Pfn pfn) { return pfn % num_colours == colour; }));
}

Expected<Pfn, FramesError> FramesAllocator::AllocFrame(DomainId domain) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  Client* c = Find(domain);
  if (c == nullptr) {
    return MakeUnexpected(FramesError::kNotClient);
  }
  RecordAccess(domain);
  bool guaranteed_request = false;
  if (auto err = CheckAllocation(*c, &guaranteed_request); err.has_value()) {
    return MakeUnexpected(*err);
  }

  if (guaranteed_request) {
    return AllocGuaranteed(*c);
  }
  if (!free_pool_.empty()) {
    // CheckAllocation already verified the spare pool covers every
    // outstanding guarantee (and hence every queued waiter's claim).
    return TakeFreeFrame(*c);
  }
  return MakeUnexpected(FramesError::kNoMemory);
}

Expected<Pfn, FramesError> FramesAllocator::AllocGuaranteed(Client& client) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  PruneWaiters();
  if (MayTakeFrame(client.domain)) {
    DropWaiter(client.domain);
    return TakeFreeFrame(client);
  }

  // Under pressure: join the FIFO (freed frames are reserved for the queue in
  // order) and make sure a reclamation is in flight on the queue's behalf.
  if (WaiterPos(client.domain) == kNoPos) {
    guaranteed_waiters_.push_back(client.domain);
  }
  if (!revocation_active_ && free_pool_.size() < guaranteed_waiters_.size()) {
    Client* victim = PickVictim();
    if (victim == nullptr) {
      // Admission control guarantees an optimistic surplus whenever a
      // guarantee is unmet with an empty pool; with frames still free the
      // reserved prefix is simply draining towards us.
      NEM_ASSERT_MSG(!free_pool_.empty(),
                     "admission control violated: guarantee unmet with no optimistic frames in use");
      NoteGuaranteeWait(client.domain);
      return MakeUnexpected(FramesError::kRevocationPending);
    }
    if (ReclaimUnusedTop(*victim, 1) == 1) {
      revocations_transparent_.Inc();
      if (trace_ != nullptr) {
        trace_->Record(sim_.Now(), "frames", static_cast<int>(victim->domain),
                       "revoke-transparent", 1.0, 0.0);
      }
      if (obs_ != nullptr) {
        // Zero-duration span: the victim lost a frame to the requester but
        // was not stalled (the frame was already unused).
        obs_->Span(sim_.Now(), victim->domain, stage::kRevokeTransparent, 0.0, client.domain);
      }
      frames_available_.NotifyAll();
    } else {
      StartIntrusiveRevocation(*victim, 1, client.domain);
    }
    // Either path may have refilled the pool synchronously (transparent
    // reclaim, or the victim complying from inside the notifier); grant now
    // if the FIFO says the frame is ours, so the caller never misses the
    // wakeup.
    if (MayTakeFrame(client.domain)) {
      DropWaiter(client.domain);
      return TakeFreeFrame(client);
    }
  }
  NoteGuaranteeWait(client.domain);
  return MakeUnexpected(FramesError::kRevocationPending);
}

void FramesAllocator::NoteGuaranteeWait(DomainId domain) {
  if (obs_ == nullptr || !obs_->enabled()) {
    return;
  }
  // The requester leaves with kRevocationPending: its guarantee is unmet
  // until a reclaim refills the pool. Attribute the wait to the in-flight
  // revocation victim (the optimistic-surplus holder being squeezed), if any.
  obs_->conformance().OnGuaranteeWaitStart(domain, sim_.Now(),
                                           revocation_active_ ? revocation_victim_ : kNoDomain);
}

size_t FramesAllocator::WaiterPos(DomainId domain) const {
  for (size_t i = 0; i < guaranteed_waiters_.size(); ++i) {
    if (guaranteed_waiters_[i] == domain) {
      return i;
    }
  }
  return kNoPos;
}

void FramesAllocator::DropWaiter(DomainId domain) {
  std::erase(guaranteed_waiters_, domain);
  if (obs_ != nullptr && obs_->enabled()) {
    obs_->conformance().OnGuaranteeWaitEnd(domain, sim_.Now());
  }
}

void FramesAllocator::PruneWaiters() {
  // Lazily drop waiters whose client is gone (killed or deregistered): a dead
  // domain never retries, and its reservation would starve the queue behind
  // it.
  std::erase_if(guaranteed_waiters_, [this](DomainId d) {
    if (Find(d) != nullptr) {
      return false;
    }
    if (obs_ != nullptr && obs_->enabled()) {
      obs_->conformance().OnGuaranteeWaitEnd(d, sim_.Now());
    }
    return true;
  });
}

bool FramesAllocator::MayTakeFrame(DomainId domain) const {
  if (free_pool_.empty()) {
    return false;
  }
  const size_t pos = WaiterPos(domain);
  if (pos == kNoPos) {
    return free_pool_.size() > guaranteed_waiters_.size();
  }
  return pos < free_pool_.size();
}

Status<FramesError> FramesAllocator::FreeFrame(DomainId domain, Pfn pfn) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  Client* c = Find(domain);
  if (c == nullptr) {
    return MakeUnexpected(FramesError::kNotClient);
  }
  RecordAccess(domain);
  if (!ramtab_.ValidPfn(pfn) || ramtab_.OwnerOf(pfn) != domain) {
    return MakeUnexpected(FramesError::kNotOwner);
  }
  if (ramtab_.StateOf(pfn) != FrameState::kUnused) {
    return MakeUnexpected(FramesError::kFrameBusy);
  }
  c->stack.Remove(pfn);
  --c->allocated;
  NEM_ASSERT(c->reclaimable > 0);
  --c->reclaimable;  // the freed frame was kUnused
  ramtab_.SetOwner(pfn, kNoDomain);
  free_pool_.push_back(pfn);
  RefreshAccounting(*c);
  frames_available_.NotifyAll();
  return Status<FramesError>::Ok();
}

uint64_t FramesAllocator::ReclaimUnusedTop(Client& victim, uint64_t k) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  // "the frames allocator can simply reclaim these frames and update the
  // application's frame stack" — but only while the top frames are unused.
  // Sanctioned frame-stealing interface: the allocator touches the victim's
  // stack on another domain's behalf.
  CrossDomainSection cross(access_checker_);
  uint64_t reclaimed = 0;
  while (reclaimed < k && !victim.stack.empty()) {
    const Pfn top = victim.stack.Top();
    if (ramtab_.StateOf(top) != FrameState::kUnused) {
      break;
    }
    victim.stack.PopTop();
    --victim.allocated;
    NEM_ASSERT(victim.reclaimable > 0);
    --victim.reclaimable;  // the stolen frame was kUnused
    ramtab_.SetOwner(top, kNoDomain);
    free_pool_.push_back(top);
    ++reclaimed;
  }
  if (reclaimed > 0) {
    RefreshAccounting(victim);
  }
  return reclaimed;
}

FramesAllocator::Client* FramesAllocator::PickVictim() {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  // "the frames allocator chooses a candidate application (i.e. one which
  // currently has optimistically allocated frames)" — take the one with the
  // largest optimistic surplus. A domain already mid-revocation is skipped
  // (re-picking it would either assert or stall behind its own deadline), and
  // a candidate whose frames are all nailed can only yield frames via the
  // kill path, so it loses to any candidate with a reclaimable frame.
  uint32_t excluded = kNoHeapHandle;
  if (revocation_active_ && revocation_victim_ < domain_to_index_.size()) {
    excluded = domain_to_index_[revocation_victim_];
  }
  uint32_t pick = victims_reclaimable_.TopExcluding(excluded);
  if (pick == kNoHeapHandle) {
    pick = victims_nailed_.TopExcluding(excluded);
  }
  return pick == kNoHeapHandle ? nullptr : clients_[pick].get();
}

DomainId FramesAllocator::PeekVictim() {
  Client* victim = PickVictim();
  return victim != nullptr ? victim->domain : kNoDomain;
}

void FramesAllocator::StartIntrusiveRevocation(Client& victim, uint64_t k, DomainId aggressor) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  // Only one intrusive revocation may be in flight: a second start would
  // clobber revocation_timer_ and the notifier context, leaving the first
  // victim's deadline armed against the wrong state. Callers gate on
  // revocation_in_progress() and queue behind frames_available().
  NEM_ASSERT_MSG(!revocation_active_,
                 "overlapping intrusive revocations: a second StartIntrusiveRevocation would "
                 "clobber the in-flight timer/notifier state");
  // Sanctioned: the notifier may run the victim's revocation handler
  // synchronously, inside the requester's access window.
  CrossDomainSection cross(access_checker_);
  revocation_active_ = true;
  revocation_victim_ = victim.domain;
  revocation_k_ = k;
  revocation_aggressor_ = aggressor;
  revocation_started_ = sim_.Now();
  revocations_intrusive_.Inc();
  const SimTime deadline = sim_.Now() + revocation_timeout_;
  if (trace_ != nullptr) {
    trace_->Record(sim_.Now(), "frames", static_cast<int>(victim.domain), "revoke-intrusive",
                   static_cast<double>(k), ToMilliseconds(deadline));
  }
  if (obs_ != nullptr) {
    obs_->Span(sim_.Now(), victim.domain, stage::kRevokeStart, 0.0, aggressor);
    obs_->conformance().OnRevocationStart(victim.domain, sim_.Now(), aggressor);
  }
  NEM_LOG_DEBUG("frames", "intrusive revocation: victim=%u k=%llu deadline=%.2fms", victim.domain,
                static_cast<unsigned long long>(k), ToMilliseconds(deadline));
  const DomainId victim_id = victim.domain;
  revocation_timer_ = sim_.CallAt(deadline, [this, victim_id] {
    FinishRevocation(victim_id, /*deadline_expired=*/true);
  });
  if (revocation_notifier_) {
    revocation_notifier_(victim.domain, k, deadline);
  }
}

void FramesAllocator::RevocationComplete(DomainId domain) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  if (!revocation_active_ || revocation_victim_ != domain) {
    return;
  }
  RecordAccess(domain);
  sim_.Cancel(revocation_timer_);
  revocation_timer_ = 0;
  FinishRevocation(domain, /*deadline_expired=*/false);
}

void FramesAllocator::FinishRevocation(DomainId victim_id, bool deadline_expired) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  if (!revocation_active_ || revocation_victim_ != victim_id) {
    return;
  }
  revocation_active_ = false;
  revocation_victim_ = kNoDomain;
  revocation_timer_ = 0;
  const DomainId aggressor = revocation_aggressor_;
  revocation_aggressor_ = kNoDomain;
  if (obs_ != nullptr) {
    // The intrusive-revocation window: from revoke-start to here. Victim
    // fault spans overlapping this window are stalls induced by `aggressor`.
    obs_->Span(revocation_started_, victim_id, stage::kRevokeEnd,
               ToMilliseconds(sim_.Now() - revocation_started_), aggressor);
    obs_->conformance().OnRevocationEnd(victim_id, sim_.Now());
  }
  Client* victim = Find(victim_id);
  if (victim == nullptr) {
    frames_available_.NotifyAll();
    return;
  }
  const uint64_t reclaimed = ReclaimUnusedTop(*victim, revocation_k_);
  if (reclaimed < revocation_k_) {
    // "If these are not all unused, or if the application fails to reply by
    // time T, the domain is killed and all of its frames reclaimed."
    NEM_LOG_WARN("frames", "victim %u failed revocation (%s): killing", victim_id,
                 deadline_expired ? "deadline expired" : "frames still in use");
    if (trace_ != nullptr) {
      trace_->Record(sim_.Now(), "frames", static_cast<int>(victim_id), "kill",
                     static_cast<double>(reclaimed), static_cast<double>(revocation_k_));
    }
    domains_killed_.Inc();
    if (obs_ != nullptr) {
      obs_->Span(sim_.Now(), victim_id, stage::kRevokeKill, 0.0, aggressor);
      obs_->conformance().OnKill(victim_id, sim_.Now(), aggressor);
    }
    if (kill_handler_) {
      kill_handler_(victim_id);
    }
    KillAndReclaim(*victim);
  }
  frames_available_.NotifyAll();
}

void FramesAllocator::KillAndReclaim(Client& victim) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  // A dead domain can neither retry its queued request nor comply with a
  // pending revocation: drop its reservation, and if it is the in-flight
  // revocation victim, cancel the deadline timer so FinishRevocation never
  // fires against a reclaimed client (or a later re-admission of the same
  // domain id).
  DropWaiter(victim.domain);
  if (revocation_active_ && revocation_victim_ == victim.domain) {
    sim_.Cancel(revocation_timer_);
    revocation_timer_ = 0;
    revocation_active_ = false;
    revocation_victim_ = kNoDomain;
    const DomainId aggressor = revocation_aggressor_;
    revocation_aggressor_ = kNoDomain;
    revocations_cancelled_.Inc();
    if (trace_ != nullptr) {
      trace_->Record(sim_.Now(), "frames", static_cast<int>(victim.domain), "revoke-cancel", 0.0,
                     0.0);
    }
    if (obs_ != nullptr) {
      // Close the revocation window at teardown so the span ledger balances
      // (every revoke-start gets a revoke-end even when the victim dies).
      obs_->Span(revocation_started_, victim.domain, stage::kRevokeEnd,
                 ToMilliseconds(sim_.Now() - revocation_started_), aggressor);
      obs_->conformance().OnRevocationEnd(victim.domain, sim_.Now());
    }
  }
  // Sanctioned: teardown strips another domain's frames and mappings.
  CrossDomainSection cross(access_checker_);
  // Reclaim every frame, forcibly tearing down live mappings. A nailed frame
  // can still carry a live translation (SetNailed preserves mapped_vpn for
  // nailed-while-mapped frames), so teardown keys off the recorded mapping
  // rather than the kMapped state — leaving the PTE valid here would let the
  // stale mapping point at a frame the next owner writes to.
  while (!victim.stack.empty()) {
    const Pfn pfn = victim.stack.PopTop();
    const Vpn mapped_vpn = ramtab_.Get(pfn).mapped_vpn;
    if (ramtab_.StateOf(pfn) != FrameState::kUnused && mapped_vpn != 0 && force_unmap_) {
      force_unmap_(mapped_vpn);
    }
    ramtab_.SetUnused(pfn);
    ramtab_.SetOwner(pfn, kNoDomain);
    free_pool_.push_back(pfn);
  }
  victim.allocated = 0;
  victim.reclaimable = 0;
  guaranteed_total_ -= victim.contract.guaranteed;
  victim.alive = false;
  domain_to_index_[victim.domain] = kNoHeapHandle;
  RefreshAccounting(victim);
  frames_available_.NotifyAll();
}

void FramesAllocator::ForEachClient(const std::function<void(const ClientView&)>& fn) const {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  for (const auto& c : clients_) {
    if (!c->alive) {
      continue;
    }
    fn(ClientView{c->domain, c->contract, c->allocated, &c->stack});
  }
}

FrameStack* FramesAllocator::StackOf(DomainId domain) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  Client* c = Find(domain);
  return c != nullptr ? &c->stack : nullptr;
}

uint64_t FramesAllocator::AllocatedCount(DomainId domain) const {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  const Client* c = Find(domain);
  return c != nullptr ? c->allocated : 0;
}

FramesContract FramesAllocator::ContractOf(DomainId domain) const {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  const Client* c = Find(domain);
  return c != nullptr ? c->contract : FramesContract{};
}

void FramesAllocator::TestOnlyCorruptReclaimable(DomainId domain, int64_t delta) {
  Client* c = Find(domain);
  if (c != nullptr) {
    c->reclaimable = static_cast<uint64_t>(static_cast<int64_t>(c->reclaimable) + delta);
  }
}

std::string FramesAllocator::AuditIndexes() const {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  uint64_t outstanding = 0;
  size_t reclaimable_victims = 0;
  size_t nailed_victims = 0;
  for (const auto& c : clients_) {
    if (!c->alive) {
      continue;
    }
    const std::string who = "frames client " + std::to_string(c->domain) + ": ";
    if (c->domain >= domain_to_index_.size() || domain_to_index_[c->domain] != c->index) {
      return who + "domain->index map does not point at the live client";
    }
    uint64_t ground_truth = 0;
    for (const Pfn pfn : c->stack.frames()) {
      if (ramtab_.StateOf(pfn) != FrameState::kNailed) {
        ++ground_truth;
      }
    }
    if (ground_truth != c->reclaimable) {
      return who + "reclaimable counter " + std::to_string(c->reclaimable) +
             " != RamTab/FrameStack rescan " + std::to_string(ground_truth);
    }
    const uint64_t want =
        c->allocated < c->contract.guaranteed ? c->contract.guaranteed - c->allocated : 0;
    if (want != c->outstanding) {
      return who + "cached outstanding-guarantee contribution is stale";
    }
    outstanding += want;
    const bool candidate = c->allocated > c->contract.guaranteed;
    const bool in_reclaimable = victims_reclaimable_.Contains(c->index);
    const bool in_nailed = victims_nailed_.Contains(c->index);
    const bool expect_reclaimable = candidate && c->reclaimable > 0;
    const bool expect_nailed = candidate && c->reclaimable == 0;
    if (in_reclaimable != expect_reclaimable || in_nailed != expect_nailed) {
      return who + "victim-index membership disagrees with surplus/reclaimable state";
    }
    const VictimKey key{~(c->allocated - c->contract.guaranteed), c->index};
    if (expect_reclaimable && victims_reclaimable_.KeyOf(c->index) != key) {
      return who + "victim-index key disagrees with (~surplus, admission index)";
    }
    if (expect_nailed && victims_nailed_.KeyOf(c->index) != key) {
      return who + "victim-index key disagrees with (~surplus, admission index)";
    }
    reclaimable_victims += expect_reclaimable ? 1 : 0;
    nailed_victims += expect_nailed ? 1 : 0;
  }
  if (outstanding != guaranteed_outstanding_) {
    return "outstanding-guarantee sum " + std::to_string(guaranteed_outstanding_) +
           " != per-client rescan " + std::to_string(outstanding);
  }
  if (!victims_reclaimable_.SelfCheck() || !victims_nailed_.SelfCheck()) {
    return "victim-heap structure corrupt";
  }
  if (victims_reclaimable_.size() != reclaimable_victims ||
      victims_nailed_.size() != nailed_victims) {
    return "a victim index holds entries for dead or surplus-free clients";
  }
  return "";
}

}  // namespace nemesis
