// The frames allocator (paper §6.2): centralised physical-memory allocation
// with per-domain contracts of guaranteed and optimistic frames.
//
// * Admission control: the sum of all guarantees must not exceed main memory,
//   so every client's guarantee can be met simultaneously.
// * While a client holds fewer frames than its guarantee g, a single-frame
//   request is guaranteed to succeed — if no frame is free, the allocator
//   revokes an optimistically-allocated frame from a victim domain.
// * Transparent revocation reclaims unused frames straight off the top of the
//   victim's frame stack. Intrusive revocation notifies the victim, which
//   must arrange for the top k frames of its stack to be unused (possibly
//   cleaning dirty pages first) by a deadline T (default 100 ms); a victim
//   that fails to comply is killed and all its frames reclaimed.
//
// The central decisions stay O(1)/O(log n) at fleet density instead of
// rescanning every client and frame:
//
// * per-client reclaimable (non-nailed) frame counters, maintained by the
//   allocator's own grant/free/steal paths plus the RamTab's nail-transition
//   observer, sort victim candidates without walking their frame stacks;
// * two victim heaps keyed (~surplus, admission index) — candidates with a
//   reclaimable frame, and fully-nailed candidates (the kill-path fallback) —
//   make PickVictim a top-of-heap read that skips the in-flight revocation
//   victim; ties in surplus go to the earliest-admitted client;
// * an incrementally-maintained sum of unmet guarantees makes the optimistic
//   admission check O(1);
// * the free list is a vector in push order: a grant pops the back and a
//   free or reclaim pushes onto it, both O(1); the placement allocators
//   (which no System workload calls) scan it for the first match.
//
// tests/equivalence_test.cc checks every victim, granted pfn and placement
// against a brute-force scan over the public views (ForEachClient,
// ForEachFreeFrame, the RamTab).
#ifndef SRC_MM_FRAMES_ALLOCATOR_H_
#define SRC_MM_FRAMES_ALLOCATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/expected.h"
#include "src/base/indexed_heap.h"
#include "src/base/thread_annotations.h"
#include "src/check/domain_access.h"
#include "src/kernel/ramtab.h"
#include "src/mm/frame_stack.h"
#include "src/obs/counter.h"
#include "src/sim/sync.h"
#include "src/sim/trace.h"

namespace nemesis {

class Obs;

// Contract (g, x): quotas for guaranteed and optimistic frames.
struct FramesContract {
  uint64_t guaranteed = 0;
  uint64_t optimistic = 0;  // additional frames beyond the guarantee

  uint64_t limit() const { return guaranteed + optimistic; }
};

enum class FramesError {
  kNotClient,
  kAlreadyClient,
  kAdmissionFailed,     // sum of guarantees would exceed memory
  kQuotaExceeded,       // request beyond g + x
  kNoMemory,            // optimistic request and no free memory
  kRevocationPending,   // guaranteed request; wait on frames_available()
  kFrameBusy,           // freeing a frame that is still mapped/nailed
  kNotOwner,
};

class FramesAllocator {
 public:
  FramesAllocator(Simulator& sim, RamTab& ramtab, uint64_t total_frames,
                  TraceRecorder* trace = nullptr);
  ~FramesAllocator();

  // --- Client management ---------------------------------------------------

  Status<FramesError> AdmitClient(DomainId domain, FramesContract contract);
  Status<FramesError> RemoveClient(DomainId domain);
  bool IsClient(DomainId domain) const;

  // --- Allocation ----------------------------------------------------------

  // Allocates one frame. Returns kRevocationPending when the caller must wait
  // on frames_available() and retry. Guaranteed requesters that hit memory
  // pressure join a FIFO waiter queue; freed frames are reserved for the
  // queue head(s), so every retry makes progress within |queue| revocations
  // even under a storm of concurrent guaranteed requests (no starvation, no
  // newcomer stealing a freed frame from an older waiter).
  Expected<Pfn, FramesError> AllocFrame(DomainId domain);

  // Fine-grained placement (paper §6.2: "A domain may request specific
  // physical frames, or frames within a 'special' region. This allows an
  // application with platform knowledge to make use of page colouring, or to
  // take advantage of superpage TLB mappings"). Placement requests never
  // trigger revocation: as the paper's footnote notes, fragmentation means
  // such requests may fail even under the guarantee.
  Expected<Pfn, FramesError> AllocSpecificFrame(DomainId domain, Pfn pfn);
  Expected<Pfn, FramesError> AllocFrameInRegion(DomainId domain, Pfn region_base,
                                                uint64_t region_len);
  // Page-colouring helper: any free frame with pfn % num_colours == colour.
  Expected<Pfn, FramesError> AllocFrameWithColour(DomainId domain, uint64_t colour,
                                                  uint64_t num_colours);

  // Returns an (unused) frame to the allocator.
  Status<FramesError> FreeFrame(DomainId domain, Pfn pfn);

  // --- Revocation protocol -------------------------------------------------

  // Application side: called when the victim has arranged for the top k
  // frames of its stack to be unused ("Application B replies that all is now
  // ready").
  void RevocationComplete(DomainId domain);

  // Notifier invoked (synchronously) when an intrusive revocation starts;
  // wired by the system to the victim's MMEntry event path.
  using RevocationNotifier = std::function<void(DomainId victim, uint64_t k, SimTime deadline)>;
  void set_revocation_notifier(RevocationNotifier notifier) {
    revocation_notifier_ = std::move(notifier);
  }

  // Invoked when a victim misses its deadline and is killed.
  using KillHandler = std::function<void(DomainId victim)>;
  void set_kill_handler(KillHandler handler) { kill_handler_ = std::move(handler); }

  // Hook used to forcibly tear down a mapping when reclaiming frames from a
  // killed domain (wired by the system to PTE/TLB teardown).
  using ForceUnmap = std::function<void(Vpn vpn)>;
  void set_force_unmap(ForceUnmap fn) { force_unmap_ = std::move(fn); }

  void set_revocation_timeout(SimDuration t) { revocation_timeout_ = t; }

  // Signalled whenever frames become available (after revocation or free).
  Condition& frames_available() { return frames_available_; }

  // --- Introspection -------------------------------------------------------

  // Read-only per-client snapshot for the invariant auditor and debug dumps.
  struct ClientView {
    DomainId domain = kNoDomain;
    FramesContract contract;
    uint64_t allocated = 0;
    const FrameStack* stack = nullptr;
  };
  void ForEachClient(const std::function<void(const ClientView&)>& fn) const;

  FrameStack* StackOf(DomainId domain);
  uint64_t AllocatedCount(DomainId domain) const;  // n
  FramesContract ContractOf(DomainId domain) const;
  // Visits every free frame in list (push) order.
  template <typename Fn>
  void ForEachFreeFrame(Fn fn) const {
    for (Pfn pfn : free_pool_) {
      fn(pfn);
    }
  }
  uint64_t free_frames() const { return free_pool_.size(); }
  uint64_t total_frames() const { return total_frames_; }
  uint64_t guaranteed_total() const { return guaranteed_total_; }
  uint64_t revocations_transparent() const { return revocations_transparent_.value(); }
  uint64_t revocations_intrusive() const { return revocations_intrusive_.value(); }
  uint64_t domains_killed() const { return domains_killed_.value(); }
  uint64_t revocations_cancelled() const { return revocations_cancelled_.value(); }
  bool revocation_in_progress() const { return revocation_active_; }
  // Guaranteed requesters currently queued for a reserved frame (tests).
  size_t guaranteed_waiters() const { return guaranteed_waiters_.size(); }

  // The domain PickVictim would choose right now (kNoDomain when none).
  // Read-only: the equivalence suite compares it with its reference scan
  // without running a revocation.
  DomainId PeekVictim();

  // Observability hook; revoke-* spans (victim as client, aggressor in
  // value_b) are emitted only while obs->enabled().
  void set_obs(Obs* obs) { obs_ = obs; }

  // Wires the ownership/race checker (audit builds). Null disables recording.
  void set_access_checker(DomainAccessChecker* checker);

  // Audit cross-check (the invariant auditor's indexed-structures rule):
  // reclaimable counters, victim heaps and the outstanding-guarantee sum
  // must agree with a ground-truth RamTab/FrameStack rescan. Returns "" when clean, else the first mismatch.
  std::string AuditIndexes() const;

  // Corrupts the guarantee accounting. The contract-sum invariant is
  // unreachable through the public API (admission control rejects the
  // overcommit), so the auditor's unit test needs this back door.
  void TestOnlySetGuaranteedTotal(uint64_t total) { guaranteed_total_ = total; }

  // Corrupts a client's reclaimable counter (same rationale: counter drift is
  // unreachable through the public API; the indexed-structures audit rule's
  // unit test needs a back door).
  void TestOnlyCorruptReclaimable(DomainId domain, int64_t delta);

 private:
  struct Client {
    DomainId domain;
    FramesContract contract;
    uint64_t allocated = 0;  // n
    FrameStack stack;
    bool alive = true;
    // Indexed-accounting state.
    uint32_t index = 0;        // slot in clients_ == admission order
    uint64_t reclaimable = 0;  // owned frames not currently kNailed
    uint64_t outstanding = 0;  // cached max(0, g - allocated) contribution
  };

  // Victim-heap key: smallest-first order realising "largest optimistic
  // surplus, ties to the earliest-admitted client".
  using VictimKey = std::pair<uint64_t, uint64_t>;  // (~surplus, admission index)

  Client* Find(DomainId domain);
  const Client* Find(DomainId domain) const;
  Pfn TakeFreeFrame(Client& client);
  // Quota/guarantee admission shared by all allocation flavours. Sets
  // *guaranteed_request and returns an error when the request may not proceed.
  std::optional<FramesError> CheckAllocation(const Client& client, bool* guaranteed_request) const;
  // Removes the free frame at `it` from the pool and grants it (kNoMemory
  // when `it` is the pool's end).
  Expected<Pfn, FramesError> GrantFree(Client& client, std::vector<Pfn>::iterator it);
  // Reclaims up to `k` unused frames from the top of the victim's stack.
  uint64_t ReclaimUnusedTop(Client& victim, uint64_t k);
  // Picks the domain holding the most optimistic frames. Skips the victim of
  // the in-flight revocation and prefers candidates that hold at least one
  // reclaimable (non-nailed) frame; a fully-nailed candidate is only returned
  // as a last resort (the kill path), never picked over a compliant victim.
  Client* PickVictim();
  // Recomputes the client's contribution to the outstanding-guarantee sum
  // and its victim-heap membership/keys. The single maintenance point: every
  // path that changes allocated/reclaimable/alive ends with a call.
  void RefreshAccounting(Client& c);
  // RamTab nail-transition observer: mirrors kNailed entries/exits into the
  // owning client's reclaimable counter.
  void OnNailChanged(Pfn pfn, DomainId owner, bool nailed);
  // FIFO waiter-queue helpers (guaranteed-progress reservations).
  static constexpr size_t kNoPos = SIZE_MAX;
  size_t WaiterPos(DomainId domain) const;
  void DropWaiter(DomainId domain);
  void PruneWaiters();
  // Conformance probe: the requester is leaving with kRevocationPending.
  void NoteGuaranteeWait(DomainId domain);
  // True when `domain` may take a free frame now: it is within the reserved
  // FIFO prefix, or spare frames exist beyond every queued waiter's claim.
  bool MayTakeFrame(DomainId domain) const;
  // Guaranteed-request slow path: reservation check, queue join, revocation.
  Expected<Pfn, FramesError> AllocGuaranteed(Client& client);
  // `aggressor` is the domain whose allocation forced the revocation; it is
  // carried into the revoke-* spans so crosstalk can be attributed.
  void StartIntrusiveRevocation(Client& victim, uint64_t k, DomainId aggressor);
  void FinishRevocation(DomainId victim, bool deadline_expired);
  void KillAndReclaim(Client& victim);

  void RecordAccess(DomainId domain) {
    if (access_checker_ != nullptr) {
      access_checker_->Record(SharedStructure::kFramesAllocator, domain);
    }
  }

  Simulator& sim_;
  RamTab& ramtab_;
  TraceRecorder* trace_;
  Obs* obs_ = nullptr;
  DomainAccessChecker* access_checker_ = nullptr;
  uint64_t total_frames_;
  // Contract accounting and the frame stacks are the allocator's shared core:
  // under the threaded design they are only written inside the system
  // domain's serialized section (or its cross-domain revocation interface).
  uint64_t guaranteed_total_ NEM_GUARDED_BY(g_system_domain) = 0;
  // Sum of max(0, g - allocated) over live clients: the O(1) form of the
  // optimistic-admission check (the audit cross-checks it).
  uint64_t guaranteed_outstanding_ NEM_GUARDED_BY(g_system_domain) = 0;
  std::vector<Pfn> free_pool_ NEM_GUARDED_BY(g_system_domain);
  std::vector<std::unique_ptr<Client>> clients_ NEM_GUARDED_BY(g_system_domain);
  // domain id -> clients_ index (kNoHeapHandle when not a live client).
  std::vector<uint32_t> domain_to_index_ NEM_GUARDED_BY(g_system_domain);
  // Victim indexes over live clients with an optimistic surplus, split by
  // whether any owned frame is reclaimable (see PickVictim).
  IndexedHeap<VictimKey> victims_reclaimable_ NEM_GUARDED_BY(g_system_domain);
  IndexedHeap<VictimKey> victims_nailed_ NEM_GUARDED_BY(g_system_domain);
  Condition frames_available_;

  // Guaranteed requesters waiting for a frame, oldest first. While the queue
  // is non-empty, up to |queue| free frames are reserved for the queued
  // domains in FIFO order; KillAndReclaim and PruneWaiters drop dead entries
  // so a torn-down waiter can never pin a reservation.
  std::deque<DomainId> guaranteed_waiters_ NEM_GUARDED_BY(g_system_domain);

  // Intrusive-revocation state (one at a time, as requests are serialised
  // through the system domain; StartIntrusiveRevocation asserts it).
  bool revocation_active_ = false;
  DomainId revocation_victim_ = kNoDomain;
  uint64_t revocation_k_ = 0;
  uint64_t revocation_timer_ = 0;
  SimDuration revocation_timeout_ = Milliseconds(100);
  // Span attribution for the in-flight intrusive revocation.
  DomainId revocation_aggressor_ = kNoDomain;
  SimTime revocation_started_ = 0;

  RevocationNotifier revocation_notifier_;
  KillHandler kill_handler_;
  ForceUnmap force_unmap_;

  StatCounter revocations_transparent_;
  StatCounter revocations_intrusive_;
  StatCounter revocations_cancelled_;  // victim torn down mid-revocation
  StatCounter domains_killed_;
};

}  // namespace nemesis

#endif  // SRC_MM_FRAMES_ALLOCATOR_H_
