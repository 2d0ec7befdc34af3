// Cross-layer invariant auditor: the executable form of the paper's isolation
// contract (see DESIGN.md "Checked builds and the isolation contract").
//
// The memory system spreads one logical state across five structures — the
// frames allocator's accounting, the per-domain frame stacks, the RamTab, the
// page table and the TLB — plus the MMU-internal walk/rights caches layered
// on top by the fast-path work. The auditor walks all of them and checks that
// they tell the same story:
//
//   contract-sum     Σ guaranteed over live clients == the allocator's
//                    guaranteed_total, and that total ≤ physical frames
//                    (paper §6.2 admission control).
//   conservation     free frames + Σ allocated == total frames; every
//                    client's stack holds exactly its allocated count.
//   ramtab-owner     every RamTab entry agrees with the allocator: unowned ⇔
//                    free-listed; owned ⇔ on exactly that client's stack.
//   stretch-pte      every page of every stretch has a PTE carrying the
//                    stretch's sid; a valid PTE maps a frame the stretch's
//                    owning domain owns, with the RamTab backlink
//                    (mapped_vpn) pointing at that page.
//   ramtab-backlink  every mapped (or nailed-while-mapped) frame's recorded
//                    vpn names a valid PTE mapping it back.
//   pdom-rights      the owning protection domain still holds an entry for
//                    each live stretch, PTE global rights never exceed it,
//                    and no protection domain holds rights on a dead sid.
//   tlb-derivable    every valid TLB entry is derivable from the current
//                    page table (pfn, sid and global rights all match).
//   pte-liveness     (full depth only) every allocated PTE in the page table
//                    belongs to a live stretch — a whole-table sweep, so it
//                    runs at phase boundaries rather than per event batch.
//   indexed-structures (full depth only) the incrementally-maintained indexes
//                    behind the O(1)/O(log n) hot paths — the allocator's
//                    reclaimable counters, victim heaps, outstanding-guarantee
//                    sum and free-frame index, and each registered scheduler's
//                    EDF/extra-time heaps — must agree with a ground-truth
//                    rescan of the linear state they summarise.
//   usd-batch-charge (only when a USD is registered) the time the USD charged
//                    clients for chained (batched) transactions equals the
//                    disk busy time those chains produced, exactly — batching
//                    must not create or destroy accounted time.
//
// Fast-depth audits are O(stretch pages + frames + TLB), cheap enough to run
// after every event-loop batch in NEMESIS_AUDIT builds.
#ifndef SRC_CHECK_INVARIANTS_H_
#define SRC_CHECK_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mm/frames_allocator.h"
#include "src/mm/stretch_allocator.h"
#include "src/mm/translation.h"

namespace nemesis {

class AtroposScheduler;
class Usd;

struct AuditViolation {
  const char* rule = "";  // stable rule tag, e.g. "ramtab-owner"
  std::string detail;     // human-readable specifics (ids, pfns, vpns)
};

struct AuditReport {
  std::vector<AuditViolation> violations;

  bool ok() const { return violations.empty(); }
  bool HasRule(const char* rule) const;
  std::string Summary() const;
};

class InvariantAuditor {
 public:
  enum class Depth {
    kFast,  // stretch-directed: skips the whole-page-table sweep
    kFull,  // adds pte-liveness (O(allocated PTEs))
  };

  InvariantAuditor(const FramesAllocator& frames, const RamTab& ramtab, const Mmu& mmu,
                   const StretchAllocator& stretches, const TranslationSystem& translation)
      : frames_(frames), ramtab_(ramtab), mmu_(mmu), stretches_(stretches),
        translation_(translation) {}

  // Opts the USD's batch accounting into the audit (the usd-batch-charge
  // rule). Optional: systems without a USD simply skip the rule.
  void RegisterUsd(const Usd* usd) { usd_ = usd; }

  // Opts a scheduler's EDF/extra-time indexes into the indexed-structures
  // rule (full depth). May be called once per scheduler instance.
  void RegisterScheduler(const AtroposScheduler* sched) { schedulers_.push_back(sched); }

  // Runs all rules and returns the violations found. Reuses internal scratch
  // space, so a steady-state audit allocates nothing once warmed up.
  AuditReport Audit(Depth depth = Depth::kFast);

  // Audit that NEM_ASSERTs (with the full summary on stderr) on violation;
  // the event-loop hook in NEMESIS_AUDIT builds.
  void AuditOrDie(Depth depth = Depth::kFast);

  uint64_t audits_run() const { return audits_run_; }

 private:
  void CheckContracts(AuditReport& report);
  void CheckRamTabOwnership(AuditReport& report);
  void CheckStretchPtes(AuditReport& report);
  void CheckRamTabBacklinks(AuditReport& report);
  void CheckPdomRights(AuditReport& report);
  void CheckTlb(AuditReport& report);
  void CheckPteLiveness(AuditReport& report);
  void CheckIndexedStructures(AuditReport& report);
  void CheckUsdBatchCharge(AuditReport& report);

  const FramesAllocator& frames_;
  const RamTab& ramtab_;
  const Mmu& mmu_;
  const StretchAllocator& stretches_;
  const TranslationSystem& translation_;
  const Usd* usd_ = nullptr;
  std::vector<const AtroposScheduler*> schedulers_;

  // Scratch, rebuilt per audit (sized to the physical frame count / sid
  // space once, then reused).
  std::vector<uint8_t> frame_flags_;  // per-pfn: bit0 free-listed, bit1 on a stack
  std::vector<uint32_t> frame_stack_owner_;
  std::vector<uint8_t> live_sids_;
  uint64_t audits_run_ = 0;
};

}  // namespace nemesis

#endif  // SRC_CHECK_INVARIANTS_H_
