#include "src/check/invariants.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <string_view>

#include "src/base/assert.h"
#include "src/sched/atropos.h"
#include "src/usd/usd.h"

namespace nemesis {

namespace {

// Per-pfn scratch flags for the ownership cross-check.
constexpr uint8_t kOnFreeList = 1u << 0;
constexpr uint8_t kOnStack = 1u << 1;

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

void Add(AuditReport& report, const char* rule, std::string detail) {
  report.violations.push_back(AuditViolation{rule, std::move(detail)});
}

}  // namespace

bool AuditReport::HasRule(const char* rule) const {
  for (const AuditViolation& v : violations) {
    if (std::string_view(v.rule) == rule) {
      return true;
    }
  }
  return false;
}

std::string AuditReport::Summary() const {
  if (violations.empty()) {
    return "audit clean";
  }
  std::string out = Format("%zu invariant violation(s):", violations.size());
  for (const AuditViolation& v : violations) {
    out += Format("\n  [%s] ", v.rule);
    out += v.detail;
  }
  return out;
}

AuditReport InvariantAuditor::Audit(Depth depth) {
  ++audits_run_;
  AuditReport report;
  CheckContracts(report);
  CheckRamTabOwnership(report);
  CheckStretchPtes(report);
  CheckRamTabBacklinks(report);
  CheckPdomRights(report);
  CheckTlb(report);
  CheckUsdBatchCharge(report);
  if (depth == Depth::kFull) {
    CheckPteLiveness(report);
    CheckIndexedStructures(report);
  }
  return report;
}

// indexed-structures: the incrementally-maintained indexes behind the
// O(1)/O(log n) hot paths must agree with a ground-truth rescan of the linear
// state they summarise. AuditIndexes() walks every client/frame, so the rule
// runs at full depth (phase boundaries) like pte-liveness.
void InvariantAuditor::CheckIndexedStructures(AuditReport& report) {
  if (std::string mismatch = frames_.AuditIndexes(); !mismatch.empty()) {
    Add(report, "indexed-structures", std::move(mismatch));
  }
  for (const AtroposScheduler* sched : schedulers_) {
    if (std::string mismatch = sched->AuditIndexes(); !mismatch.empty()) {
      Add(report, "indexed-structures", std::move(mismatch));
    }
  }
}

// usd-batch-charge: chained transactions must charge exactly the disk busy
// time they produced — batching is a throughput optimisation, not a way to
// create or destroy accounted time.
void InvariantAuditor::CheckUsdBatchCharge(AuditReport& report) {
  if (usd_ == nullptr) {
    return;
  }
  if (usd_->batch_charged() != usd_->batch_busy()) {
    Add(report, "usd-batch-charge",
        Format("batched charge %" PRId64 " ns != disk busy %" PRId64 " ns over %" PRIu64
               " batches",
               usd_->batch_charged(), usd_->batch_busy(), usd_->batches()));
  }
}

void InvariantAuditor::AuditOrDie(Depth depth) {
  const AuditReport report = Audit(depth);
  if (!report.ok()) {
    std::fprintf(stderr, "InvariantAuditor: %s\n", report.Summary().c_str());
    NEM_ASSERT_MSG(false, "memory-model invariant violated (see audit summary above)");
  }
}

// contract-sum + conservation: the allocator's own accounting.
void InvariantAuditor::CheckContracts(AuditReport& report) {
  uint64_t guaranteed_sum = 0;
  uint64_t allocated_sum = 0;
  frames_.ForEachClient([&](const FramesAllocator::ClientView& c) {
    guaranteed_sum += c.contract.guaranteed;
    allocated_sum += c.allocated;
    if (c.stack->size() != c.allocated) {
      Add(report, "conservation",
          Format("domain %u: stack holds %zu frames but allocated=%" PRIu64, c.domain,
                 c.stack->size(), c.allocated));
    }
  });
  if (guaranteed_sum != frames_.guaranteed_total()) {
    Add(report, "contract-sum",
        Format("sum of live guarantees %" PRIu64 " != allocator guaranteed_total %" PRIu64,
               guaranteed_sum, frames_.guaranteed_total()));
  }
  if (frames_.guaranteed_total() > frames_.total_frames()) {
    Add(report, "contract-sum",
        Format("guaranteed_total %" PRIu64 " exceeds physical frames %" PRIu64,
               frames_.guaranteed_total(), frames_.total_frames()));
  }
  if (frames_.free_frames() + allocated_sum != frames_.total_frames()) {
    Add(report, "conservation",
        Format("free %" PRIu64 " + allocated %" PRIu64 " != total %" PRIu64,
               frames_.free_frames(), allocated_sum, frames_.total_frames()));
  }
}

// ramtab-owner: RamTab owner ⇔ free list / frame stacks, both directions.
void InvariantAuditor::CheckRamTabOwnership(AuditReport& report) {
  const uint64_t total = frames_.total_frames();
  frame_flags_.assign(total, 0);
  frame_stack_owner_.assign(total, kNoDomain);

  frames_.ForEachFreeFrame([&](Pfn pfn) {
    if (pfn >= total) {
      Add(report, "ramtab-owner", Format("free list holds out-of-range pfn %" PRIu64, pfn));
      return;
    }
    if ((frame_flags_[pfn] & kOnFreeList) != 0) {
      Add(report, "ramtab-owner", Format("pfn %" PRIu64 " on free list twice", pfn));
    }
    frame_flags_[pfn] |= kOnFreeList;
  });
  frames_.ForEachClient([&](const FramesAllocator::ClientView& c) {
    for (Pfn pfn : c.stack->frames()) {
      if (pfn >= total) {
        Add(report, "ramtab-owner",
            Format("domain %u stack holds out-of-range pfn %" PRIu64, c.domain, pfn));
        continue;
      }
      if ((frame_flags_[pfn] & kOnStack) != 0) {
        Add(report, "ramtab-owner",
            Format("pfn %" PRIu64 " on two frame stacks (domains %u and %u)", pfn,
                   frame_stack_owner_[pfn], c.domain));
      }
      frame_flags_[pfn] |= kOnStack;
      frame_stack_owner_[pfn] = c.domain;
    }
  });

  for (Pfn pfn = 0; pfn < total; ++pfn) {
    const RamTabEntry& entry = ramtab_.Get(pfn);
    const uint8_t flags = frame_flags_[pfn];
    if (entry.owner == kNoDomain) {
      if (entry.state != FrameState::kUnused) {
        Add(report, "ramtab-owner",
            Format("unowned pfn %" PRIu64 " in state %d", pfn, static_cast<int>(entry.state)));
      }
      if ((flags & kOnFreeList) == 0) {
        Add(report, "ramtab-owner", Format("unowned pfn %" PRIu64 " not on the free list", pfn));
      }
      if ((flags & kOnStack) != 0) {
        Add(report, "ramtab-owner",
            Format("unowned pfn %" PRIu64 " still on domain %u's stack", pfn,
                   frame_stack_owner_[pfn]));
      }
    } else {
      if ((flags & kOnFreeList) != 0) {
        Add(report, "ramtab-owner",
            Format("pfn %" PRIu64 " owned by domain %u but on the free list", pfn, entry.owner));
      }
      if ((flags & kOnStack) == 0) {
        Add(report, "ramtab-owner",
            Format("pfn %" PRIu64 " owned by domain %u but on no frame stack", pfn, entry.owner));
      } else if (frame_stack_owner_[pfn] != entry.owner) {
        Add(report, "ramtab-owner",
            Format("pfn %" PRIu64 " owned by domain %u but on domain %u's stack", pfn,
                   entry.owner, frame_stack_owner_[pfn]));
      }
    }
  }
}

// stretch-pte (+ the per-page half of pdom-rights): walk each stretch's pages.
void InvariantAuditor::CheckStretchPtes(AuditReport& report) {
  const PageTable* pt = mmu_.page_table();
  stretches_.ForEachStretch([&](const Stretch& s) {
    const ProtectionDomain* pdom =
        s.owner_pdom() != 0 ? translation_.FindProtectionDomain(s.owner_pdom()) : nullptr;
    const Vpn first = s.base() / s.page_size();
    for (size_t i = 0; i < s.page_count(); ++i) {
      const Vpn vpn = first + i;
      const Pte* pte = pt->Lookup(vpn);
      if (pte == nullptr) {
        Add(report, "stretch-pte",
            Format("sid %u: page vpn %" PRIu64 " has no PTE", s.sid(), vpn));
        continue;
      }
      if (pte->sid != s.sid()) {
        Add(report, "stretch-pte",
            Format("vpn %" PRIu64 ": PTE sid %u != stretch sid %u", vpn, pte->sid, s.sid()));
      }
      if (pdom != nullptr) {
        // PTE global rights are the floor every domain gets; they must never
        // exceed what the stretch's owning protection domain holds.
        if (auto owner_rights = pdom->RightsFor(s.sid());
            owner_rights.has_value() && (pte->rights & ~*owner_rights) != 0) {
          Add(report, "pdom-rights",
              Format("vpn %" PRIu64 ": PTE rights 0x%x exceed owner pdom %u rights 0x%x", vpn,
                     pte->rights, s.owner_pdom(), *owner_rights));
        }
      }
      if (!pte->valid) {
        continue;
      }
      const Pfn pfn = pte->pfn;
      if (!ramtab_.ValidPfn(pfn)) {
        Add(report, "stretch-pte",
            Format("vpn %" PRIu64 " maps out-of-range pfn %" PRIu64, vpn, pfn));
        continue;
      }
      const RamTabEntry& entry = ramtab_.Get(pfn);
      if (entry.owner != s.owner()) {
        Add(report, "stretch-pte",
            Format("vpn %" PRIu64 " (sid %u, domain %u) maps pfn %" PRIu64
                   " owned by domain %u",
                   vpn, s.sid(), s.owner(), pfn, entry.owner));
      }
      if (entry.state == FrameState::kUnused) {
        Add(report, "stretch-pte",
            Format("vpn %" PRIu64 " maps pfn %" PRIu64 " marked kUnused in the RamTab", vpn,
                   pfn));
      } else if (entry.mapped_vpn != vpn) {
        Add(report, "stretch-pte",
            Format("vpn %" PRIu64 " maps pfn %" PRIu64 " whose RamTab backlink is vpn %" PRIu64,
                   vpn, pfn, entry.mapped_vpn));
      }
    }
  });
}

// ramtab-backlink: mapped (or nailed-while-mapped) frames point at a valid
// PTE that maps them back.
void InvariantAuditor::CheckRamTabBacklinks(AuditReport& report) {
  const PageTable* pt = mmu_.page_table();
  for (Pfn pfn = 0; pfn < frames_.total_frames(); ++pfn) {
    const RamTabEntry& entry = ramtab_.Get(pfn);
    const bool expect_mapping =
        entry.state == FrameState::kMapped ||
        (entry.state == FrameState::kNailed && entry.mapped_vpn != 0);
    if (!expect_mapping) {
      continue;
    }
    const Pte* pte = pt->Lookup(entry.mapped_vpn);
    if (pte == nullptr || !pte->valid || pte->pfn != pfn) {
      Add(report, "ramtab-backlink",
          Format("pfn %" PRIu64 " recorded as mapped at vpn %" PRIu64
                 " but the PTE there is %s",
                 pfn, entry.mapped_vpn,
                 pte == nullptr ? "missing" : (!pte->valid ? "invalid" : "mapping another frame")));
    }
  }
}

// pdom-rights (structure half): every live stretch's owner pdom still holds
// an entry, and no pdom holds rights on a dead sid.
void InvariantAuditor::CheckPdomRights(AuditReport& report) {
  size_t max_sid = 0;
  stretches_.ForEachStretch([&](const Stretch& s) {
    max_sid = s.sid() > max_sid ? s.sid() : max_sid;
  });
  live_sids_.assign(max_sid + 1, 0);
  stretches_.ForEachStretch([&](const Stretch& s) {
    live_sids_[s.sid()] = 1;
    if (s.owner_pdom() == 0) {
      return;
    }
    const ProtectionDomain* pdom = translation_.FindProtectionDomain(s.owner_pdom());
    if (pdom == nullptr) {
      Add(report, "pdom-rights",
          Format("sid %u: owner pdom %u no longer exists", s.sid(), s.owner_pdom()));
    } else if (!pdom->HasEntry(s.sid())) {
      Add(report, "pdom-rights",
          Format("sid %u: owner pdom %u holds no rights entry", s.sid(), s.owner_pdom()));
    }
  });
  translation_.ForEachProtectionDomain([&](const ProtectionDomain& pdom) {
    pdom.ForEachEntry([&](Sid sid, uint8_t rights) {
      if (sid >= live_sids_.size() || live_sids_[sid] == 0) {
        Add(report, "pdom-rights",
            Format("pdom %u holds rights 0x%x on dead sid %u", pdom.id(), rights, sid));
      }
    });
  });
}

// tlb-derivable: every valid TLB entry must be reconstructible from the
// current page table — the stale-cache detector for the fast-path work.
void InvariantAuditor::CheckTlb(AuditReport& report) {
  const PageTable* pt = mmu_.page_table();
  mmu_.tlb().ForEachEntry([&](const TlbEntry& e) {
    if (!e.valid) {
      return;
    }
    const Pte* pte = pt->Lookup(e.vpn);
    if (pte == nullptr || !pte->valid) {
      Add(report, "tlb-derivable",
          Format("TLB entry vpn %" PRIu64 " -> pfn %" PRIu64 " has no valid PTE", e.vpn, e.pfn));
      return;
    }
    if (pte->pfn != e.pfn) {
      Add(report, "tlb-derivable",
          Format("TLB entry vpn %" PRIu64 " caches pfn %" PRIu64 " but the PTE maps %" PRIu64,
                 e.vpn, e.pfn, pte->pfn));
    }
    if (pte->sid != e.sid) {
      Add(report, "tlb-derivable",
          Format("TLB entry vpn %" PRIu64 " caches sid %u but the PTE carries %u", e.vpn, e.sid,
                 pte->sid));
    }
    // Fills store the PTE's global rights (rights overrides are re-resolved
    // per access), so a mismatch means a protection change skipped the TLB
    // invalidation.
    if (pte->rights != e.rights) {
      Add(report, "tlb-derivable",
          Format("TLB entry vpn %" PRIu64 " caches rights 0x%x but the PTE holds 0x%x", e.vpn,
                 e.rights, pte->rights));
    }
  });
}

// pte-liveness (full depth): nothing in the page table outside live stretches.
void InvariantAuditor::CheckPteLiveness(AuditReport& report) {
  mmu_.page_table()->ForEachAllocated([&](Vpn vpn, const Pte& pte) {
    if (pte.sid == kNoSid) {
      Add(report, "pte-liveness", Format("allocated PTE at vpn %" PRIu64 " carries no sid", vpn));
      return;
    }
    if (pte.sid >= live_sids_.size() || live_sids_[pte.sid] == 0) {
      Add(report, "pte-liveness",
          Format("allocated PTE at vpn %" PRIu64 " belongs to dead sid %u", vpn, pte.sid));
    }
  });
}

}  // namespace nemesis
