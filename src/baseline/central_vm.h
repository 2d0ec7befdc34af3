// Centralised "OSF1-like" VM baseline for the Table-1 micro-benchmarks.
//
// Structure (not injected delays) makes this path expensive relative to the
// Nemesis mechanisms: every operation is a "system call" that takes a global
// kernel lock and validates against a VMA list; protection changes walk PTEs
// page by page and flush the TLB; faults are delivered signal-style with a
// full context save/restore around the user handler. Absolute numbers on
// modern hardware differ from the paper's 1999 Alpha, but the structural
// contrasts Table 1 demonstrates (user-visible page tables beat dirty-bit
// syscalls; O(1) protection-domain switches beat per-page walks; self-paging
// dispatch beats kernel signal delivery) are reproduced by construction.
#ifndef SRC_BASELINE_CENTRAL_VM_H_
#define SRC_BASELINE_CENTRAL_VM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>

#include "src/base/thread_annotations.h"
#include "src/hw/mmu.h"
#include "src/hw/page_table.h"
#include "src/hw/tlb.h"

namespace nemesis {

class CentralVm {
 public:
  struct SigInfo {
    VirtAddr fault_va = 0;
    AccessType access = AccessType::kRead;
    bool is_protection = false;
  };
  // Returns true when the handler fixed the fault (access will be retried).
  using SignalHandler = std::function<bool(const SigInfo&)>;

  explicit CentralVm(Vpn pages, size_t page_size = kDefaultPageSize);

  // mmap-like: creates a VMA and (invalid) PTEs for [base, base+len).
  void CreateRegion(VirtAddr base, size_t len, uint8_t prot);

  // Maps every page of a region (no demand paging in this baseline).
  void PopulateRegion(VirtAddr base, size_t len, Pfn first_pfn);

  // mprotect(2)-style: global lock, VMA validation and bookkeeping, per-page
  // PTE update, TLB flush. Returns 0 on success.
  int Mprotect(VirtAddr base, size_t len, uint8_t prot);

  void SetSignalHandler(SignalHandler handler) { handler_ = std::move(handler); }

  // Performs one access; on fault, delivers a signal through the kernel path
  // (context save, VMA lookup, handler upcall, context restore, retry).
  // Returns 0 on success, -1 on an unhandled fault.
  int Access(VirtAddr va, AccessType access);

  // Dirty query: a system call in this baseline (lock + validate + PT walk).
  bool IsDirty(VirtAddr va);

  uint64_t faults() const { return faults_; }
  uint64_t signals_delivered() const { return signals_delivered_; }

 private:
  struct Vma {
    VirtAddr start;
    VirtAddr end;
    uint8_t prot;
  };
  // Saved register file + FP state, copied on every signal delivery (the
  // Alpha's "full context save").
  struct SavedContext {
    uint64_t regs[64];
  };

  Vma* FindVma(VirtAddr va) NEM_REQUIRES(kernel_lock_);
  bool TranslateLocked(VirtAddr va, AccessType access, bool* prot_fault)
      NEM_REQUIRES(kernel_lock_);

  size_t page_size_;
  Mutex kernel_lock_;
  std::map<VirtAddr, Vma> vmas_ NEM_GUARDED_BY(kernel_lock_);
  PageTable pt_ NEM_GUARDED_BY(kernel_lock_);
  Tlb tlb_ NEM_GUARDED_BY(kernel_lock_);
  SignalHandler handler_;
  SavedContext live_context_{};
  SavedContext saved_context_{};
  uint64_t faults_ = 0;
  uint64_t signals_delivered_ = 0;
};

}  // namespace nemesis

#endif  // SRC_BASELINE_CENTRAL_VM_H_
