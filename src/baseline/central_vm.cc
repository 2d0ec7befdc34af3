#include "src/baseline/central_vm.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>

#include "src/base/assert.h"

namespace nemesis {

namespace {

// Every centralised-VM operation crosses the user/kernel boundary; Nemesis'
// user-level mechanisms do not. To keep the Table-1 comparison structurally
// honest we pay a REAL mode switch (a minimal host syscall) at each kernel
// entry instead of injecting a synthetic delay.
inline void KernelCrossing() { (void)syscall(SYS_getpid); }

}  // namespace

CentralVm::CentralVm(Vpn pages, size_t page_size) : page_size_(page_size), pt_(pages) {}

CentralVm::Vma* CentralVm::FindVma(VirtAddr va) {
  auto it = vmas_.upper_bound(va);
  if (it == vmas_.begin()) {
    return nullptr;
  }
  --it;
  if (va >= it->second.start && va < it->second.end) {
    return &it->second;
  }
  return nullptr;
}

void CentralVm::CreateRegion(VirtAddr base, size_t len, uint8_t prot) {
  MutexLock guard(kernel_lock_);
  NEM_ASSERT(IsAligned(base, page_size_));
  len = AlignUp(len, page_size_);
  vmas_[base] = Vma{base, base + len, prot};
  for (Vpn vpn = base / page_size_; vpn < (base + len) / page_size_; ++vpn) {
    Pte* pte = pt_.Ensure(vpn);
    pte->sid = 1;
    pte->rights = prot;
  }
}

void CentralVm::PopulateRegion(VirtAddr base, size_t len, Pfn first_pfn) {
  MutexLock guard(kernel_lock_);
  len = AlignUp(len, page_size_);
  Pfn pfn = first_pfn;
  for (Vpn vpn = base / page_size_; vpn < (base + len) / page_size_; ++vpn) {
    Pte* pte = pt_.Ensure(vpn);
    NEM_ASSERT_LT(pfn, kMaxFrames);  // a Pte's pfn is 32 bits
    pte->valid = true;
    pte->pfn = pfn++;
  }
}

int CentralVm::Mprotect(VirtAddr base, size_t len, uint8_t prot) {
  KernelCrossing();  // mprotect(2) system-call entry
  MutexLock guard(kernel_lock_);
  if (!IsAligned(base, page_size_)) {
    return -1;
  }
  len = AlignUp(len, page_size_);
  Vma* vma = FindVma(base);
  if (vma == nullptr || base + len > vma->end) {
    return -1;
  }
  // VMA bookkeeping (a real kernel would split the region; this baseline
  // tracks the common whole-region case).
  if (base == vma->start && base + len == vma->end) {
    vma->prot = prot;
  }
  for (Vpn vpn = base / page_size_; vpn < (base + len) / page_size_; ++vpn) {
    Pte* pte = pt_.Lookup(vpn);
    if (pte != nullptr) {
      pte->rights = prot;
    }
  }
  // Central VMs shoot down the whole TLB on protection changes.
  tlb_.InvalidateAll();
  return 0;
}

bool CentralVm::TranslateLocked(VirtAddr va, AccessType access, bool* prot_fault) {
  const Vpn vpn = va / page_size_;
  const Pte* pte = pt_.Lookup(vpn);
  *prot_fault = false;
  if (pte == nullptr || !pte->valid) {
    return false;
  }
  uint8_t needed = 0;
  switch (access) {
    case AccessType::kRead:
      needed = kRightRead;
      break;
    case AccessType::kWrite:
      needed = kRightWrite;
      break;
    case AccessType::kExecute:
      needed = kRightExecute;
      break;
  }
  if (!HasRights(pte->rights, needed)) {
    *prot_fault = true;
    return false;
  }
  return true;
}

int CentralVm::Access(VirtAddr va, AccessType access) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool prot_fault = false;
    {
      MutexLock guard(kernel_lock_);
      if (TranslateLocked(va, access, &prot_fault)) {
        Pte* pte = pt_.Lookup(va / page_size_);
        pte->referenced = true;
        if (access == AccessType::kWrite) {
          pte->dirty = true;
        }
        return 0;
      }
      ++faults_;
      KernelCrossing();  // the hardware trap enters the kernel
      // Kernel trap path: full context save and signal setup under the lock.
      std::memcpy(&saved_context_, &live_context_, sizeof(SavedContext));
      Vma* vma = FindVma(va);
      if (vma == nullptr) {
        return -1;
      }
    }
    if (!handler_) {
      return -1;
    }
    SigInfo info;
    info.fault_va = va;
    info.access = access;
    info.is_protection = prot_fault;
    ++signals_delivered_;
    const bool fixed = handler_(info);
    // sigreturn(2): another kernel crossing to restore the context.
    KernelCrossing();
    std::memcpy(&live_context_, &saved_context_, sizeof(SavedContext));
    if (!fixed) {
      return -1;
    }
  }
  return -1;
}

bool CentralVm::IsDirty(VirtAddr va) {
  KernelCrossing();  // dirty queries need a system call in this baseline
  MutexLock guard(kernel_lock_);
  Vma* vma = FindVma(va);
  if (vma == nullptr) {
    return false;
  }
  const Pte* pte = pt_.Lookup(va / page_size_);
  return pte != nullptr && pte->dirty;
}

}  // namespace nemesis
