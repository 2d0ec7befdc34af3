#include "src/app/vmem.h"

#include <algorithm>

#include "src/app/page_kernels.h"
#include "src/base/assert.h"
#include "src/sim/sync.h"

namespace nemesis {

struct VMemDetail {
  // Makes the page containing `va` accessible for `access`, taking the full
  // self-paging fault path as many times as needed. *ok=false when the fault
  // is unresolvable.
  static Task ResolvePage(VMem* vm, VirtAddr va, AccessType access, bool* ok) {
    for (;;) {
      const TranslateResult r = vm->mmu_.Translate(va, access, vm->env_.pdom);
      if (r.fault == FaultType::kNone) {
        *ok = true;
        co_return;
      }
      const Vpn vpn = va / vm->env_.page_size();
      vm->faults_taken_.Inc();
      const SimTime raised_at = vm->env_.sim->Now();
      const uint64_t fid = vm->env_.kernel->RaiseFault(
          vm->domain_.id(), FaultRecord{.va = va, .type = r.fault, .access = access, .sid = r.sid});
      // The dispatch (event send + context save + activation) and the
      // user-level handling cost are paid by this domain, nobody else.
      co_await SleepFor(*vm->env_.sim,
                        vm->env_.kernel->costs().FaultDispatchCost() +
                            vm->costs_.fault_user_cost);
      while (vm->mm_entry_.IsPending(vpn)) {
        co_await vm->mm_entry_.resolved_cv().Wait();
      }
      const SimDuration stall = vm->env_.sim->Now() - raised_at;
      vm->fault_stall_time_ += stall;
      if (Obs* obs = vm->env_.obs; obs != nullptr && obs->enabled()) {
        // The span closing the fault lifecycle: the full raise -> resume stall.
        obs->Span(raised_at, vm->domain_.id(), stage::kResume, ToMilliseconds(stall), fid);
        if (Obs::DomainProbe* p = obs->probe(vm->domain_.id())) {
          p->fault_total->Record(stall);
        }
      }
      if (vm->mm_entry_.ConsumeFailure(vpn)) {
        *ok = false;
        co_return;
      }
      // Resolved: loop to re-translate (the page may already have been
      // evicted again under memory pressure).
    }
  }

  static PhysAddr MustProbe(VMem* vm, VirtAddr va, AccessType access, bool* valid) {
    const TranslateResult r = vm->mmu_.Probe(va, access, vm->env_.pdom);
    *valid = r.fault == FaultType::kNone;
    return r.pa;
  }
};

Task VMem::AccessRange(VirtAddr va, size_t len, AccessType access, bool* ok,
                       uint64_t* bytes_done) {
  *ok = true;
  const size_t page_size = env_.page_size();
  VirtAddr cursor = va;
  const VirtAddr end = va + len;
  while (cursor < end) {
    const VirtAddr page_end = AlignDown(cursor, page_size) + page_size;
    const size_t chunk = static_cast<size_t>(std::min<VirtAddr>(end, page_end) - cursor);

    bool page_ok = false;
    co_await VMemDetail::ResolvePage(this, cursor, access, &page_ok);
    if (!page_ok) {
      *ok = false;
      co_return;
    }
    bool valid = false;
    const PhysAddr pa = VMemDetail::MustProbe(this, cursor, access, &valid);
    if (!valid) {
      continue;  // evicted between resolution and touch: fault again
    }

    // Really touch the bytes (the workloads' "trivial amount of computation
    // per page": each byte is read/written but no other substantial work).
    const Pfn pfn = pa / page_size;
    const std::span<uint8_t> bytes =
        env_.phys->FrameData(pfn).subspan(static_cast<size_t>(pa % page_size), chunk);
    if (access == AccessType::kWrite) {
      page_kernels::FillAddressBytes(bytes, cursor);
    } else {
      checksum_ += page_kernels::SumBytes(bytes);
    }
    co_await SleepFor(*env_.sim, static_cast<SimDuration>(chunk) * costs_.per_byte_cpu);
    if (bytes_done != nullptr) {
      *bytes_done += chunk;
    }
    cursor += chunk;
  }
}

Task VMem::Read(VirtAddr va, std::span<uint8_t> out, bool* ok) {
  *ok = true;
  const size_t page_size = env_.page_size();
  size_t done = 0;
  while (done < out.size()) {
    const VirtAddr cursor = va + done;
    const VirtAddr page_end = AlignDown(cursor, page_size) + page_size;
    const size_t chunk = static_cast<size_t>(
        std::min<VirtAddr>(va + out.size(), page_end) - cursor);

    bool page_ok = false;
    co_await VMemDetail::ResolvePage(this, cursor, AccessType::kRead, &page_ok);
    if (!page_ok) {
      *ok = false;
      co_return;
    }
    bool valid = false;
    const PhysAddr pa = VMemDetail::MustProbe(this, cursor, AccessType::kRead, &valid);
    if (!valid) {
      continue;
    }
    auto frame = env_.phys->FrameData(pa / page_size);
    const size_t offset = static_cast<size_t>(pa % page_size);
    std::copy_n(frame.begin() + offset, chunk, out.begin() + done);
    co_await SleepFor(*env_.sim, static_cast<SimDuration>(chunk) * costs_.per_byte_cpu);
    done += chunk;
  }
}

Task VMem::Write(VirtAddr va, std::span<const uint8_t> data, bool* ok) {
  *ok = true;
  const size_t page_size = env_.page_size();
  size_t done = 0;
  while (done < data.size()) {
    const VirtAddr cursor = va + done;
    const VirtAddr page_end = AlignDown(cursor, page_size) + page_size;
    const size_t chunk = static_cast<size_t>(
        std::min<VirtAddr>(va + data.size(), page_end) - cursor);

    bool page_ok = false;
    co_await VMemDetail::ResolvePage(this, cursor, AccessType::kWrite, &page_ok);
    if (!page_ok) {
      *ok = false;
      co_return;
    }
    bool valid = false;
    const PhysAddr pa = VMemDetail::MustProbe(this, cursor, AccessType::kWrite, &valid);
    if (!valid) {
      continue;
    }
    auto frame = env_.phys->FrameData(pa / page_size);
    const size_t offset = static_cast<size_t>(pa % page_size);
    std::copy_n(data.begin() + done, chunk, frame.begin() + offset);
    co_await SleepFor(*env_.sim, static_cast<SimDuration>(chunk) * costs_.per_byte_cpu);
    done += chunk;
  }
}

}  // namespace nemesis
