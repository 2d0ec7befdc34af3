// Extensibility demo: a user-written stretch driver.
//
// Self-paging means the system imposes no paging policy: "interfaces are
// sufficiently expressive to allow applications the flexibility they
// require." This example implements a COMPRESSED-SWAP stretch driver outside
// the library: on eviction it run-length-encodes the page into a private
// in-memory store instead of writing to disk; on fault it decompresses. (A
// toy stand-in for application-specific policies like the paper's citations
// on garbage-collector- or DBMS-aware memory management.)
//
//   $ ./examples/custom_driver
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "src/core/system.h"
#include "src/core/workloads.h"

using namespace nemesis;

namespace {

// Trivial RLE codec (pages of mostly-repeated bytes compress well).
std::vector<uint8_t> RleEncode(std::span<const uint8_t> in) {
  std::vector<uint8_t> out;
  size_t i = 0;
  while (i < in.size()) {
    uint8_t run = 1;
    while (run < 255 && i + run < in.size() && in[i + run] == in[i]) {
      ++run;
    }
    out.push_back(run);
    out.push_back(in[i]);
    i += run;
  }
  return out;
}

void RleDecode(const std::vector<uint8_t>& in, std::span<uint8_t> out) {
  size_t o = 0;
  for (size_t i = 0; i + 1 < in.size(); i += 2) {
    std::memset(out.data() + o, in[i + 1], in[i]);
    o += in[i];
  }
}

// A stretch driver that swaps to compressed memory. It reuses the frame pool
// discipline of the built-in drivers but needs no USD channel at all.
class CompressedSwapDriver : public StretchDriver {
 public:
  CompressedSwapDriver(DriverEnv env, uint64_t max_frames)
      : env_(env), max_frames_(max_frames) {}

  Status<VmError> Bind(Stretch* stretch) override {
    stretch_ = stretch;
    return Status<VmError>::Ok();
  }

  FaultResult HandleFault(const FaultRecord& fault, Stretch&) override {
    if (fault.type == FaultType::kFaultAcv) {
      return FaultResult::kFailure;
    }
    // Compression work is "IDC-free" but we route everything through the
    // worker anyway to keep the fast path trivial.
    return FaultResult::kRetry;
  }

  Task ResolveFault(FaultRecord fault, Stretch* stretch, FaultResult* result) override {
    const VirtAddr page_va = AlignDown(fault.va, env_.page_size());
    const size_t index = stretch->PageIndexOf(fault.va);
    if (env_.syscalls().Trans(page_va).has_value()) {
      *result = FaultResult::kSuccess;
      co_return;
    }
    // Get a frame: grow the pool or evict-and-compress the oldest page.
    std::optional<Pfn> pfn;
    for (Pfn candidate : pool_) {
      if (env_.kernel->ramtab().StateOf(candidate) == FrameState::kUnused) {
        pfn = candidate;
        break;
      }
    }
    if (!pfn.has_value() && pool_.size() < max_frames_) {
      auto allocated = env_.frames->AllocFrame(env_.domain);
      if (allocated.has_value()) {
        pool_.push_back(*allocated);
        pfn = *allocated;
      }
    }
    if (!pfn.has_value()) {
      if (fifo_.empty()) {
        *result = FaultResult::kFailure;
        co_return;
      }
      const size_t victim = fifo_.front();
      fifo_.pop_front();
      const VirtAddr victim_va = stretch_->PageBase(victim);
      Pfn victim_pfn = 0;
      if (!env_.syscalls().Unmap(env_.domain, env_.pdom, victim_va, &victim_pfn).ok()) {
        *result = FaultResult::kFailure;
        co_return;
      }
      // "Write" the page to compressed swap, charging CPU time for the codec.
      store_[victim] = RleEncode(env_.phys->FrameData(victim_pfn));
      compressed_bytes_ += store_[victim].size();
      co_await SleepFor(*env_.sim, Microseconds(50));  // codec cost
      ++evictions_;
      pfn = victim_pfn;
    }
    // Fill: decompress or demand-zero.
    env_.phys->ZeroFrame(*pfn);
    auto it = store_.find(index);
    if (it != store_.end()) {
      RleDecode(it->second, env_.phys->FrameData(*pfn));
      co_await SleepFor(*env_.sim, Microseconds(30));
      ++restores_;
    }
    if (!env_.syscalls().Map(env_.domain, env_.pdom, page_va, *pfn, MapAttrs{}).ok()) {
      *result = FaultResult::kFailure;
      co_return;
    }
    fifo_.push_back(index);
    *result = FaultResult::kSuccess;
  }

  Task RelinquishFrames(uint64_t target, uint64_t* freed) override {
    while (*freed < target && !fifo_.empty()) {
      const size_t victim = fifo_.front();
      fifo_.pop_front();
      Pfn pfn = 0;
      if (env_.syscalls().Unmap(env_.domain, env_.pdom, stretch_->PageBase(victim), &pfn).ok()) {
        store_[victim] = RleEncode(env_.phys->FrameData(pfn));
        if (FrameStack* stack = env_.frames->StackOf(env_.domain); stack != nullptr) {
          stack->MoveToTop(pfn);
        }
        ++*freed;
      }
    }
    co_return;
  }

  const char* kind() const override { return "compressed-swap"; }

  uint64_t evictions() const { return evictions_; }
  uint64_t restores() const { return restores_; }
  uint64_t compressed_bytes() const { return compressed_bytes_; }

 private:
  DriverEnv env_;
  uint64_t max_frames_;
  Stretch* stretch_ = nullptr;
  std::vector<Pfn> pool_;
  std::deque<size_t> fifo_;
  std::unordered_map<size_t, std::vector<uint8_t>> store_;
  uint64_t evictions_ = 0;
  uint64_t restores_ = 0;
  uint64_t compressed_bytes_ = 0;
};

}  // namespace

int main() {
  std::printf("=== Custom stretch driver: compressed in-memory swap ===\n\n");
  System system;

  // Build the domain by hand (CreateApp only knows the built-in drivers).
  Domain* domain = system.kernel().CreateDomain("zram");
  ProtectionDomain* pdom = system.translation().CreateProtectionDomain();
  if (!system.frames().AdmitClient(domain->id(), {2, 0}).ok()) {
    return 1;
  }
  Stretch* stretch = *system.stretches().New(domain->id(), pdom, 32 * kDefaultPageSize);
  DriverEnv env{&system.sim(), &system.kernel(), &system.frames(), &system.phys(), domain->id(),
                pdom};
  MmEntry mm_entry(env, *domain);
  mm_entry.Start();
  CompressedSwapDriver driver(env, /*max_frames=*/2);
  mm_entry.BindDriver(stretch, &driver);
  VMem vmem(env, *domain, mm_entry, system.mmu());

  // Write a compressible pattern over 32 pages through 2 frames, then verify.
  struct Workload {
    static Task Run(Simulator& sim, VMem& vmem, Stretch* stretch, bool* ok) {
      std::vector<uint8_t> pattern(stretch->length());
      for (size_t i = 0; i < pattern.size(); ++i) {
        pattern[i] = static_cast<uint8_t>((i / 1024) & 0xFF);  // long runs: RLE-friendly
      }
      bool w = false;
      TaskHandle wh = sim.Spawn(vmem.Write(stretch->base(), pattern, &w), "w");
      co_await Join(wh);
      std::vector<uint8_t> readback(stretch->length());
      bool r = false;
      TaskHandle rh = sim.Spawn(vmem.Read(stretch->base(), readback, &r), "r");
      co_await Join(rh);
      *ok = w && r && readback == pattern;
    }
  };
  bool ok = false;
  system.sim().Spawn(Workload::Run(system.sim(), vmem, stretch, &ok), "zram-workload");
  system.sim().RunUntil(Seconds(10));

  std::printf("data integrity through compressed swap: %s\n", ok ? "yes" : "NO");
  std::printf("evictions: %llu, restores: %llu\n",
              static_cast<unsigned long long>(driver.evictions()),
              static_cast<unsigned long long>(driver.restores()));
  std::printf("compressed %llu raw bytes into %llu (ratio %.1fx)\n",
              static_cast<unsigned long long>(driver.evictions() * kDefaultPageSize),
              static_cast<unsigned long long>(driver.compressed_bytes()),
              driver.evictions() > 0
                  ? static_cast<double>(driver.evictions() * kDefaultPageSize) /
                        static_cast<double>(driver.compressed_bytes())
                  : 0.0);
  std::printf("disk transactions used: %llu (none — the whole policy lives in user space)\n",
              static_cast<unsigned long long>(system.usd().transactions()));
  return ok ? 0 : 1;
}
