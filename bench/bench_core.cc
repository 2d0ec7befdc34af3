// Wall-clock microbenchmarks for the simulation fast paths.
//
// Unlike the figure/ablation benches (which report *simulated* time and must
// stay bit-identical across refactors), this suite measures how fast the
// substrate itself runs: TLB lookup/fill, event-loop schedule/fire/cancel
// throughput, same-time task wakeups and child hops, end-to-end
// Mmu::Translate latency, VMem's page-touch kernels, and the cost of
// constructing and destroying a default System.
// Every benchmark runs the live implementation. The two pairs are
// BM_SimWakeChain and BM_SimInlineChildChain: StepLoop queues every resume,
// RunLoop uses the simulator's handoff register and in-place child hops, two
// modes of the same Simulator.
//
// tools/run_benches.py runs this binary with --benchmark_format=json and
// distills the results (plus the Figure 7/8 simulated-time checks) into
// BENCH_core.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/app/page_kernels.h"
#include "src/base/random.h"
#include "src/core/system.h"
#include "src/hw/mmu.h"
#include "src/hw/page_table.h"
#include "src/hw/tlb.h"
#include "src/mm/prot_domain.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace nemesis {
namespace {

// ---------------------------------------------------------------------------
// TLB: lookup hit, lookup miss, and fill-with-eviction throughput for the
// 64-entry set-associative Tlb.
// ---------------------------------------------------------------------------

template <class TlbT>
void BM_TlbLookupHit(benchmark::State& state) {
  TlbT tlb(64);
  for (Vpn v = 0; v < 64; ++v) {
    tlb.Fill(v, v + 100, kRightRead, 1);
  }
  Vpn v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Lookup(v));
    v = (v + 1) & 63;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_TlbLookupHit, Tlb);

template <class TlbT>
void BM_TlbLookupMiss(benchmark::State& state) {
  TlbT tlb(64);
  for (Vpn v = 0; v < 64; ++v) {
    tlb.Fill(v, v + 100, kRightRead, 1);
  }
  Vpn v = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Lookup(v));
    v = 1000 + ((v + 1) & 1023);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_TlbLookupMiss, Tlb);

template <class TlbT>
void BM_TlbFillEvict(benchmark::State& state) {
  TlbT tlb(64);
  Vpn v = 0;
  for (auto _ : state) {
    tlb.Fill(v, v, kRightRead, 1);
    v = (v + 1) & 127;  // working set of 128 over 64 entries: every fill evicts
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_TlbFillEvict, Tlb);

// ---------------------------------------------------------------------------
// Event loop: schedule+fire throughput and schedule+cancel churn.
// ---------------------------------------------------------------------------

constexpr int kBatch = 1024;

template <class LoopT>
void BM_SimScheduleFire(benchmark::State& state) {
  LoopT loop;
  // Callbacks capture a shared_ptr, like every real call site in the tree
  // ("[state] { state->Resume(); }").
  auto counter = std::make_shared<uint64_t>(0);
  for (auto _ : state) {
    const auto now = loop.Now();
    for (int i = 0; i < kBatch; ++i) {
      // Spread over 16 distinct timestamps: all 1024 events sit in the heap
      // at once, ordered by (time, seq), FIFO within each time. No
      // end-to-end workload keeps this many events pending; the figure is
      // reported, not gated.
      loop.CallAt(now + 1 + (i & 15), [counter] { ++*counter; });
    }
    loop.Run();
  }
  benchmark::DoNotOptimize(*counter);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK_TEMPLATE(BM_SimScheduleFire, Simulator);

template <class LoopT>
void BM_SimScheduleCancelFire(benchmark::State& state) {
  LoopT loop;
  auto counter = std::make_shared<uint64_t>(0);
  std::vector<uint64_t> ids;
  ids.reserve(kBatch);
  for (auto _ : state) {
    const auto now = loop.Now();
    ids.clear();
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(loop.CallAt(now + 1 + (i & 15), [counter] { ++*counter; }));
    }
    for (int i = 0; i < kBatch; i += 2) {  // cancel every other event
      loop.Cancel(ids[i]);
    }
    loop.Run();
  }
  benchmark::DoNotOptimize(*counter);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK_TEMPLATE(BM_SimScheduleCancelFire, Simulator);

// A deep pending queue: events reschedule themselves, so the heap stays at
// `kBatch` entries over 8 timestamps and every fire pays a pop and a push,
// each O(log kBatch). The paging experiments keep far fewer events pending
// (fig7 averages about 12); the figure is reported, not gated.
template <class LoopT>
void BM_SimSelfRescheduling(benchmark::State& state) {
  LoopT loop;
  auto fired = std::make_shared<uint64_t>(0);
  const uint64_t horizon = static_cast<uint64_t>(state.max_iterations) * 4 + kBatch * 8;
  std::function<void(int)> arm = [&](int lane) {
    if (loop.Now() < static_cast<int64_t>(horizon)) {
      loop.CallAt(loop.Now() + 1 + (lane & 7), [&arm, fired, lane] {
        ++*fired;
        arm(lane);
      });
    }
  };
  for (int lane = 0; lane < kBatch; ++lane) {
    arm(lane);
  }
  for (auto _ : state) {
    if (!loop.Step()) {
      state.SkipWithError("queue drained early");
      break;
    }
  }
  benchmark::DoNotOptimize(*fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_SimSelfRescheduling, Simulator);

// ---------------------------------------------------------------------------
// Same-time task wakeups: ns per resume over a chain of zero-delay hops — a
// Condition ping-pong between two tasks, one side entering and leaving an
// inline child every round, the shapes the fault path is built from.
// RunLoop drains batches, so each hop is the batch's next event: a wake runs
// from the simulator's handoff register and a child hop in place. StepLoop
// drives the same chain through Step(), which never holds a resume, so every
// hop goes through the queue. Both count every hop as one resume.
// ---------------------------------------------------------------------------

constexpr int kWakeRounds = 256;

Task WakeChild() { co_return; }

Task WakePinger(Condition& ping, Condition& pong) {
  for (int i = 0; i < kWakeRounds; ++i) {
    co_await ping.Wait();
    co_await WakeChild();
    pong.NotifyOne();
  }
}

Task WakePonger(Condition& ping, Condition& pong) {
  for (int i = 0; i < kWakeRounds; ++i) {
    ping.NotifyOne();
    co_await pong.Wait();
  }
}

struct RunLoop {
  static void Drive(Simulator& sim) { sim.Run(); }
};
struct StepLoop {
  static void Drive(Simulator& sim) {
    while (sim.Step()) {
    }
  }
};

template <class DriveT>
void BM_SimWakeChain(benchmark::State& state) {
  Simulator sim;
  Condition ping(sim);
  Condition pong(sim);
  uint64_t resumes = 0;
  for (auto _ : state) {
    const uint64_t before = sim.events_executed() + sim.resumes_in_place();
    TaskHandle pinger = sim.Spawn(WakePinger(ping, pong), "pinger");
    TaskHandle ponger = sim.Spawn(WakePonger(ping, pong), "ponger");
    DriveT::Drive(sim);
    if (!pinger.done() || !ponger.done()) {
      state.SkipWithError("wake chain stalled");
      break;
    }
    resumes += sim.events_executed() + sim.resumes_in_place() - before;
  }
  state.SetItemsProcessed(static_cast<int64_t>(resumes));
  state.counters["ns_per_resume"] = benchmark::Counter(
      static_cast<double>(resumes), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_TEMPLATE(BM_SimWakeChain, StepLoop);
BENCHMARK_TEMPLATE(BM_SimWakeChain, RunLoop);

// ---------------------------------------------------------------------------
// Child hops: ns per hop for one task awaiting kChildHops / 2 children in a
// row, each returning at once. RunLoop runs the hops in place (up to the
// per-event bound, then one held hop); StepLoop queues every one.
// ---------------------------------------------------------------------------

constexpr int kChildHops = 512;

Task ReturnAtOnce() { co_return; }

Task AwaitChildren() {
  for (int i = 0; i < kChildHops / 2; ++i) {
    co_await ReturnAtOnce();
  }
}

template <class DriveT>
void BM_SimInlineChildChain(benchmark::State& state) {
  Simulator sim;
  uint64_t hops = 0;
  for (auto _ : state) {
    TaskHandle h = sim.Spawn(AwaitChildren(), "parent");
    DriveT::Drive(sim);
    if (!h.done()) {
      state.SkipWithError("child chain stalled");
      break;
    }
    hops += kChildHops;
  }
  state.SetItemsProcessed(static_cast<int64_t>(hops));
  state.counters["ns_per_hop"] = benchmark::Counter(
      static_cast<double>(hops), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_TEMPLATE(BM_SimInlineChildChain, StepLoop);
BENCHMARK_TEMPLATE(BM_SimInlineChildChain, RunLoop);

// ---------------------------------------------------------------------------
// End-to-end translation: ns per Mmu::Translate through a protection domain.
// ---------------------------------------------------------------------------

void BM_TranslateTlbHit(benchmark::State& state) {
  PageTable pt(1 << 16);
  Mmu mmu(&pt);
  ProtectionDomain pdom(1);
  pdom.SetRights(1, kRightRead | kRightWrite);
  for (Vpn v = 0; v < 32; ++v) {
    Pte* pte = pt.Ensure(v);
    pte->valid = true;
    pte->pfn = v + 8;
    pte->rights = kRightRead;
    pte->sid = 1;
  }
  const size_t page = mmu.page_size();
  VirtAddr va = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mmu.Translate(va, AccessType::kRead, &pdom));
    va = (va + page) & (32 * page - 1);  // 32-page working set: TLB-resident
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranslateTlbHit);

void BM_TranslateTlbMiss(benchmark::State& state) {
  // 4096 mapped pages against 64 TLB entries, random walk: ~every access
  // misses the TLB and pays the page-table walk + fill.
  PageTable pt(1 << 16);
  Mmu mmu(&pt);
  ProtectionDomain pdom(1);
  pdom.SetRights(1, kRightRead | kRightWrite);
  const size_t kPages = 4096;
  for (Vpn v = 0; v < kPages; ++v) {
    Pte* pte = pt.Ensure(v);
    pte->valid = true;
    pte->pfn = v + 8;
    pte->rights = kRightRead;
    pte->sid = 1;
  }
  std::vector<VirtAddr> vas(8192);
  Random rng(7);
  for (auto& va : vas) {
    va = rng.NextBelow(kPages) * mmu.page_size();
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mmu.Translate(vas[i], AccessType::kRead, &pdom));
    i = (i + 1) & (vas.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranslateTlbMiss);

// ---------------------------------------------------------------------------
// VMem's page-touch kernels: ns per 8 KiB page for each SumBytes variant the
// host runs (the dispatched one included) and for the address-byte fill.
// ---------------------------------------------------------------------------

std::vector<uint8_t> RandomPage() {
  std::vector<uint8_t> page(kDefaultPageSize);
  Random rng(3);
  for (uint8_t& b : page) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return page;
}

void BM_PageSum(benchmark::State& state, uint64_t (*sum)(std::span<const uint8_t>),
                [[maybe_unused]] bool needs_avx2) {
#if defined(NEMESIS_HAVE_AVX2_KERNELS)
  if (needs_avx2 && !page_kernels::CpuHasAvx2()) {
    state.SkipWithError("the CPU has no AVX2");
    return;
  }
#endif
  const std::vector<uint8_t> page = RandomPage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sum(page));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * page.size()));
}
BENCHMARK_CAPTURE(BM_PageSum, Dispatched, page_kernels::SumBytes, false);
BENCHMARK_CAPTURE(BM_PageSum, ByteLoop, page_kernels::SumBytesScalar, false);
#if defined(__SSE2__)
BENCHMARK_CAPTURE(BM_PageSum, Sse2, page_kernels::SumBytesSse2, false);
#endif
#if defined(NEMESIS_HAVE_AVX2_KERNELS)
BENCHMARK_CAPTURE(BM_PageSum, Avx2, page_kernels::SumBytesAvx2, true);
#endif

void BM_PageFill(benchmark::State& state) {
  std::vector<uint8_t> page(kDefaultPageSize);
  VirtAddr va = 0x10000;
  for (auto _ : state) {
    page_kernels::FillAddressBytes(page, va);
    benchmark::DoNotOptimize(page.data());
    benchmark::ClobberMemory();
    va += 37;  // a different phase of the 256-byte period every page
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * page.size()));
}
BENCHMARK(BM_PageFill);

// ---------------------------------------------------------------------------
// Set-up: constructing and destroying a default System (no auditor). The
// page table, physical memory and disk store are lazily zeroed, so this is
// the cost of the wiring, not of the machine's size.
// ---------------------------------------------------------------------------

void BM_SystemConstruct(benchmark::State& state) {
  SystemConfig cfg;
  cfg.audit = false;
  for (auto _ : state) {
    System system(cfg);
    benchmark::DoNotOptimize(&system);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemConstruct);

}  // namespace
}  // namespace nemesis

BENCHMARK_MAIN();
