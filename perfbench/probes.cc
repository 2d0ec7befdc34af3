#include "perfbench/probes.h"

#include <algorithm>
#include <vector>

#include "perfbench/clock.h"
#include "src/sched/atropos.h"
#include "src/sim/sync.h"

namespace nemesis::perfbench {

namespace {

constexpr int kBatches = 5;
constexpr uint64_t kOpsPerBatch = 20000;

// Results are folded in here so the timed calls cannot be optimised away.
volatile uint64_t g_sink = 0;

struct Batch {
  uint64_t ns = 0;
  uint64_t ops = 0;
};

// Median over kBatches of host ns per call; `batch` runs one batch.
template <typename Fn>
double MedianNsPerOp(Fn batch) {
  std::vector<double> per_op;
  for (int i = 0; i < kBatches; ++i) {
    const Batch b = batch();
    per_op.push_back(b.ops > 0 ? static_cast<double>(b.ns) / static_cast<double>(b.ops) : 0.0);
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

Task Nop() { co_return; }

Task Waiter(Condition* cv, const bool* stop) {
  while (!*stop) {
    co_await cv->Wait();
  }
}

Task Transactions(UsdClient* client, uint64_t count, bool* done) {
  for (uint64_t i = 0; i < count; ++i) {
    co_await client->AcquireSlot();
    UsdRequest req;
    req.id = i;
    req.lba = (i * 16) % (uint64_t{1} << 16);
    req.nblocks = 16;  // one 8 KiB page
    client->Push(std::move(req));
    const UsdReply reply = co_await client->ReceiveReply();
    g_sink = g_sink + (reply.ok ? 1 : 0);
  }
  *done = true;
}

double SimEventNs() {
  Simulator sim;
  uint64_t fired = 0;
  const double ns = MedianNsPerOp([&] {
    const uint64_t t0 = CpuNs();
    for (uint64_t i = 0; i < kOpsPerBatch; ++i) {
      sim.CallAt(sim.Now() + Nanoseconds(static_cast<int64_t>(i % 64)), [&fired] { ++fired; });
    }
    sim.Run();
    return Batch{CpuNs() - t0, kOpsPerBatch};
  });
  g_sink = g_sink + fired;
  return ns;
}

double SimSpawnNs() {
  Simulator sim;
  constexpr uint64_t kSpawns = 5000;
  return MedianNsPerOp([&] {
    const uint64_t t0 = CpuNs();
    for (uint64_t i = 0; i < kSpawns; ++i) {
      sim.Spawn(Nop());
    }
    sim.Run();
    return Batch{CpuNs() - t0, kSpawns};
  });
}

// Wait/NotifyAll round trips with one waiter per domain of the workload.
double SimNotifyNs(size_t waiters) {
  Simulator sim;
  Condition cv(sim);
  bool stop = false;
  for (size_t i = 0; i < waiters; ++i) {
    sim.Spawn(Waiter(&cv, &stop));
  }
  sim.Run();
  const uint64_t rounds = std::max<uint64_t>(1, kOpsPerBatch / waiters);
  const double ns = MedianNsPerOp([&] {
    const uint64_t t0 = CpuNs();
    for (uint64_t r = 0; r < rounds; ++r) {
      cv.NotifyAll();
      sim.Run();
    }
    return Batch{CpuNs() - t0, rounds * waiters};
  });
  stop = true;
  cv.NotifyAll();
  sim.Run();
  return ns;
}

double FindDomainNs(System& system, const Shape& shape) {
  std::vector<DomainId> ids;
  for (AppDomain* app : shape.live_apps) {
    ids.push_back(app->id());
  }
  if (ids.empty()) {
    return 0.0;
  }
  const uint64_t reps = std::max<uint64_t>(1, kOpsPerBatch / ids.size());
  return MedianNsPerOp([&] {
    uint64_t found = 0;
    const uint64_t t0 = CpuNs();
    for (uint64_t r = 0; r < reps; ++r) {
      for (DomainId id : ids) {
        found += system.kernel().FindDomain(id) != nullptr ? 1 : 0;
      }
    }
    const uint64_t ns = CpuNs() - t0;
    g_sink = g_sink + found;
    return Batch{ns, reps * ids.size()};
  });
}

// Every page of every live stretch, capped so small and large workloads
// cost about the same to probe.
struct PageRef {
  VirtAddr va;
  const RightsResolver* pdom;
};

std::vector<PageRef> LivePages(const Shape& shape, size_t page_size) {
  constexpr size_t kMaxPages = 4096;
  std::vector<PageRef> pages;
  for (AppDomain* app : shape.live_apps) {
    Stretch* s = app->stretch();
    if (s == nullptr) {
      continue;
    }
    for (size_t i = 0; i < s->length() / page_size && pages.size() < kMaxPages; ++i) {
      pages.push_back({s->PageBase(i), &app->pdom()});
    }
  }
  return pages;
}

double TransNs(System& system, const std::vector<PageRef>& pages) {
  if (pages.empty()) {
    return 0.0;
  }
  const uint64_t reps = std::max<uint64_t>(1, kOpsPerBatch / pages.size());
  return MedianNsPerOp([&] {
    uint64_t mapped = 0;
    const uint64_t t0 = CpuNs();
    for (uint64_t r = 0; r < reps; ++r) {
      for (const PageRef& p : pages) {
        mapped += system.kernel().syscalls().Trans(p.va).has_value() ? 1 : 0;
      }
    }
    const uint64_t ns = CpuNs() - t0;
    g_sink = g_sink + mapped;
    return Batch{ns, reps * pages.size()};
  });
}

// Half the calls sweep every live page (TLB misses once the sweep exceeds
// the TLB), half repeat one page (TLB hits).
double TranslateNs(System& system, const std::vector<PageRef>& pages) {
  if (pages.empty()) {
    return 0.0;
  }
  Mmu& mmu = system.mmu();
  const uint64_t reps = std::max<uint64_t>(1, kOpsPerBatch / 2 / pages.size());
  return MedianNsPerOp([&] {
    uint64_t faults = 0;
    const uint64_t t0 = CpuNs();
    for (uint64_t r = 0; r < reps; ++r) {
      for (const PageRef& p : pages) {
        faults += mmu.Translate(p.va, AccessType::kRead, p.pdom).fault != FaultType::kNone;
      }
      for (size_t i = 0; i < pages.size(); ++i) {
        faults +=
            mmu.Translate(pages[0].va, AccessType::kRead, pages[0].pdom).fault != FaultType::kNone;
      }
    }
    const uint64_t ns = CpuNs() - t0;
    g_sink = g_sink + faults;
    return Batch{ns, 2 * reps * pages.size()};
  });
}

double FindStretchNs(System& system) {
  std::vector<VirtAddr> addrs;
  const size_t half_page = system.config().page_size / 2;
  system.stretches().ForEachStretch(
      [&addrs, half_page](const Stretch& s) { addrs.push_back(s.base() + half_page); });
  if (addrs.empty()) {
    return 0.0;
  }
  const uint64_t reps = std::max<uint64_t>(1, kOpsPerBatch / addrs.size());
  return MedianNsPerOp([&] {
    uint64_t found = 0;
    const uint64_t t0 = CpuNs();
    for (uint64_t r = 0; r < reps; ++r) {
      for (VirtAddr va : addrs) {
        found += system.stretches().FindByAddr(va) != nullptr ? 1 : 0;
      }
    }
    const uint64_t ns = CpuNs() - t0;
    g_sink = g_sink + found;
    return Batch{ns, reps * addrs.size()};
  });
}

// One cycle admits the workload's contracts on a standalone allocator with
// the workload's memory size, lets each client allocate up to its limit in
// admission order (later guaranteed requests steal from earlier clients'
// optimistic frames), then removes every client. Admission is not timed.
double AllocFrameNs(uint64_t total_frames, const std::vector<FramesContract>& contracts) {
  Simulator sim;
  RamTab ramtab(total_frames);
  FramesAllocator frames(sim, ramtab, total_frames);
  DomainId next_id = 1;
  return MedianNsPerOp([&] {
    Batch b;
    while (b.ops < kOpsPerBatch) {
      std::vector<std::pair<DomainId, FramesContract>> clients;
      uint64_t guaranteed = 0;
      for (const FramesContract& c : contracts) {
        if (guaranteed + c.guaranteed > total_frames) {
          continue;
        }
        if (frames.AdmitClient(next_id, c).ok()) {
          guaranteed += c.guaranteed;
          clients.emplace_back(next_id, c);
        }
        ++next_id;
      }
      if (clients.empty()) {
        break;
      }
      const uint64_t t0 = CpuNs();
      for (const auto& [id, c] : clients) {
        for (uint64_t k = 0; k < c.limit(); ++k) {
          ++b.ops;
          if (!frames.AllocFrame(id).has_value()) {
            break;
          }
        }
      }
      for (const auto& [id, c] : clients) {
        (void)frames.RemoveClient(id);
        ++b.ops;
      }
      b.ns += CpuNs() - t0;
    }
    return b;
  });
}

// PickNext + Charge on a standalone Atropos with the workload's QoS mix, every
// client backlogged, charging 1 us per pick.
double PickNs(const std::vector<QosSpec>& qos) {
  return MedianNsPerOp([&] {
    Simulator sim;
    AtroposScheduler sched(sim);
    for (const QosSpec& q : qos) {
      auto id = sched.Admit("probe", q);
      if (id.has_value()) {
        sched.SetQueued(*id, 1);
      }
    }
    Batch b;
    const uint64_t t0 = CpuNs();
    while (b.ops < kOpsPerBatch) {
      const auto pick = sched.PickNext();
      if (!pick.has_value()) {
        break;
      }
      sched.Charge(pick->client, Microseconds(1), pick->lax);
      ++b.ops;
    }
    b.ns = CpuNs() - t0;
    return b;
  });
}

// Page-sized read transactions through a standalone USD whose Atropos holds
// the workload's clients (idle) beside the probing client.
double UsdTxnNs(const std::vector<QosSpec>& qos) {
  constexpr uint64_t kTxns = 2000;
  return MedianNsPerOp([&] {
    Simulator sim;
    Disk disk;
    Usd usd(sim, disk);
    usd.Start();
    for (const QosSpec& q : qos) {
      (void)usd.OpenClient("idle", q, 1);
    }
    auto client = usd.OpenClient(
        "probe", QosSpec{Milliseconds(250), Microseconds(12500), true, Milliseconds(0)}, 1);
    if (!client.has_value()) {
      return Batch{};
    }
    (*client)->AddExtent(Extent{0, uint64_t{1} << 16});
    bool done = false;
    const uint64_t t0 = CpuNs();
    sim.Spawn(Transactions(*client, kTxns, &done));
    while (!done && sim.Step()) {
    }
    return Batch{CpuNs() - t0, done ? kTxns : 0};
  });
}

// TraceRecorder appends with the span schema (category "span", a stage name,
// duration and fault id), one domain per workload domain.
double RecordNs(size_t domains) {
  TraceRecorder trace;
  const int ndomains = static_cast<int>(std::max<size_t>(1, domains));
  return MedianNsPerOp([&] {
    trace.Clear();
    const uint64_t t0 = CpuNs();
    for (uint64_t i = 0; i < kOpsPerBatch; ++i) {
      trace.Record(static_cast<SimTime>(i), "span", static_cast<int>(i) % ndomains, "resolve",
                   0.25, static_cast<double>(i));
    }
    return Batch{CpuNs() - t0, kOpsPerBatch};
  });
}

}  // namespace

void RunProbes(System& system, const Shape& shape, Metrics* out) {
  Metrics& m = *out;
  const std::vector<PageRef> pages = LivePages(shape, system.config().page_size);
  m["sim.event_ns"] = SimEventNs();
  m["sim.spawn_ns"] = SimSpawnNs();
  m["sim.notify_ns"] = SimNotifyNs(std::max<size_t>(1, shape.live_apps.size()));
  m["kernel.find_domain_ns"] = FindDomainNs(system, shape);
  m["kernel.trans_ns"] = TransNs(system, pages);
  m["hw.translate_ns"] = TranslateNs(system, pages);
  m["mm.find_stretch_ns"] = FindStretchNs(system);
  m["mm.alloc_frame_ns"] = AllocFrameNs(system.frames().total_frames(), shape.contracts);
  m["sched.pick_ns"] = PickNs(shape.qos);
  m["usd.txn_ns"] = UsdTxnNs(shape.qos);
  m["obs.record_ns"] = RecordNs(shape.live_apps.size());
}

}  // namespace nemesis::perfbench
