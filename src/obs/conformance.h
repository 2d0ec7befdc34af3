// Contract-conformance monitor (DESIGN.md "Observability").
//
// The paper's bargain is explicit: every domain holds a disk QoS contract
// (s, p, x) and a memory allotment (g, x), and in exchange does its own
// paging. PR 5's spans show *stall*; this monitor answers the contractual
// question — did each domain actually receive what it was guaranteed, in
// every one of its own accounting periods?
//
// Probe sites:
//   * the USD's Atropos charge/refresh/queue hooks — every granted disk
//     slice, every period boundary, every backlog transition;
//   * the frames allocator                — frame-holding transitions,
//     guarantee waits, revocation windows, kills.
//
// The monitor buckets deliveries into the domain's own contract periods
// (registered at admission so they align with the Atropos deadline stream)
// and emits one verdict per (domain, resource, period):
//
//   met      — delivered >= allocation, or the shortfall was never demanded
//              (no backlog outlasting the delivered service);
//   degraded — the guarantee was interfered with but not starved: the domain
//              got >= g while overlapping a revocation window, waited on its
//              guarantee for part (not all) of the period, or its shortfall
//              is attributable to a revocation in progress;
//   violated — got < g with runnable work for the whole shortfall (memory:
//              waited on its guarantee for the entire period, or was killed).
//
// Each verdict lands in three places: a trace record (category "verdict",
// event "<res>-<verdict>", value_a = delivered, value_b = the attributed
// aggressor domain or 0), a bounded ring of recent verdicts for tests, and
// cumulative MetricsRegistry counters "conformance.<name>.<res>.<verdict>".
//
// Overhead contract: every hook is a null-check + branch while disabled;
// bench_obs_conformance holds the obs-off fig7 wall clock to the PR 5 <= 2%
// gate.
#ifndef SRC_OBS_CONFORMANCE_H_
#define SRC_OBS_CONFORMANCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace nemesis {

class MetricsRegistry;
class StatCounter;

class ConformanceMonitor {
 public:
  enum class Resource : uint8_t { kDisk = 0, kMemory = 1 };
  enum class Verdict : uint8_t { kMet = 0, kDegraded = 1, kViolated = 2 };

  struct VerdictRecord {
    uint32_t domain = 0;
    Resource resource = Resource::kDisk;
    Verdict verdict = Verdict::kMet;
    SimTime period_start = 0;
    SimTime period_end = 0;
    // disk: delivered ns this period (incl. lax). memory: min frames held.
    double value = 0.0;
    uint32_t other = 0;  // attributed aggressor domain, 0 = none
  };

  struct Summary {
    uint64_t met = 0;
    uint64_t degraded = 0;
    uint64_t violated = 0;
    uint64_t periods() const { return met + degraded + violated; }
  };

  ConformanceMonitor() = default;
  ConformanceMonitor(const ConformanceMonitor&) = delete;
  ConformanceMonitor& operator=(const ConformanceMonitor&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_sinks(TraceRecorder* trace, MetricsRegistry* registry) {
    trace_ = trace;
    registry_ = registry;
  }

  // Registers a contract whose first accounting period starts at `now`.
  // disk: `guarantee` is the slice in ns per period. memory: `guarantee`
  // is the guaranteed frame count; its periods close lazily on allocator
  // events, on the same domain's disk period boundaries, and on Flush().
  void RegisterContract(uint32_t domain, Resource res, const std::string& name, SimTime now,
                        SimDuration period, uint64_t guarantee);

  // Stops accounting. A partial period is judged only when the domain was
  // killed mid-period (so the kill verdict is never silently dropped).
  void DeactivateContract(uint32_t domain, Resource res, SimTime now);

  // -- Disk feed (USD Atropos hooks, mapped to domains by the caller) -------

  // A charge of `used` ns ending at `end`; lax charges count as delivered but
  // not as service (they ran on borrowed laxity, not the guarantee).
  void OnSlice(uint32_t domain, Resource res, SimTime end, SimDuration used, bool lax);

  // Period boundary from the Atropos refresh: closes the current period,
  // opens the next with `allocation` ns (slice + any rollover carry). Also
  // closes the domain's elapsed memory periods up to `boundary`.
  void OnPeriod(uint32_t domain, Resource res, SimTime boundary, SimDuration allocation,
                bool queued);

  // Backlog edge from the queue hook; maintains the waiting-time integral
  // that separates "guarantee unused" from "starved with runnable work".
  void OnBacklog(uint32_t domain, Resource res, SimTime now, bool queued);

  // -- Memory feed (frames allocator) ---------------------------------------

  void OnFramesHeld(uint32_t domain, SimTime now, uint64_t held);
  void OnGuaranteeWaitStart(uint32_t domain, SimTime now, uint32_t other);
  void OnGuaranteeWaitEnd(uint32_t domain, SimTime now);
  void OnRevocationStart(uint32_t victim, SimTime now, uint32_t aggressor);
  void OnRevocationEnd(uint32_t victim, SimTime now);
  void OnKill(uint32_t victim, SimTime now, uint32_t aggressor);

  // Closes every fully elapsed memory period up to `now` (benches call this
  // before dumping traces so the verdict stream covers the whole window).
  void Flush(SimTime now);

  // Cumulative per-contract verdict counts (zeroes for unknown contracts).
  Summary SummaryOf(uint32_t domain, Resource res) const;

  // Most recent verdicts, oldest first (bounded ring of kRecentCap).
  std::vector<VerdictRecord> recent() const;

  static const char* ResourceName(Resource res);   // "disk" / "mem"
  static const char* VerdictName(Verdict v);       // "met" / ...

 private:
  static constexpr size_t kRecentCap = 512;

  struct Contract {
    std::string name;
    SimDuration period = 0;
    uint64_t guarantee = 0;
    bool active = false;

    SimTime period_start = 0;
    // disk period state.
    SimDuration allocation = 0;  // granted ns this period
    SimDuration delivered = 0;   // charged ns incl. lax
    SimDuration service = 0;     // charged ns excl. lax
    SimDuration waiting = 0;     // integral of backlog time this period
    bool queued = false;
    SimTime queued_since = 0;
    // memory period state.
    uint64_t held = 0;
    uint64_t min_held = 0;
    bool wait_outstanding = false;
    SimTime wait_start = 0;
    uint32_t wait_other = 0;
    bool killed = false;
    uint32_t killed_by = 0;
    // shared interference state.
    bool revoked_this_period = false;
    uint32_t revoked_by = 0;

    Summary summary;
    StatCounter* met_counter = nullptr;
    StatCounter* degraded_counter = nullptr;
    StatCounter* violated_counter = nullptr;
  };

  struct Key {
    uint32_t domain;
    uint8_t res;
    bool operator<(const Key& o) const {
      return domain != o.domain ? domain < o.domain : res < o.res;
    }
  };

  Contract* Find(uint32_t domain, Resource res);
  const Contract* Find(uint32_t domain, Resource res) const;
  // Closes the disk period ending at `boundary`.
  void CloseSlicePeriod(uint32_t domain, Resource res, Contract* c, SimTime boundary,
                        SimDuration next_allocation);
  // Closes fully elapsed memory periods up to `now`.
  void CloseMemoryUpTo(uint32_t domain, Contract* c, SimTime now);
  void CloseMemoryPeriod(uint32_t domain, Contract* c, SimTime period_end);
  void Emit(uint32_t domain, Resource res, Contract* c, SimTime period_start, SimTime period_end,
            Verdict v, double value, uint32_t other);

  bool enabled_ = false;
  TraceRecorder* trace_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
  std::map<Key, Contract> contracts_;
  // Open revocation windows: victim domain -> aggressor.
  std::map<uint32_t, uint32_t> open_revocations_;
  std::vector<VerdictRecord> recent_;
  size_t recent_head_ = 0;
};

}  // namespace nemesis

#endif  // SRC_OBS_CONFORMANCE_H_
