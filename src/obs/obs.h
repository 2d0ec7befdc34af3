// Observability hub (DESIGN.md "Observability").
//
// One Obs object per System carries the on/off switch, the MetricsRegistry,
// and the span-emission entry point for fault-lifecycle tracing. Probe sites
// throughout kernel/app/mm/usd hold an `Obs*` (null for components built
// outside a System) and call Span() at stage boundaries; Span forwards to the
// System's TraceRecorder under category "span", so spans land in the same CSV
// the figure benches already dump.
//
// Span record schema (category "span"):
//   time    — the STAGE START in simulated time
//   client  — the faulting domain id (for revocation events: the victim)
//   event   — stage name: raise, dispatch, coalesced, fast-resolve, enqueue,
//             queue-wait, resolve, usd-read, usd-write, disk, map, failed,
//             resume; plus revoke-start / revoke-end / revoke-transparent /
//             revoke-kill
//   value_a — stage duration in milliseconds
//   value_b — the fault trace id ((domain << 32) | per-domain sequence; ids
//             stay exact in a double until 2^53), or for revoke-* events the
//             AGGRESSOR domain whose allocation forced the revocation
//
// Overhead contract: with `enabled() == false` every probe reduces to a null
// check plus one predictable branch — no allocation, no string work, no trace
// append. Probe sites pass the pre-interned names in `stage::` below, so an
// enabled probe does no name lookup either. bench_obs_overhead holds the fig7
// workload to <= 2% wall-clock delta for the compiled-in-but-disabled
// configuration.
#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/obs/conformance.h"
#include "src/obs/metrics.h"
#include "src/sim/trace.h"

namespace nemesis {

// Background (speculative) I/O trace ids. Demand fault ids are
// (domain << 32) | seq; pipeline read-ahead and writeback I/O gets its own id
// space with bit 52 set so reports can split demand vs speculative disk time
// per domain. Ids stay below 2^53, so they survive the trace's double fields.
inline constexpr uint64_t kBgTraceFlag = uint64_t{1} << 52;

inline constexpr uint64_t MakeBgTraceId(uint32_t domain, uint64_t seq) {
  return kBgTraceFlag | (uint64_t{domain} << 32) | (seq & 0xFFFFFFFFull);
}
inline constexpr bool IsBgTraceId(uint64_t id) { return (id & kBgTraceFlag) != 0; }
inline constexpr uint32_t TraceDomainOf(uint64_t id) {
  return static_cast<uint32_t>((id >> 32) & 0xFFFFF);
}

// Pre-interned span categories and stage names (the schema above).
namespace stage {
inline const TraceName kSpan{"span"};
inline const TraceName kBg{"bg"};
inline const TraceName kRaise{"raise"};
inline const TraceName kDispatch{"dispatch"};
inline const TraceName kCoalesced{"coalesced"};
inline const TraceName kFastResolve{"fast-resolve"};
inline const TraceName kEnqueue{"enqueue"};
inline const TraceName kQueueWait{"queue-wait"};
inline const TraceName kResolve{"resolve"};
inline const TraceName kUsdRead{"usd-read"};
inline const TraceName kUsdWrite{"usd-write"};
inline const TraceName kBgRead{"bg-read"};
inline const TraceName kBgWrite{"bg-write"};
inline const TraceName kDisk{"disk"};
inline const TraceName kMap{"map"};
inline const TraceName kFailed{"failed"};
inline const TraceName kResume{"resume"};
inline const TraceName kRevokeStart{"revoke-start"};
inline const TraceName kRevokeEnd{"revoke-end"};
inline const TraceName kRevokeTransparent{"revoke-transparent"};
inline const TraceName kRevokeKill{"revoke-kill"};
}  // namespace stage

class Obs {
 public:
  explicit Obs(TraceRecorder* trace) : trace_(trace) {
    conformance_.set_sinks(trace, &registry_);
  }
  Obs(const Obs&) = delete;
  Obs& operator=(const Obs&) = delete;

  void set_enabled(bool on) {
    enabled_ = on;
    conformance_.set_enabled(on);
  }
  bool enabled() const { return enabled_; }

  MetricsRegistry& registry() { return registry_; }
  ConformanceMonitor& conformance() { return conformance_; }

  // Emits one span record; no-op while disabled. `domain` is a DomainId (or
  // a victim domain for revoke-* events); `fid` is the fault trace id (or the
  // aggressor domain for revoke-* events).
  void Span(SimTime start, uint32_t domain, TraceName name, double duration_ms, uint64_t fid) {
    if (!enabled_) {
      return;
    }
    trace_->Record(start, stage::kSpan, static_cast<int>(domain), name, duration_ms,
                   static_cast<double>(fid));
  }

  // Emits a disk service span for `fid`, routing by id space: demand fault
  // ids land under category "span" (as before), background pipeline ids under
  // category "bg" so reports can attribute speculative disk time.
  void DiskSpan(SimTime start, uint64_t fid, double duration_ms) {
    if (!enabled_) {
      return;
    }
    trace_->Record(start, IsBgTraceId(fid) ? stage::kBg : stage::kSpan,
                   static_cast<int>(TraceDomainOf(fid)), stage::kDisk, duration_ms,
                   static_cast<double>(fid));
  }

  // Emits a background pipeline span (read-ahead / writeback) under
  // category "bg"; `fid` must be a MakeBgTraceId id.
  void BgSpan(SimTime start, uint32_t domain, TraceName name, double duration_ms, uint64_t fid) {
    if (!enabled_) {
      return;
    }
    trace_->Record(start, stage::kBg, static_cast<int>(domain), name, duration_ms,
                   static_cast<double>(fid));
  }

  // Per-domain latency probes, registered once per application domain. The
  // histograms live in the registry (named "domain.<name>.<stage>_ns") so a
  // metrics snapshot carries per-domain percentiles without trace parsing.
  struct DomainProbe {
    LatencyHistogram* fault_total = nullptr;  // raise -> resume
    LatencyHistogram* dispatch = nullptr;     // raise -> MmEntry handler
    LatencyHistogram* queue_wait = nullptr;   // enqueue -> worker pickup
    LatencyHistogram* resolve = nullptr;      // worker resolve duration
    LatencyHistogram* usd_wait = nullptr;     // swap read/write round trip
  };

  // Creates (or returns) the domain's probe. Also registers a
  // "domain.<name>.id" gauge so report tooling can map trace domain ids back
  // to application names from the metrics snapshot alone.
  DomainProbe* RegisterDomain(uint32_t domain, const std::string& name);

  // Null until RegisterDomain; callers gate on enabled() before recording.
  DomainProbe* probe(uint32_t domain) {
    auto it = probes_.find(domain);
    return it != probes_.end() ? &it->second : nullptr;
  }

 private:
  bool enabled_ = false;
  TraceRecorder* trace_;
  MetricsRegistry registry_;
  ConformanceMonitor conformance_;
  std::unordered_map<uint32_t, DomainProbe> probes_;
};

// Observability switch from the NEMESIS_OBS environment variable (off when
// unset/0). Lets the figure benches be A/B-diffed with spans on without a
// recompile.
bool ObserveFromEnv();

}  // namespace nemesis

#endif  // SRC_OBS_OBS_H_
