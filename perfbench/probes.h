// Host-time probes of single layers, run in the traced run after the
// measured phase. Each probe times the benchmark's own calls into one
// layer's public functions, sized to the workload: its domain count, its
// stretches, its frames contracts and its disk QoS mix. Probes that need
// state of their own (frames allocator, Atropos, USD, simulator, trace
// recorder) build a standalone instance; the others call into the
// workload's System, whose simulation has ended.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include "perfbench/workloads.h"

namespace nemesis::perfbench {

// Fills sim.event_ns, sim.spawn_ns, sim.notify_ns, kernel.find_domain_ns,
// kernel.trans_ns, hw.translate_ns, mm.find_stretch_ns, mm.alloc_frame_ns,
// sched.pick_ns, usd.txn_ns and obs.record_ns (host ns per call, median of
// several batches).
void RunProbes(System& system, const Shape& shape, Metrics* out);

}  // namespace nemesis::perfbench

#endif  // PERFBENCH_PROBES_H_
