// Chrome/Perfetto trace-event exporter (DESIGN.md "Observability").
//
// Converts a TraceRecorder's records into the catapult JSON trace-event
// format so fault lifecycles, disk scheduler slices, background pipeline
// I/O, and conformance verdicts are inspectable on one shared timeline in
// https://ui.perfetto.dev (or chrome://tracing).
//
// Mapping:
//   * duration-style records (obs spans, bg spans, USD transactions, Atropos
//     laxity charges) become "ph":"X" complete events — ts is the record time
//     and dur the value_a milliseconds, both in microseconds;
//   * everything else (verdicts, frame events, alloc/exhaust edges, workload
//     progress) becomes a "ph":"i" process-scoped instant;
//   * pid is the record's client/domain id, tid a per-category lane, and
//     "M"-phase metadata names both so the UI shows "domain 3 / faults"
//     instead of bare numbers.
//
// Output is deterministic: records are emitted in recorder order with fixed
// printf formatting, so two identical runs export byte-identical JSON.
#ifndef SRC_OBS_TRACE_EXPORT_H_
#define SRC_OBS_TRACE_EXPORT_H_

#include <string>

#include "src/sim/trace.h"

namespace nemesis {

// Renders the catapult {"traceEvents": [...]} document.
std::string PerfettoJson(const TraceRecorder& trace);

// Writes PerfettoJson(trace) to `path`; false on I/O failure.
bool WritePerfettoJson(const TraceRecorder& trace, const std::string& path);

}  // namespace nemesis

#endif  // SRC_OBS_TRACE_EXPORT_H_
