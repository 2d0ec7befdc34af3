// Reusable workload coroutines mirroring the paper's test applications
// (§7.2): sequential whole-stretch access loops with a watch thread that logs
// progress every few seconds, and the pipelined file-system client of
// Figure 9.
#ifndef SRC_CORE_WORKLOADS_H_
#define SRC_CORE_WORKLOADS_H_

#include <cstdint>

#include "src/core/system.h"

namespace nemesis {

// "The main thread continues sequentially accessing every byte from the start
// of the stretch, incrementing a counter for each byte processed and looping
// around to the start when it reaches the top." Runs until `until`; *bytes
// counts total bytes processed. *ok becomes false on an unresolvable fault.
Task SequentialAccessLoop(AppDomain& app, AccessType access, SimTime until, uint64_t* bytes,
                          bool* ok);

// One sequential pass over the whole stretch (used for initialisation: "the
// application then proceeded to sequentially read every byte in the stretch,
// causing every page to be demand zeroed" / "... by writing to every byte").
Task SequentialPass(AppDomain& app, AccessType access, bool* ok);

// "The watch thread wakes up every `interval` and logs the number of bytes
// processed" — emits ("progress", client, bytes, delta) trace records.
Task WatchProgress(Simulator& sim, TraceRecorder& trace, int client, const uint64_t* bytes,
                   SimDuration interval, SimTime until);

// Figure 9's file-system client: reads page-sized transactions sequentially
// from `extent` with `depth`-deep pipelining into `depth` buffers of its own,
// until `until`; *bytes counts payload transferred. It drains its in-flight
// reads before returning, so it must not be killed while the USD still runs.
Task PipelinedFsClient(Simulator& sim, UsdClient* client, Extent extent, int depth, SimTime until,
                       uint64_t* bytes);

}  // namespace nemesis

#endif  // SRC_CORE_WORKLOADS_H_
