#include "src/core/workloads.h"

#include <vector>

#include "src/sim/sync.h"

namespace nemesis {

Task SequentialAccessLoop(AppDomain& app, AccessType access, SimTime until, uint64_t* bytes,
                          bool* ok) {
  Stretch* stretch = app.stretch();
  Simulator& sim = app.sim();
  while (sim.Now() < until && app.alive()) {
    bool pass_ok = false;
    // The pass must be a workload task, not a raw spawn: its result pointer
    // is on this frame, and if the domain is killed while a page resolve's
    // joiner-resume is already in the event queue, an unowned pass would
    // outlive us and write into the freed frame. Owned, it dies with us.
    TaskHandle h = app.SpawnWorkload(app.vmem().AccessRange(stretch->base(), stretch->length(),
                                                            access, &pass_ok, bytes),
                                     "pass");
    co_await Join(h);
    if (!pass_ok) {
      *ok = false;
      co_return;
    }
  }
  *ok = true;
}

Task SequentialPass(AppDomain& app, AccessType access, bool* ok) {
  Stretch* stretch = app.stretch();
  bool pass_ok = false;
  // Workload-owned for the same reason as in SequentialAccessLoop above.
  TaskHandle h = app.SpawnWorkload(
      app.vmem().AccessRange(stretch->base(), stretch->length(), access, &pass_ok, nullptr),
      "pass");
  co_await Join(h);
  *ok = pass_ok;
}

Task WatchProgress(Simulator& sim, TraceRecorder& trace, int client, const uint64_t* bytes,
                   SimDuration interval, SimTime until) {
  uint64_t last = *bytes;
  while (sim.Now() < until) {
    co_await SleepFor(sim, interval);
    const uint64_t now_bytes = *bytes;
    trace.Record(sim.Now(), "workload", client, "progress", static_cast<double>(now_bytes),
                 static_cast<double>(now_bytes - last));
    last = now_bytes;
  }
}

Task PipelinedFsClient(Simulator& sim, UsdClient* client, Extent extent, int depth, SimTime until,
                       uint64_t* bytes) {
  const uint32_t page_blocks = 16;  // page-sized transactions, as in the paper
  const size_t page_bytes = static_cast<size_t>(page_blocks) * client->block_size();
  // One client-owned buffer per pipeline slot (the paper's rbufs). Replies
  // come back in FIFO order, so request n always lands in buffer n % depth.
  std::vector<std::vector<uint8_t>> buffers(static_cast<size_t>(depth),
                                            std::vector<uint8_t>(page_bytes));
  int outstanding = 0;
  uint64_t cursor = 0;
  uint64_t next_id = 0;
  while (sim.Now() < until) {
    while (outstanding < depth) {
      co_await client->AcquireSlot();
      UsdRequest req;
      req.id = next_id++;
      req.lba = extent.start + cursor;
      req.nblocks = page_blocks;
      req.is_write = false;
      req.buffer = buffers[req.id % buffers.size()];
      cursor = (cursor + page_blocks) % (extent.length - page_blocks);
      client->Push(req);
      ++outstanding;
    }
    const UsdReply reply = co_await client->ReceiveReply();
    --outstanding;
    if (reply.ok) {
      *bytes += page_bytes;
    }
  }
  // The buffers live in this frame: let the reads still in flight land
  // before it goes (they no longer count towards *bytes).
  for (; outstanding > 0; --outstanding) {
    (void)co_await client->ReceiveReply();
  }
}

}  // namespace nemesis
