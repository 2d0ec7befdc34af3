// Ablation G: batched USD I/O. A single client streams sequential 8 KiB
// writes through the USD with a deep pipeline. Unbatched, every transaction
// pays the per-command overhead — which lets the target sector slip past the
// head, so each transaction misses a revolution (~12.6 ms for 16 blocks).
// With request coalescing the service loop drains the queue into one chained
// transaction whose continuation segments stream at the media rate (~1.5 ms
// per 16 blocks), so throughput rises several-fold while the QoS accounting
// is unchanged: the chain is charged exactly the disk busy time it produced.
//
// The batching-off row exercises the exact pre-batching code path; it is the
// control the figure benches' bit-identical gate relies on.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/hw/disk.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/usd/io_channel.h"
#include "src/usd/usd.h"

namespace nemesis {
namespace {

// Keeps `depth` sequential 16-block writes outstanding until `until`, each
// from its own slot of `buffers` (replies come back FIFO, so request n owns
// buffer n % depth until its reply arrives).
Task SequentialWriter(UsdClient* client, uint64_t region_blocks, int depth, SimTime until,
                      Simulator& sim, std::vector<std::vector<uint8_t>>* buffers) {
  int outstanding = 0;
  uint64_t next_id = 0;
  uint64_t cursor = 0;
  while (sim.Now() < until) {
    while (outstanding < depth) {
      co_await client->AcquireSlot();
      UsdRequest req;
      req.id = next_id++;
      req.lba = cursor;
      req.nblocks = 16;
      req.is_write = true;
      std::vector<uint8_t>& buffer = (*buffers)[req.id % buffers->size()];
      std::fill(buffer.begin(), buffer.end(), static_cast<uint8_t>(req.id));
      req.buffer = buffer;
      cursor += 16;
      if (cursor + 16 > region_blocks) {
        cursor = 0;
      }
      client->Push(req);
      ++outstanding;
    }
    (void)co_await client->ReceiveReply();
    --outstanding;
  }
}

struct RunResult {
  double mbps = 0.0;
  uint64_t transactions = 0;
  uint64_t batches = 0;
  double avg_batch = 0.0;
  bool charge_exact = false;
};

RunResult RunOnce(const UsdBatchPolicy& policy, SimDuration measure) {
  Simulator sim;
  Disk disk;
  Usd usd(sim, disk, nullptr);
  usd.Start();
  // The whole disk for one client: QoS out of the picture, batching isolated.
  auto client = usd.OpenClient("seq", QosSpec{Milliseconds(100), Milliseconds(100), false,
                                              Milliseconds(10)},
                               /*depth=*/32);
  if (!client.has_value()) {
    return {};
  }
  const uint64_t region = 2000000;
  (*client)->AddExtent(Extent{0, region});
  (*client)->set_batch_policy(policy);
  // Owned here, not by the writer task: writes still in flight when the
  // writer returns gather from them at completion.
  std::vector<std::vector<uint8_t>> buffers(32, std::vector<uint8_t>(16 * 512));
  sim.Spawn(SequentialWriter(*client, region, 32, measure, sim, &buffers), "writer");
  sim.RunUntil(measure);

  RunResult r;
  r.mbps = static_cast<double>((*client)->bytes_transferred()) * 8.0 / 1e6 / ToSeconds(measure);
  r.transactions = (*client)->transactions();
  r.batches = (*client)->batches();
  r.avg_batch = r.batches == 0 ? 0.0
                               : static_cast<double>((*client)->batched_requests()) /
                                     static_cast<double>(r.batches);
  r.charge_exact = usd.batch_charged() == usd.batch_busy();
  return r;
}

}  // namespace
}  // namespace nemesis

int main() {
  using namespace nemesis;
  std::printf("=== Ablation G: batched USD I/O (request coalescing) ===\n");
  std::printf("Single client, sequential 8 KiB writes, 32 outstanding; the unbatched path\n"
              "misses a revolution per transaction, chained continuations stream.\n\n");

  const SimDuration measure = Seconds(20);
  struct Row {
    const char* label;
    UsdBatchPolicy policy;
  };
  std::vector<Row> rows;
  rows.push_back({"off", UsdBatchPolicy{}});
  for (const uint32_t max_requests : {4u, 8u, 16u, 32u}) {
    UsdBatchPolicy p;
    p.enabled = true;
    p.max_requests = max_requests;
    rows.push_back({nullptr, p});
  }

  std::printf("  batching      Mbit/s      txns   batches  avg_batch  speedup\n");
  double off_mbps = 0.0;
  double speedup_at_8 = 0.0;
  bool charges_exact = true;
  bool off_clean = true;
  for (const Row& row : rows) {
    const RunResult r = RunOnce(row.policy, measure);
    char label[32];
    if (row.label != nullptr) {
      std::snprintf(label, sizeof label, "%s", row.label);
    } else {
      std::snprintf(label, sizeof label, "max=%u", row.policy.max_requests);
    }
    if (!row.policy.enabled) {
      off_mbps = r.mbps;
      off_clean = r.batches == 0 && r.charge_exact;
    }
    const double speedup = off_mbps > 0.0 ? r.mbps / off_mbps : 0.0;
    if (row.policy.enabled && row.policy.max_requests == 8) {
      speedup_at_8 = speedup;
    }
    charges_exact = charges_exact && r.charge_exact;
    std::printf("  %-9s  %9.2f  %8llu  %8llu  %9.2f  %6.2fx\n", label, r.mbps,
                static_cast<unsigned long long>(r.transactions),
                static_cast<unsigned long long>(r.batches), r.avg_batch, speedup);
  }

  std::printf("\n  speedup at max=8: %.2fx (gate: >= 2x)\n", speedup_at_8);
  std::printf("  batch charge == disk busy in every run: %s\n", charges_exact ? "yes" : "NO");
  std::printf("  batching-off run issued zero chains: %s\n", off_clean ? "yes" : "NO");
  const bool ok = speedup_at_8 >= 2.0 && charges_exact && off_clean;
  std::printf("  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
